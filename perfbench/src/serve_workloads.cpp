// The closed-loop serving workload: session threads on one default-config
// PolicyServer, each sending its next decision request only after the
// previous answer, episode after episode, until the run's time is up; and
// the served held-out evaluation of the training workload.
#include <algorithm>
#include <condition_variable>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

#include "io/checkpoint.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/policy_server.h"
#include "sim/validate.h"
#include "workloads.h"

namespace perfbench {

namespace serve = decima::serve;
namespace sim = decima::sim;
using decima::gnn::EmbeddingCacheStats;

namespace {

struct ServeShape {
  JobFamily family;
  int sessions = 1;
};

struct EpisodeRecord {
  std::uint64_t seed = 0;
  TraceDigest digest;
  bool all_done = false;
};

// Each session's first episodes of a phase, whose decision latencies are
// kept one by one: serve.handoff_us compares them with the offline
// DecimaAgent::decide on the same episodes.
constexpr std::size_t kHandoffEpisodes = 4;

// What one session saw in one timed phase.
struct SessionLog {
  LatencyHistogram decide_us;
  std::vector<double> first_episodes_us;  // the first kHandoffEpisodes
  std::vector<EpisodeRecord> episodes;
  std::uint64_t not_ok = 0;  // status != kOk, or answered by the fallback
  double run_us = 0.0;     // wall time inside ClusterEnv::run
};

// One served session: a Scheduler that routes each decision through the
// server, timing it as the session thread sees it.
class TimedSession : public sim::Scheduler {
 public:
  TimedSession(serve::PolicyServer& server, int index)
      : server_(server), session_(server.open_session()), index_(index) {}

  sim::Action schedule(const sim::ClusterEnv& env) override {
    const std::uint64_t id =
        (static_cast<std::uint64_t>(index_ + 1) << 32) | decisions_;
    ++decisions_;
    spans::Scoped sp("serve.decide", id);
    const auto t0 = Clock::now();
    const serve::DecideResult r = server_.decide_with_status(session_, env);
    const auto t1 = Clock::now();
    const double us = us_between(t0, t1);
    log_->decide_us.add(us);
    if (log_->episodes.size() < kHandoffEpisodes) {
      log_->first_episodes_us.push_back(us);
    }
    if (r.status != serve::DecideStatus::kOk || r.fallback) ++log_->not_ok;
    return r.action;
  }
  std::string name() const override { return "served-session"; }

  // Runs one whole episode of the family's inputs for `seed` and records it.
  void run_episode(const JobFamily& family, std::uint64_t seed) {
    const auto jobs = family.episode(seed);
    sim::ClusterEnv env = make_env(family, jobs);
    {
      // Bit 31 keeps episode ids apart from the session's decision ids.
      spans::Scoped sp("sim.episode",
                       (static_cast<std::uint64_t>(index_ + 1) << 32) |
                           (std::uint64_t{1} << 31) | log_->episodes.size());
      const auto t0 = Clock::now();
      env.run(*this);
      log_->run_us += us_between(t0, Clock::now());
    }
    log_->episodes.push_back(
        {seed, digest(env.trace()), env.all_done()});
  }

  void set_log(SessionLog* log) { log_ = log; }
  const EmbeddingCacheStats& cache_stats() const {
    return session_.cache_stats();
  }

 private:
  serve::PolicyServer& server_;
  serve::Session session_;
  int index_;
  SessionLog* log_ = nullptr;
  std::uint64_t decisions_ = 0;
};

struct Deployment {
  std::unique_ptr<serve::PolicyServer> server;
  std::vector<std::unique_ptr<TimedSession>> sessions;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  // Sessions close before their server stops.
  ~Deployment() { sessions.clear(); }
};

// Starts a default-config server from `policy_path` and opens the sessions;
// with `warm_up`, each session then runs kWarmupEpisodes episodes of fixed
// inputs.
std::unique_ptr<Deployment> deploy(const ServeShape& shape,
                                   const std::string& policy_path,
                                   bool warm_up, Result& result) {
  auto d = std::make_unique<Deployment>();
  d->server = serve::PolicyServer::from_checkpoint(policy_path);
  result.check(d->server != nullptr, "PolicyServer loads the checkpoint");
  if (!d->server) return nullptr;
  SessionLog warm;
  for (int s = 0; s < shape.sessions; ++s) {
    d->sessions.push_back(std::make_unique<TimedSession>(*d->server, s));
    d->sessions.back()->set_log(&warm);
    for (int e = 0; warm_up && e < kWarmupEpisodes; ++e) {
      d->sessions.back()->run_episode(shape.family,
                                      episode_seed(kWarmupSeed, s, e));
    }
  }
  for (auto& sess : d->sessions) sess->set_log(nullptr);
  result.check(warm.not_ok == 0, "warm-up decisions answered kOk");
  return d;
}

// Set-up of a serving workload: export a fresh seeded policy (and an
// identical-weights copy to swap in) through io::save_policy, then deploy
// it with a warm-up.
std::unique_ptr<Deployment> set_up(const ServeShape& shape,
                                   const std::string& policy_path,
                                   const std::string& swap_path,
                                   Result& result) {
  decima::core::DecimaAgent fresh(policy_config());
  result.check(decima::io::save_policy(fresh, policy_path),
               "io::save_policy writes the policy");
  result.check(decima::io::save_policy(fresh, swap_path),
               "io::save_policy writes the swap checkpoint");
  return deploy(shape, policy_path, /*warm_up=*/true, result);
}

struct Phase {
  std::vector<SessionLog> logs;
  double wall_s = 0.0;  // from the common start to the last thread's end
  double cpu_s = 0.0;   // process CPU seconds over the same span
  EmbeddingCacheStats cache;  // summed over sessions, this phase only
  LatencyHistogram all_decide_us() const {
    LatencyHistogram h;
    for (const auto& l : logs) h.merge(l.decide_us);
    return h;
  }
  std::size_t decisions() const {
    std::size_t n = 0;
    for (const auto& l : logs) n += l.decide_us.count();
    return n;
  }
  // The sessions' first kHandoffEpisodes episodes each: their seeds, and the
  // p50 of the decision latencies the sessions saw on them.
  ServedSample first_episodes() const {
    ServedSample sample;
    std::vector<double> us;
    for (const auto& l : logs) {
      for (std::size_t e = 0;
           e < std::min(kHandoffEpisodes, l.episodes.size()); ++e) {
        sample.episode_seeds.push_back(l.episodes[e].seed);
      }
      us.insert(us.end(), l.first_episodes_us.begin(),
                l.first_episodes_us.end());
    }
    sample.p50_us = median(us);
    return sample;
  }
};

EmbeddingCacheStats cache_sum(const Deployment& d) {
  EmbeddingCacheStats s;
  for (const auto& sess : d.sessions) {
    const auto& c = sess->cache_stats();
    s.graphs_seen += c.graphs_seen;
    s.graphs_reused += c.graphs_reused;
    s.nodes_total += c.nodes_total;
    s.nodes_recomputed += c.nodes_recomputed;
  }
  return s;
}

// One timed phase: every session thread runs whole episodes, from the
// common start until `seconds` have passed or it has run `max_episodes`;
// the phase ends when the last thread finishes its episode.
Phase timed_phase(const ServeShape& shape, Deployment& d, std::uint64_t seed,
                  double seconds, int max_episodes = 1 << 30) {
  Phase ph;
  ph.logs.resize(static_cast<std::size_t>(shape.sessions));
  for (int s = 0; s < shape.sessions; ++s) {
    d.sessions[static_cast<std::size_t>(s)]->set_log(
        &ph.logs[static_cast<std::size_t>(s)]);
  }
  const EmbeddingCacheStats before = cache_sum(d);

  std::mutex mu;
  std::condition_variable cv;
  bool go = false;
  Clock::time_point deadline;
  std::vector<std::thread> threads;
  for (int s = 0; s < shape.sessions; ++s) {
    threads.emplace_back([&, s] {
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return go; });
      }
      TimedSession& sess = *d.sessions[static_cast<std::size_t>(s)];
      for (int e = 0; e < max_episodes && Clock::now() < deadline; ++e) {
        sess.run_episode(shape.family, episode_seed(seed, s, e));
      }
    });
  }
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  {
    std::lock_guard<std::mutex> lk(mu);
    deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
    go = true;
  }
  cv.notify_all();
  for (auto& t : threads) t.join();
  ph.wall_s = seconds_between(t0, Clock::now());
  ph.cpu_s = process_cpu_seconds() - cpu0;

  const EmbeddingCacheStats after = cache_sum(d);
  ph.cache.graphs_seen = after.graphs_seen - before.graphs_seen;
  ph.cache.graphs_reused = after.graphs_reused - before.graphs_reused;
  ph.cache.nodes_total = after.nodes_total - before.nodes_total;
  ph.cache.nodes_recomputed = after.nodes_recomputed - before.nodes_recomputed;
  return ph;
}

// Counts the phase's operations and checks every served episode: all
// decisions kOk without fallback, every job done, and the task trace equal,
// byte for byte, to a greedy DecimaAgent's run on the same inputs with no
// server (one reference agent per session, loaded from the same checkpoint;
// the sessions' reference runs proceed side by side). The reference trace,
// proven identical, is the one sim::validate_trace checks.
void check_phase(const ServeShape& shape, const Phase& ph,
                 const std::string& policy_path, const std::string& label,
                 Result& result) {
  std::uint64_t not_ok = 0, not_done = 0;
  for (const auto& l : ph.logs) {
    not_ok += l.not_ok;
    for (const auto& ep : l.episodes) not_done += ep.all_done ? 0 : 1;
  }
  result.count("decision", ph.decisions(), not_ok);
  const std::string tag = label + ": ";
  result.check(not_ok == 0, tag + "every decision answered kOk, no fallback");
  result.check(not_done == 0, tag + "every job of every episode completes");

  std::vector<std::string> errors(ph.logs.size());
  std::vector<std::thread> refs;
  for (std::size_t s = 0; s < ph.logs.size(); ++s) {
    refs.emplace_back([&, s] {
      auto agent = decima::io::load_policy_agent(policy_path);
      if (!agent) {
        errors[s] = "reference agent failed to load";
        return;
      }
      for (const auto& ep : ph.logs[s].episodes) {
        sim::ClusterEnv env =
            make_env(shape.family, shape.family.episode(ep.seed));
        env.run(*agent);
        std::string why;
        if (!(digest(env.trace()) == ep.digest)) {
          errors[s] = "served trace differs from the offline greedy trace "
                      "(episode seed " + std::to_string(ep.seed) + ")";
        } else if (!sim::validate_trace(env, &why)) {
          errors[s] = "validate_trace: " + why;
        }
        if (!errors[s].empty()) return;
      }
    });
  }
  for (auto& t : refs) t.join();
  for (std::size_t s = 0; s < errors.size(); ++s) {
    result.check(errors[s].empty(),
                 tag + "session " + std::to_string(s) + ": " + errors[s]);
  }
}

// serve.*, gnn.cache_* and sim.* per-layer metrics. `timed` is the phase the
// latencies, cache counts and simulator time come from; the obs histograms
// hold whichever phase ran with the program's metrics on.
void record_serve_layers(Deployment& d, const Phase& timed,
                         const std::string& swap_path, Result& result) {
  namespace names = decima::obs::names;
  auto& registry = decima::obs::Registry::instance();
  const auto& batch = registry.histogram(names::kServeBatchSize);
  result.metric("serve.queue_wait_us",
                registry.histogram(names::kServeQueueWaitUs).percentile(50.0),
                "us");
  result.metric("serve.batch_infer_us",
                registry.histogram(names::kServeBatchInferUs).percentile(50.0),
                "us");
  result.metric("serve.batch_size",
                batch.count() ? batch.sum() / static_cast<double>(batch.count())
                              : 0.0,
                "requests");
  result.metric("serve.decide_p99_us", timed.all_decide_us().percentile(99.0),
                "us");

  // Hot-swaps of an identical-weights checkpoint on the idle server, its
  // sessions open.
  std::vector<double> swap_us;
  std::uint64_t failed = 0;
  for (int i = 0; i < 15; ++i) {
    spans::Scoped sp("serve.swap");
    const auto t0 = Clock::now();
    failed += d.server->swap_policy_from_checkpoint(swap_path) ? 0 : 1;
    swap_us.push_back(us_between(t0, Clock::now()));
  }
  result.count("swap", 15, failed);
  result.check(failed == 0, "every policy swap succeeded");
  result.metric("serve.swap_us", median(swap_us), "us");

  const auto& c = timed.cache;
  auto frac = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  result.metric("gnn.cache_recompute_frac",
                frac(c.nodes_recomputed, c.nodes_total), "ratio");
  result.metric("gnn.cache_reuse_frac", frac(c.graphs_reused, c.graphs_seen),
                "ratio");

  double run_us = 0.0;
  for (const auto& l : timed.logs) run_us += l.run_us;
  const double decide_sum = timed.all_decide_us().sum();
  result.metric("sim.self_us_per_decision",
                (run_us - decide_sum) / static_cast<double>(timed.decisions()),
                "us");
}

Result run_serving(const ServeShape& shape, const Options& opt) {
  Result result;
  const std::string policy_path = opt.out_dir + "/policy.dpol";
  const std::string swap_path = opt.out_dir + "/policy-swap.dpol";
  std::cout << "workload " << opt.workload << ": " << shape.sessions
            << " session threads + 1 dispatcher; episodes of "
            << shape.family.describe << "\n";

  std::vector<double> setups;
  std::unique_ptr<Deployment> d;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    d.reset();  // the previous deployment stops before the next starts
    const auto t0 = Clock::now();
    d = set_up(shape, policy_path, swap_path, result);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  if (!d) return result;

  const Phase a = timed_phase(shape, *d, opt.seed, opt.seconds);
  const double rss = peak_rss_mb();
  check_phase(shape, a, policy_path, "untraced", result);
  const double p50 = a.all_decide_us().percentile(50.0);

  if (!opt.trace) {
    const auto n = static_cast<double>(a.decisions());
    result.metric("latency_p50_us", p50, "us");
    result.metric("actions_per_s", n / a.wall_s, "1/s");
    result.metric("cpu_us_per_action", a.cpu_s * 1e6 / n, "us");
    result.metric("setup_s", median(setups), "s");
    result.metric("peak_rss_mb", rss, "MB");
    return result;
  }

  // Traced run: the same phase again with the program's obs layer and the
  // benchmark's spans on, then the offline layer probes.
  start_tracing();
  const Phase b = timed_phase(shape, *d, opt.seed, opt.seconds);
  decima::obs::set_enabled(false);
  check_phase(shape, b, policy_path, "traced", result);
  record_serve_layers(*d, a, swap_path, result);
  const ServedSample served = a.first_episodes();
  const double decide_us = run_layer_probes(
      shape.family, served.episode_seeds, policy_path, opt.out_dir, result);
  result.metric("serve.handoff_us", served.p50_us - decide_us, "us");
  run_training_probe(shape.family, opt.seed, result);
  result.metric("obs.trace_overhead", b.all_decide_us().percentile(50.0) / p50,
                "ratio");
  return result;
}

}  // namespace

void start_tracing() {
  decima::obs::Registry::instance().reset();
  // Bounds the trace file; events past it are counted as dropped.
  decima::obs::Tracer::instance().set_capacity(60000);
  decima::obs::set_enabled(true);
  spans::set_enabled(true);
}

ServedSample served_evaluation(const JobFamily& family,
                               const std::string& policy_path,
                               std::uint64_t seed, bool traced,
                               Result& result) {
  ServeShape shape;
  shape.family = family;
  shape.sessions = kEvalSessions;
  auto d = deploy(shape, policy_path, /*warm_up=*/false, result);
  if (!d) return {};
  if (traced) start_tracing();
  const Phase ph = timed_phase(shape, *d, seed, 1e9, /*max_episodes=*/1);
  decima::obs::set_enabled(false);
  check_phase(shape, ph, policy_path, "held-out evaluation", result);
  if (traced) record_serve_layers(*d, ph, policy_path, result);
  return ph.first_episodes();
}

Result run_serve_tpch(const Options& opt) {
  ServeShape shape;
  shape.family = tpch_family();
  shape.sessions = 2;
  return run_serving(shape, opt);
}

}  // namespace perfbench
