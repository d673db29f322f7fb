// train_dag50: REINFORCE iterations (Algorithm 1) on the 50-stage DAG family,
// 4 episodes per iteration on a 2-thread rollout pool, curriculum off.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>

#include "io/checkpoint.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kRolloutThreads = 2;
// The timed phase runs a fixed number of iterations, one per this many
// seconds of --seconds, so that both sides of a comparison time the same
// iterations (the policy trains on, and each iteration samples new DAGs).
// An iteration takes about 1.0-1.5 s on a 4-vCPU host (Xeon, Sapphire
// Rapids class), so a 30-s run times 30 iterations in 30-45 s.
constexpr double kSecondsPerIteration = 1.0;

int timed_iterations(const Options& opt) {
  return std::max(1, static_cast<int>(opt.seconds / kSecondsPerIteration));
}

// Held-out inputs of the greedy evaluation: a seed stream no training
// iteration draws from.
constexpr std::uint64_t kHeldOut = 0x4E1D07;

struct Trainee {
  std::unique_ptr<decima::core::DecimaAgent> agent;
  std::unique_ptr<decima::rl::ReinforceTrainer> trainer;
};

// Set-up: a fresh seeded policy exported and loaded back through src/io,
// a trainer on it, and one warm-up iteration.
Trainee set_up(const JobFamily& family, const Options& opt, int threads,
               const std::string& policy_path, Result& result,
               decima::rl::IterationStats* warm) {
  Trainee t;
  {
    decima::core::DecimaAgent fresh(policy_config());
    result.check(decima::io::save_policy(fresh, policy_path),
                 "io::save_policy writes the policy");
  }
  t.agent = decima::io::load_policy_agent(policy_path);
  result.check(t.agent != nullptr, "io::load_policy_agent loads the policy");
  if (!t.agent) return t;
  t.trainer = std::make_unique<decima::rl::ReinforceTrainer>(
      *t.agent, train_config(family, opt.seed, threads));
  *warm = t.trainer->iterate();
  return t;
}

std::vector<double> param_values(const decima::nn::ParamSet& params) {
  std::vector<double> v;
  for (const auto* p : params.params()) {
    v.insert(v.end(), p->value.raw().begin(), p->value.raw().end());
  }
  return v;
}

bool byte_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct Phase {
  std::vector<decima::rl::IterationStats> stats;
  // Per iteration, measured around iterate(): wall and process CPU seconds.
  std::vector<double> wall_s, cpu_s;
  std::uint64_t diverged = 0;  // non-finite gradient norm
  std::vector<double> first_params;  // after the phase's first iteration

  // Per-iteration medians: actions per wall second, CPU us per action.
  double actions_per_s() const {
    std::vector<double> v;
    for (std::size_t i = 0; i < stats.size(); ++i) {
      v.push_back(stats[i].total_actions / wall_s[i]);
    }
    return median(v);
  }
  double cpu_us_per_action() const {
    std::vector<double> v;
    for (std::size_t i = 0; i < stats.size(); ++i) {
      v.push_back(cpu_s[i] * 1e6 / stats[i].total_actions);
    }
    return median(v);
  }
};

// Checks IterationStats' phase timers add up to the iteration's total, as
// tests/test_parallel_rollout.cpp pins them.
bool timers_add_up(const decima::rl::IterationStats& s) {
  return std::fabs(s.rollout_seconds + s.replay_seconds + s.step_seconds -
                   s.total_seconds) <= 1e-12;
}

Phase timed_phase(Trainee& t, int iterations, Result& result) {
  Phase ph;
  bool finite = true, timers = true;
  for (int i = 0; i < iterations; ++i) {
    spans::Scoped sp("rl.iterate", static_cast<std::uint64_t>(i) + 1);
    const double cpu = process_cpu_seconds();
    const auto ti = Clock::now();
    const auto s = t.trainer->iterate();
    ph.wall_s.push_back(seconds_between(ti, Clock::now()));
    ph.cpu_s.push_back(process_cpu_seconds() - cpu);
    ph.stats.push_back(s);
    if (!std::isfinite(s.grad_norm)) ++ph.diverged;
    finite = finite && params_finite(t.agent->params());
    timers = timers && timers_add_up(s);
    if (i == 0) ph.first_params = param_values(t.agent->params());
  }
  result.count("iteration", ph.stats.size(), ph.diverged);
  result.check(ph.diverged == 0, "every gradient norm is finite");
  result.check(finite, "every parameter is finite after every iteration");
  result.check(timers, "rollout + replay + step seconds == total seconds");
  return ph;
}

}  // namespace

Result run_train_dag50(const Options& opt) {
  Result result;
  const JobFamily family = dag50_family();
  const std::string policy_path = opt.out_dir + "/policy.dpol";
  const std::string trained_path = opt.out_dir + "/trained.dpol";
  std::cout << "workload " << opt.workload << ": ReinforceTrainer, "
            << timed_iterations(opt)
            << " timed iterations of 4 episodes"
            << ", rollout_threads " << kRolloutThreads
            << ", curriculum off; episodes of " << family.describe << "\n";

  std::vector<double> setups;
  Trainee t;
  decima::rl::IterationStats warm;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    t.trainer.reset();  // the trainer borrows the agent: it goes first
    t.agent.reset();
    const auto t0 = Clock::now();
    t = set_up(family, opt, kRolloutThreads, policy_path, result, &warm);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  if (!t.agent) return result;
  result.check(std::isfinite(warm.grad_norm) && timers_add_up(warm) &&
                   params_finite(t.agent->params()),
               "warm-up iteration is healthy");

  const int iterations = timed_iterations(opt);
  const Phase a = timed_phase(t, iterations, result);
  const double rss = peak_rss_mb();

  // Thread-count determinism: the same seed at rollout_threads 1 reaches
  // byte-equal parameters after the first timed iteration.
  {
    decima::rl::IterationStats warm1;
    Trainee ref = set_up(family, opt, 1, opt.out_dir + "/policy-t1.dpol",
                         result, &warm1);
    if (ref.trainer) ref.trainer->iterate();
    result.check(ref.agent && byte_equal(param_values(ref.agent->params()),
                                         a.first_params),
                 "rollout_threads 2 and 1 reach byte-equal parameters");
  }

  if (!opt.trace) {
    result.check(decima::io::save_policy(*t.agent, trained_path),
                 "io::save_policy writes the trained policy");
    served_evaluation(family, trained_path, mix(opt.seed, kHeldOut),
                      /*traced=*/false, result);
    std::vector<double> iter_us;
    for (double w : a.wall_s) iter_us.push_back(w * 1e6);
    result.metric("latency_p50_us", median(iter_us), "us");
    result.metric("actions_per_s", a.actions_per_s(), "1/s");
    result.metric("cpu_us_per_action", a.cpu_us_per_action(), "us");
    result.metric("setup_s", median(setups), "s");
    result.metric("peak_rss_mb", rss, "MB");
    return result;
  }

  // Traced run: more iterations with the program's obs layer and the
  // benchmark's spans on; the held-out evaluation is served with them on
  // too, then the offline layer probes run on the trained policy and the
  // evaluation's episodes.
  start_tracing();
  const Phase b = timed_phase(t, iterations, result);
  decima::obs::set_enabled(false);
  record_rl_metrics(a.stats, kRolloutThreads, result);

  result.check(decima::io::save_policy(*t.agent, trained_path),
               "io::save_policy writes the trained policy");
  const ServedSample served = served_evaluation(
      family, trained_path, mix(opt.seed, kHeldOut), /*traced=*/true, result);
  const double decide_us = run_layer_probes(
      family, served.episode_seeds, trained_path, opt.out_dir, result);
  result.metric("serve.handoff_us", served.p50_us - decide_us, "us");
  // Per action, not per iteration: the policy trains on between the two
  // phases, which changes how many actions an iteration takes.
  result.metric("obs.trace_overhead", a.actions_per_s() / b.actions_per_s(),
                "ratio");
  return result;
}

}  // namespace perfbench
