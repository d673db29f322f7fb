// Per-layer probes: each layer is timed from outside, around calls into its
// public functions, on decision states of the workload's own inputs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <set>
#include <utility>

#include "gnn/features.h"
#include "gnn/graph_embedding.h"
#include "io/checkpoint.h"
#include "nn/adam.h"
#include "nn/tape.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using decima::gnn::JobGraph;
namespace sim = decima::sim;
namespace nn = decima::nn;

bool params_finite(const nn::ParamSet& params) {
  for (const nn::Param* p : params.params()) {
    for (double v : p->value.raw()) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

namespace {

// Measured iterations of the training probe (after one warm-up).
constexpr int kProbeTrainIters = 2;
// Events in the tape probe's chunk (AgentConfig::replay_batch's default).
constexpr std::size_t kChunkEvents = 8;
// The chunk starts at this decision of the first probe episode (or is the
// episode's last kChunkEvents states, when it is shorter).
constexpr std::size_t kChunkStart = 32;

// Drives one offline greedy episode; at every decision state it times, in
// turn, DecimaAgent::decide (with its own embedding cache), gnn::
// extract_graphs, and GraphEmbedding::embed_cached on those graphs (with a
// second cache that sees the same state sequence). The agent's answer is the
// action taken, so the states are exactly the agent's.
class ProbeScheduler : public sim::Scheduler {
 public:
  ProbeScheduler(const decima::core::DecimaAgent& agent,
                 const decima::gnn::GraphEmbedding& gnn,
                 std::uint64_t gnn_version)
      : agent_(agent), gnn_(gnn), gnn_version_(gnn_version) {}

  sim::Action schedule(const sim::ClusterEnv& env) override {
    const std::uint64_t id = (std::uint64_t{0xFFFF} << 32) | decisions_;
    spans::Scoped state("probe.state", id);
    ++decisions_;
    Clock::time_point t0 = Clock::now();
    sim::Action a;
    {
      spans::Scoped sp("core.decide");
      a = agent_.decide(env, &decide_cache_);
    }
    Clock::time_point t1 = Clock::now();
    decide_us.push_back(us_between(t0, t1));

    std::vector<JobGraph> graphs;
    {
      spans::Scoped sp("gnn.featurize");
      t0 = Clock::now();
      graphs = decima::gnn::extract_graphs(env, agent_.config().features);
      t1 = Clock::now();
    }
    featurize_us.push_back(us_between(t0, t1));

    if (!graphs.empty()) {
      spans::Scoped sp("gnn.embed");
      t0 = Clock::now();
      nn::Tape tape(false);
      embed_cache_.ensure_param_version(gnn_version_);
      gnn_.embed_cached(tape, graphs, embed_cache_);
      t1 = Clock::now();
      embed_us.push_back(us_between(t0, t1));
    }

    if (capture) {
      recent_.push_back(std::move(graphs));
      if (recent_.size() > kChunkEvents) recent_.pop_front();
      if (decisions_ == kChunkStart + kChunkEvents) take_chunk();
    }
    return a;
  }
  std::string name() const override { return "probe"; }

  // Freezes the last kChunkEvents states as the tape probe's chunk.
  void take_chunk() {
    chunk.assign(recent_.begin(), recent_.end());
    capture = false;
  }

  std::vector<double> decide_us, featurize_us, embed_us;
  bool capture = true;
  std::vector<std::vector<JobGraph>> chunk;  // graphs of kChunkEvents states
  std::size_t decisions() const { return decisions_; }

 private:
  const decima::core::DecimaAgent& agent_;
  const decima::gnn::GraphEmbedding& gnn_;
  std::uint64_t gnn_version_;
  decima::gnn::EmbeddingCache decide_cache_;
  decima::gnn::EmbeddingCache embed_cache_;
  std::deque<std::vector<JobGraph>> recent_;
  std::size_t decisions_ = 0;
};

// Median seconds per call of fn over `reps` batches, each batch long enough
// (at least ~2 ms) for the clock to resolve it.
template <typename Fn>
double seconds_per_call(Fn&& fn, int reps = 5) {
  int inner = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (int i = 0; i < inner; ++i) fn();
    if (seconds_between(t0, Clock::now()) > 2e-3 || inner >= (1 << 20)) break;
    inner *= 2;
  }
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < inner; ++i) fn();
    s.push_back(seconds_between(t0, Clock::now()) / inner);
  }
  return median(s);
}

nn::Matrix random_matrix(decima::Rng& rng, std::size_t r, std::size_t c) {
  nn::Matrix m(r, c);
  for (double& v : m.raw()) v = rng.uniform(-1.0, 1.0);
  return m;
}

// GFLOP/s of the three Matrix kernels at the model's layer shapes (every
// distinct k x n weight of the GNN) and at two row counts: one DAG level and
// one replay chunk.
void kernel_probe(const nn::ParamSet& gnn_params, std::size_t level_rows,
                  std::size_t chunk_rows, Result& result) {
  std::set<std::pair<std::size_t, std::size_t>> shapes;
  for (const nn::Param* p : gnn_params.params()) {
    if (p->value.rows() > 1) shapes.insert({p->value.rows(), p->value.cols()});
  }
  decima::Rng rng(99);
  double flops = 0.0, t_mm = 0.0, t_mta = 0.0, t_tma = 0.0;
  for (std::size_t rows : {level_rows, chunk_rows}) {
    for (const auto& [k, n] : shapes) {
      const nn::Matrix x = random_matrix(rng, rows, k);
      const nn::Matrix w = random_matrix(rng, k, n);
      const nn::Matrix dy = random_matrix(rng, rows, n);
      nn::Matrix dx(rows, k), dw(k, n);
      nn::Matrix y;
      flops += 2.0 * static_cast<double>(rows * k * n);
      // y = x·w (forward), dx += dy·wᵀ and dw += xᵀ·dy (backward).
      t_mm += seconds_per_call([&] { y = x.matmul(w); });
      t_mta += seconds_per_call([&] { dy.matmul_transposed_acc(w, dx); });
      t_tma += seconds_per_call([&] { x.transposed_matmul_acc(dy, dw); });
    }
  }
  result.metric("nn.matmul_gflops", flops / t_mm * 1e-9, "GFLOP/s");
  result.metric("nn.matmul_transposed_acc_gflops", flops / t_mta * 1e-9,
                "GFLOP/s");
  result.metric("nn.transposed_matmul_acc_gflops", flops / t_tma * 1e-9,
                "GFLOP/s");
}

// Tape::backward over an episode-batched GNN tape of one chunk of states.
void tape_probe(const decima::gnn::GraphEmbedding& gnn,
                const std::vector<std::vector<JobGraph>>& chunk,
                Result& result) {
  std::vector<const JobGraph*> graphs;
  std::vector<std::size_t> event_of_graph;
  for (std::size_t e = 0; e < chunk.size(); ++e) {
    for (const JobGraph& g : chunk[e]) {
      graphs.push_back(&g);
      event_of_graph.push_back(e);
    }
  }
  std::vector<double> backward_us;
  std::size_t nodes = 0;
  for (int rep = 0; rep < 21; ++rep) {
    nn::Tape tape(true);
    const auto emb =
        gnn.embed_episode(tape, graphs, event_of_graph, chunk.size());
    // A scalar that depends on every node, job and global embedding.
    const std::size_t d = tape.value(emb.global_mat).cols();
    const nn::Var ones = tape.constant(nn::Matrix(d, 1, 1.0));
    const nn::Var loss = tape.addn(
        {tape.matmul(tape.sum_rows(emb.node_all), ones),
         tape.matmul(tape.sum_rows(emb.job_mat), ones),
         tape.matmul(tape.sum_rows(emb.global_mat), ones)});
    nodes = tape.num_nodes();
    spans::Scoped sp("nn.tape_backward");
    const auto t0 = Clock::now();
    tape.backward(loss);
    backward_us.push_back(us_between(t0, Clock::now()));
  }
  result.metric("nn.tape_backward_us", median(backward_us), "us");
  result.metric("nn.tape_nodes", static_cast<double>(nodes), "count");
}

}  // namespace

double run_layer_probes(const JobFamily& family,
                        const std::vector<std::uint64_t>& episode_seeds,
                        const std::string& policy_path,
                        const std::string& out_dir, Result& result) {
  // --- io: the checkpoint writer and reader --------------------------------
  auto agent = decima::io::load_policy_agent(policy_path);
  result.check(agent != nullptr, "probe: policy checkpoint loads");
  if (!agent) return 0.0;
  const std::string probe_path = out_dir + "/probe.dpol";
  std::vector<double> save_us, load_us;
  for (int i = 0; i < 15; ++i) {
    spans::Scoped sp("io.save_policy");
    const auto t0 = Clock::now();
    const bool ok = decima::io::save_policy(*agent, probe_path);
    save_us.push_back(us_between(t0, Clock::now()));
    result.check(ok, "probe: io::save_policy");
  }
  for (int i = 0; i < 15; ++i) {
    spans::Scoped sp("io.load_policy");
    const auto t0 = Clock::now();
    const auto loaded = decima::io::load_policy_agent(probe_path);
    load_us.push_back(us_between(t0, Clock::now()));
    result.check(loaded != nullptr, "probe: io::load_policy_agent");
  }

  // --- core / gnn: decisions of whole offline greedy episodes ---------------
  decima::gnn::GnnConfig gcfg;
  gcfg.feat_dim = agent->config().features.dim();
  gcfg.emb_dim = agent->config().emb_dim;
  gcfg.two_level_aggregation = agent->config().two_level_aggregation;
  decima::Rng init(agent->config().seed);
  decima::gnn::GraphEmbedding gnn(gcfg, init);
  const nn::ParamSet gnn_params = gnn.param_set();

  ProbeScheduler probe(*agent, gnn, gnn_params.version());
  for (const std::uint64_t seed : episode_seeds) {
    sim::ClusterEnv env = make_env(family, family.episode(seed));
    env.run(probe);
    result.check(env.all_done(), "probe: offline episode completes");
    if (probe.capture) probe.take_chunk();
  }
  const double decide = median(probe.decide_us);
  const double featurize = median(probe.featurize_us);
  const double embed = median(probe.embed_us);
  result.metric("core.decide_us", decide, "us");
  result.metric("core.heads_us", decide - featurize - embed, "us");
  result.metric("gnn.featurize_us", featurize, "us");
  result.metric("gnn.embed_us", embed, "us");

  // --- nn: kernels at the model's shapes, tape backward, Adam ---------------
  std::vector<double> level_sizes;
  std::size_t chunk_rows = 0;
  for (const auto& graphs : probe.chunk) {
    for (const JobGraph& g : graphs) {
      chunk_rows += g.features.rows();
      for (const auto& level : decima::gnn::detail::levelize(g)) {
        level_sizes.push_back(static_cast<double>(level.size()));
      }
    }
  }
  const auto level_rows =
      static_cast<std::size_t>(std::max(1.0, std::round(median(level_sizes))));
  kernel_probe(gnn_params, level_rows, std::max<std::size_t>(chunk_rows, 1),
               result);
  tape_probe(gnn, probe.chunk, result);

  auto trainee = agent->clone();
  decima::Rng grad_rng(7);
  for (nn::Param* p : trainee->params().params()) {
    for (double& g : p->grad.raw()) g = grad_rng.uniform(-1e-3, 1e-3);
  }
  nn::Adam adam(&trainee->params());
  std::vector<double> adam_us;
  for (int i = 0; i < 201; ++i) {
    spans::Scoped sp("nn.adam_step");
    const auto t0 = Clock::now();
    adam.step();
    adam_us.push_back(us_between(t0, Clock::now()));
  }
  result.metric("nn.adam_step_us", median(adam_us), "us");

  result.metric("sim.decisions", static_cast<double>(probe.decisions()),
                "count");
  result.metric("io.load_policy_us", median(load_us), "us");
  result.metric("io.save_policy_us", median(save_us), "us");
  std::remove(probe_path.c_str());
  return decide;
}

decima::rl::TrainConfig train_config(const JobFamily& family,
                                     std::uint64_t seed, int rollout_threads) {
  decima::rl::TrainConfig t;
  t.episodes_per_iter = 4;
  t.rollout_threads = rollout_threads;
  t.curriculum = false;
  t.env = family.env;
  t.seed = mix(seed, 0x7121);
  const auto make = family.episode;
  t.sampler = [make, seed](std::uint64_t s) { return make(mix(seed, s)); };
  return t;
}

void record_rl_metrics(const std::vector<decima::rl::IterationStats>& iters,
                       int rollout_threads, Result& result) {
  std::vector<double> rollout, replay, step, rollout_busy, replay_busy;
  for (const auto& s : iters) {
    rollout.push_back(s.rollout_seconds);
    replay.push_back(s.replay_seconds);
    step.push_back(s.step_seconds);
    rollout_busy.push_back(s.rollout_cpu_seconds /
                           (rollout_threads * s.rollout_seconds));
    replay_busy.push_back(s.replay_cpu_seconds /
                          (rollout_threads * s.replay_seconds));
  }
  result.metric("rl.rollout_s", median(rollout), "s");
  result.metric("rl.replay_s", median(replay), "s");
  result.metric("rl.step_s", median(step), "s");
  result.metric("rl.rollout_pool_busy", median(rollout_busy), "ratio");
  result.metric("rl.replay_pool_busy", median(replay_busy), "ratio");
}

void run_training_probe(const JobFamily& family, std::uint64_t seed,
                        Result& result) {
  decima::core::DecimaAgent agent(policy_config());
  decima::rl::ReinforceTrainer trainer(agent, train_config(family, seed, 2));
  trainer.iterate();  // warm-up
  std::vector<decima::rl::IterationStats> iters;
  for (int i = 0; i < kProbeTrainIters; ++i) {
    spans::Scoped sp("rl.iterate");
    iters.push_back(trainer.iterate());
  }
  result.check(params_finite(agent.params()), "training probe: finite params");
  record_rl_metrics(iters, 2, result);
}

}  // namespace perfbench
