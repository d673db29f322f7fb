// The benchmark's three workloads and the per-layer probes they share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "rl/reinforce.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // checkpoints and the Chrome trace go here
};

// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 5;
// Episodes of fixed inputs each session runs to warm up during set-up.
inline constexpr int kWarmupEpisodes = 2;

// Closed-loop serving: sessions on one default-config PolicyServer.
Result run_serve_tpch(const Options& opt);
// ReinforceTrainer iterations on the 50-stage DAG family.
Result run_train_dag50(const Options& opt);

// Turns on the program's obs metrics and tracing (from a reset registry) and
// the benchmark's spans, for the traced phase of a traced run.
void start_tracing();

// Served episodes and the p50 decision latency (us) the sessions saw on
// them: serve.handoff_us subtracts core.decide_us, probed offline on the
// same episodes, from it.
struct ServedSample {
  std::vector<std::uint64_t> episode_seeds;
  double p50_us = 0.0;
};

// Greedy evaluation of the policy at `policy_path`, served: kEvalSessions
// sessions on one server, one episode each (inputs seeded by `seed`), with
// the serving checks. With `traced`, the program's obs layer is on and the
// serve.*, gnn.cache_* and sim.* per-layer metrics are recorded. Returns the
// evaluation's episodes and their p50 decision latency.
inline constexpr int kEvalSessions = 2;
ServedSample served_evaluation(const JobFamily& family,
                               const std::string& policy_path,
                               std::uint64_t seed, bool traced,
                               Result& result);

// --- Per-layer probes (probes.cpp) -------------------------------------------
// Offline, single-thread measurements around the public functions of each
// layer: core.*, gnn.* (featurize / embed) and sim.decisions on the decision
// states of the greedy policy's episodes of `family` with `episode_seeds`;
// nn.* on the model's shapes and a chunk of those states; io.*. Returns the
// p50 of DecimaAgent::decide in microseconds (core.decide_us).
double run_layer_probes(const JobFamily& family,
                        const std::vector<std::uint64_t>& episode_seeds,
                        const std::string& policy_path,
                        const std::string& out_dir, Result& result);

// The training configuration of the benchmark (4 episodes per iteration,
// curriculum off) for `family`, with inputs seeded by `seed`.
decima::rl::TrainConfig train_config(const JobFamily& family,
                                     std::uint64_t seed, int rollout_threads);
// rl.* per-layer metrics: per-iteration medians of the IterationStats phase
// timers and pool busy shares.
void record_rl_metrics(const std::vector<decima::rl::IterationStats>& iters,
                       int rollout_threads, Result& result);
// rl.* on a serving workload's job family: a short training run (one
// warm-up iteration, then two measured).
void run_training_probe(const JobFamily& family, std::uint64_t seed,
                        Result& result);

// Every parameter value finite.
bool params_finite(const decima::nn::ParamSet& params);

}  // namespace perfbench
