// The inputs of the benchmark's workloads, all generated from seeds: two job
// families (TPC-H-like queries with Poisson arrivals; batches of random
// 50-stage DAGs), the cluster each runs on, and the policy under test.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/agent.h"
#include "sim/cluster_env.h"
#include "workload/arrivals.h"

namespace perfbench {

struct JobFamily {
  decima::sim::EnvConfig env;
  // One episode's arriving jobs; the same seed gives the same jobs.
  std::function<std::vector<decima::workload::ArrivingJob>(std::uint64_t)>
      episode;
  std::string describe;  // one line for the README and the run header
};

// TPC-H-like: kTpchJobs queries (random query and scale), Poisson arrivals
// with mean interarrival kTpchIat seconds, on kTpchExecutors executors.
inline constexpr int kTpchJobs = 8;
inline constexpr double kTpchIat = 30.0;
inline constexpr int kTpchExecutors = 20;
JobFamily tpch_family();

// Random DAGs: kDagJobs jobs of kDagStages stages each (1-3 parents per
// stage, kDagTasks tasks of kDagTaskSeconds each), all arriving at t = 0, on
// kDagExecutors executors.
inline constexpr int kDagJobs = 5;
inline constexpr int kDagStages = 50;
inline constexpr int kDagTasks = 2;
inline constexpr double kDagTaskSeconds = 1.0;
inline constexpr int kDagExecutors = 10;
JobFamily dag50_family();

// The policy under test: a freshly initialized agent with a fixed seed (the
// same weights on every run), exported and loaded through src/io.
decima::core::AgentConfig policy_config();

// Seed of episode `episode` of session `session` in a run seeded `seed`.
std::uint64_t episode_seed(std::uint64_t seed, int session, int episode);
// Warm-up inputs do not depend on the run's seed: set-up is fixed work.
inline constexpr std::uint64_t kWarmupSeed = 0x5EED0F5E7ull;

decima::sim::ClusterEnv make_env(
    const JobFamily& family,
    const std::vector<decima::workload::ArrivingJob>& jobs);

}  // namespace perfbench
