#include "inputs.h"

#include <cstdio>
#include <utility>

#include "common.h"
#include "gnn/features.h"
#include "sim/job.h"
#include "util/rng.h"
#include "workload/tpch.h"

namespace perfbench {

using decima::Rng;
using decima::workload::ArrivingJob;

JobFamily tpch_family() {
  JobFamily f;
  f.env.num_executors = kTpchExecutors;
  f.episode = [](std::uint64_t seed) {
    Rng rng(seed);
    auto jobs = decima::workload::sample_tpch_batch(rng, kTpchJobs);
    Rng arrivals(rng.fork());
    return decima::workload::continuous(std::move(jobs), arrivals, kTpchIat);
  };
  f.describe = std::to_string(kTpchJobs) +
               " TPC-H-like jobs, Poisson arrivals (mean interarrival " +
               std::to_string(static_cast<int>(kTpchIat)) + " s), " +
               std::to_string(kTpchExecutors) + " executors";
  return f;
}

JobFamily dag50_family() {
  JobFamily f;
  f.env.num_executors = kDagExecutors;
  f.episode = [](std::uint64_t seed) {
    Rng rng(seed);
    std::vector<decima::sim::JobSpec> jobs;
    for (int i = 0; i < kDagJobs; ++i) {
      // The shape generator the GNN tests and benches use.
      const auto dag = decima::gnn::random_job_graph(rng.fork(), kDagStages);
      std::vector<std::vector<int>> parents(kDagStages);
      for (int p = 0; p < kDagStages; ++p) {
        for (int c : dag.children[static_cast<std::size_t>(p)]) {
          parents[static_cast<std::size_t>(c)].push_back(p);
        }
      }
      decima::sim::JobBuilder b("dag" + std::to_string(i));
      for (int s = 0; s < kDagStages; ++s) {
        b.stage(kDagTasks, kDagTaskSeconds,
                std::move(parents[static_cast<std::size_t>(s)]),
                /*mem_req=*/0.25);
      }
      jobs.push_back(b.build());
    }
    return decima::workload::batched(std::move(jobs));
  };
  char describe[128];
  std::snprintf(describe, sizeof(describe),
                "%d random %d-stage DAGs (%d tasks of %g s per stage) "
                "arriving at t=0, %d executors",
                kDagJobs, kDagStages, kDagTasks, kDagTaskSeconds,
                kDagExecutors);
  f.describe = describe;
  return f;
}

decima::core::AgentConfig policy_config() {
  decima::core::AgentConfig c;
  c.seed = 20190819;
  return c;
}

std::uint64_t episode_seed(std::uint64_t seed, int session, int episode) {
  return mix(mix(seed, static_cast<std::uint64_t>(session) + 1),
             static_cast<std::uint64_t>(episode) + 1);
}

decima::sim::ClusterEnv make_env(const JobFamily& family,
                                 const std::vector<ArrivingJob>& jobs) {
  decima::sim::ClusterEnv env(family.env);
  decima::workload::load(env, jobs);
  return env;
}

}  // namespace perfbench
