// perfbench: the Decima benchmark binary. Runs one workload for a fixed time
// and prints its metrics; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload serve_tpch|train_dag50
//             --seed N --seconds S --trace 0|1 --out-dir DIR
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics, prints the per-layer span table and writes a Chrome trace to
// DIR/trace-<workload>-<seed>.json. perfbench/run.py builds and runs this.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload serve_tpch|train_dag50 --seed N"
               " --seconds S --trace 0|1 --out-dir DIR\n";
  return 2;
}

void print_span_table() {
  std::cout << "\nper-layer spans (self = span minus its child spans)\n";
  std::printf("%-20s %10s %14s %14s %12s\n", "span", "count", "total_ms",
              "self_ms", "p50_us");
  for (const auto& row : perfbench::spans::layer_table()) {
    std::printf("%-20s %10llu %14.3f %14.3f %12.3f\n", row.name.c_str(),
                static_cast<unsigned long long>(row.count),
                row.total_us / 1e3, row.self_us / 1e3, row.p50_us);
  }
  std::printf("spans dropped past the per-thread cap: %llu\n",
              static_cast<unsigned long long>(perfbench::spans::dropped()));
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes a whole number");
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) {
        return usage("--seconds takes a positive number");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
      opt.trace = val == "1";
    } else if (key == "--out-dir") {
      opt.out_dir = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  if (!have_seed || opt.out_dir.empty()) {
    return usage("--seed and --out-dir are required");
  }

  perfbench::Result result;
  if (opt.workload == "serve_tpch") {
    result = perfbench::run_serve_tpch(opt);
  } else if (opt.workload == "train_dag50") {
    result = perfbench::run_train_dag50(opt);
  } else {
    return usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  if (opt.trace) {
    print_span_table();
    const std::string path = opt.out_dir + "/trace-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    result.check(perfbench::spans::write_chrome_trace(path),
                 "Chrome trace written to " + path);
    std::cout << "chrome trace: " << path << "\n";
  }
  result.print();
  return 0;
}
