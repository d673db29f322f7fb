// Shared pieces of the Decima benchmark: clocks and statistics, process
// resource readings, the run's result record (checks, operation counts,
// metrics), and the benchmark's own span recorder for traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/cluster_env.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

// Latency samples in constant memory: log-spaced buckets 0.2% wide from
// 0.1 us to 1000 s, with linear interpolation inside a bucket, so a
// percentile is resolved to 0.2% however many samples a run takes (and the
// run's memory does not grow with its throughput).
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add(double us);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  // p in [0, 100]; 0 when empty.
  double percentile(double p) const;

 private:
  std::vector<std::uint32_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

// Peak resident set of this process so far (VmHWM), in MB.
double peak_rss_mb();
// User + system CPU seconds of this process so far (all threads).
double process_cpu_seconds();

// Deterministic 64-bit mixing of two seeds (splitmix64 finalizer).
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

// FNV-1a over every field of every record, plus the record count: two task
// traces hash equal iff they are equal byte for byte (up to 64-bit collision).
struct TraceDigest {
  std::uint64_t hash = 0;
  std::size_t records = 0;
  bool operator==(const TraceDigest& o) const {
    return hash == o.hash && records == o.records;
  }
};
TraceDigest digest(const std::vector<decima::sim::TaskRecord>& trace);

// Everything one run reports: correctness checks, operations attempted and
// failed by kind, and metrics by name in insertion order.
class Result {
 public:
  void check(bool ok, const std::string& what);
  bool correct() const { return errors_.empty(); }

  void count(const std::string& kind, std::uint64_t attempted,
             std::uint64_t failed);
  std::uint64_t attempted() const;
  std::uint64_t failed() const;

  void metric(const std::string& name, double value, const std::string& unit);

  // Human-readable lines (operations by kind, metrics) and, last, the JSON
  // result line.
  void print() const;

 private:
  std::vector<std::string> errors_;
  std::vector<std::pair<std::string, std::pair<std::uint64_t, std::uint64_t>>>
      ops_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

// --- The benchmark's own spans (traced runs only) ---------------------------
// A span has a name, a start and an end, the span open on the same thread
// when it began (its parent), and an id shared by every span of one request
// (a decision's id is built from its session and its index). Spans stay in
// per-thread memory and are written out when the run ends; recording is off
// unless enabled, and a disabled ScopedSpan reads no clock.
namespace spans {

void set_enabled(bool on);

class Scoped {
 public:
  // id 0 inherits the parent's id.
  explicit Scoped(const char* name, std::uint64_t id = 0);
  ~Scoped();
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  bool armed_ = false;
};

struct LayerRow {
  std::string name;
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;  // span time not covered by its child spans
  double p50_us = 0.0;
};
// Per span name: count, total, self (= span − direct children) and p50.
std::vector<LayerRow> layer_table();
std::uint64_t dropped();
// Writes one Chrome trace: the benchmark's spans (args: id, parent) merged
// with the program's own obs::Tracer events. False on I/O error.
bool write_chrome_trace(const std::string& path);

}  // namespace spans

}  // namespace perfbench
