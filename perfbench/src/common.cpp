#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "obs/trace.h"

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {
constexpr double kHistMinUs = 0.1;
constexpr double kHistRatio = 1.002;
const double kLogRatio = std::log(kHistRatio);
constexpr std::size_t kHistBuckets = 11600;  // 0.1 us * 1.002^11600 > 1e9 us
}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kHistBuckets, 0) {}

void LatencyHistogram::add(double us) {
  const double b = us > kHistMinUs ? std::log(us / kHistMinUs) / kLogRatio : 0;
  ++buckets_[std::min(static_cast<std::size_t>(b), kHistBuckets - 1)];
  ++count_;
  sum_ += us;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kHistBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  // The (p/100 * (n-1))-th sample of the sorted list, as percentile() above
  // ranks it, placed proportionally inside its bucket.
  const double rank = p / 100.0 * static_cast<double>(count_ - 1);
  double below = 0.0;
  for (std::size_t i = 0; i < kHistBuckets; ++i) {
    const double n = buckets_[i];
    if (n > 0 && below + n > rank) {
      const double lo = kHistMinUs * std::pow(kHistRatio, static_cast<double>(i));
      return lo + lo * (kHistRatio - 1.0) * ((rank - below) / n);
    }
    below += n;
  }
  return kHistMinUs * std::pow(kHistRatio, static_cast<double>(kHistBuckets));
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

template <typename T>
void fnv(std::uint64_t& h, const T& value) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  for (unsigned char b : bytes) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
}

}  // namespace

TraceDigest digest(const std::vector<decima::sim::TaskRecord>& trace) {
  TraceDigest d;
  d.hash = 0xCBF29CE484222325ull;
  d.records = trace.size();
  for (const auto& r : trace) {
    fnv(d.hash, r.job);
    fnv(d.hash, r.stage);
    fnv(d.hash, r.task_index);
    fnv(d.hash, r.executor);
    fnv(d.hash, r.dispatched);
    fnv(d.hash, r.start);
    fnv(d.hash, r.end);
    fnv(d.hash, static_cast<unsigned char>(r.first_wave));
    fnv(d.hash, static_cast<unsigned char>(r.killed));
  }
  return d;
}

// --- Result -------------------------------------------------------------------

void Result::check(bool ok, const std::string& what) {
  if (!ok) {
    errors_.push_back(what);
    std::cout << "CHECK FAILED: " << what << "\n";
  }
}

void Result::count(const std::string& kind, std::uint64_t attempted,
                   std::uint64_t failed) {
  for (auto& [k, v] : ops_) {
    if (k == kind) {
      v.first += attempted;
      v.second += failed;
      return;
    }
  }
  ops_.push_back({kind, {attempted, failed}});
}

std::uint64_t Result::attempted() const {
  std::uint64_t n = 0;
  for (const auto& op : ops_) n += op.second.first;
  return n;
}

std::uint64_t Result::failed() const {
  std::uint64_t n = 0;
  for (const auto& op : ops_) n += op.second.second;
  return n;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  check(std::isfinite(value), name + " is finite");
  metrics_.push_back({name, {value, unit}});
}

void Result::print() const {
  for (const auto& [kind, n] : ops_) {
    std::cout << "ops " << kind << ": attempted " << n.first << ", failed "
              << n.second << "\n";
  }
  char buf[64];
  for (const auto& [name, m] : metrics_) {
    std::snprintf(buf, sizeof(buf), "%.6g", m.first);
    std::cout << "metric " << name << " = " << buf << " " << m.second << "\n";
  }
  std::ostringstream js;
  js << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted() << ", \"failed\": " << failed()
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    // All digits as measured; a non-finite reading is not valid JSON, so it
    // is written as null (metric() has marked the run incorrect).
    std::snprintf(buf, sizeof(buf), "%.17g", m.first);
    js << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << (std::isfinite(m.first) ? buf : "null") << ", \"unit\": \""
       << m.second << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

// --- Spans --------------------------------------------------------------------

namespace spans {
namespace {

struct Rec {
  const char* name = "";
  std::uint64_t id = 0;
  std::int64_t parent = -1;  // index in the same thread's buffer
  Clock::time_point t0, t1;
};

// Per-thread cap keeps a long traced run's memory and trace file bounded;
// spans past it are counted as dropped.
constexpr std::size_t kMaxSpansPerThread = 20000;

struct ThreadLog {
  int tid = 0;
  std::vector<Rec> recs;
  std::vector<std::int64_t> open;  // stack of open span indices
  std::uint64_t dropped = 0;
};

std::atomic<bool> g_enabled{false};
Clock::time_point g_epoch;
std::mutex g_logs_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_logs_mu

ThreadLog& thread_log() {
  thread_local ThreadLog* log = [] {
    std::lock_guard<std::mutex> lk(g_logs_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    g_logs.back()->tid = static_cast<int>(g_logs.size());
    g_logs.back()->recs.reserve(1024);
    return g_logs.back().get();
  }();
  return *log;
}

}  // namespace

void set_enabled(bool on) {
  if (on && g_epoch == Clock::time_point{}) {
    // Share the program tracer's time origin, so both sets of events line
    // up in one Chrome trace.
    decima::obs::Tracer::instance();
    g_epoch = Clock::now();
  }
  g_enabled.store(on, std::memory_order_relaxed);
}

Scoped::Scoped(const char* name, std::uint64_t id) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadLog& log = thread_log();
  if (log.recs.size() >= kMaxSpansPerThread) {
    ++log.dropped;
    return;
  }
  Rec r;
  r.name = name;
  r.parent = log.open.empty() ? -1 : log.open.back();
  r.id = (id == 0 && r.parent >= 0)
             ? log.recs[static_cast<std::size_t>(r.parent)].id
             : id;
  log.open.push_back(static_cast<std::int64_t>(log.recs.size()));
  log.recs.push_back(r);
  armed_ = true;
  log.recs.back().t0 = Clock::now();
}

Scoped::~Scoped() {
  if (!armed_) return;
  const auto t1 = Clock::now();
  ThreadLog& log = thread_log();
  log.recs[static_cast<std::size_t>(log.open.back())].t1 = t1;
  log.open.pop_back();
}

std::vector<LayerRow> layer_table() {
  std::lock_guard<std::mutex> lk(g_logs_mu);
  std::map<std::string, std::vector<double>> durs;
  std::map<std::string, LayerRow> rows;
  for (const auto& log : g_logs) {
    std::vector<double> child_us(log->recs.size(), 0.0);
    for (const Rec& r : log->recs) {
      if (r.parent >= 0) {
        child_us[static_cast<std::size_t>(r.parent)] += us_between(r.t0, r.t1);
      }
    }
    for (std::size_t i = 0; i < log->recs.size(); ++i) {
      const Rec& r = log->recs[i];
      const double d = us_between(r.t0, r.t1);
      LayerRow& row = rows[r.name];
      row.name = r.name;
      ++row.count;
      row.total_us += d;
      row.self_us += d - child_us[i];
      durs[r.name].push_back(d);
    }
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) {
    row.p50_us = median(durs[name]);
    out.push_back(row);
  }
  return out;
}

std::uint64_t dropped() {
  std::lock_guard<std::mutex> lk(g_logs_mu);
  std::uint64_t n = 0;
  for (const auto& log : g_logs) n += log->dropped;
  return n;
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out.precision(3);
  out << std::fixed;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
      << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"args\": {\"name\": \"decima (obs spans)\"}},\n"
      << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, "
         "\"args\": {\"name\": \"perfbench (layer spans)\"}}";
  {
    std::lock_guard<std::mutex> lk(g_logs_mu);
    for (const auto& log : g_logs) {
      for (std::size_t i = 0; i < log->recs.size(); ++i) {
        const Rec& r = log->recs[i];
        out << ",\n  {\"name\": \"" << r.name
            << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"ts\": "
            << us_between(g_epoch, r.t0)
            << ", \"dur\": " << us_between(r.t0, r.t1)
            << ", \"pid\": 2, \"tid\": " << log->tid
            << ", \"args\": {\"id\": " << r.id << ", \"parent\": " << r.parent
            << "}}";
      }
    }
  }
  // The program's own spans: splice the event array of obs::Tracer's
  // chrome_json() in after ours.
  const std::string program = decima::obs::Tracer::instance().chrome_json();
  const std::size_t open = program.find('[');
  const std::size_t close = program.rfind(']');
  if (open != std::string::npos && close != std::string::npos &&
      close > open + 1) {
    const std::string events = program.substr(open + 1, close - open - 1);
    if (events.find('{') != std::string::npos) out << "," << events;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace spans

}  // namespace perfbench
