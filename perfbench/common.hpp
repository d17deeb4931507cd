// Shared pieces of the repository benchmark: run arguments, the result a
// workload hands back, statistics, spans and the host fingerprint.
//
// A workload runs in three parts. Set-up builds its inputs from the seed
// (several times, so set-up time is a median). The timed loop repeats ops
// until the run's seconds are spent. A traced run then times each layer's
// public functions on the same inputs (layers.hpp).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "dawn/obs/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Json = dawn::obs::JsonValue;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string records_path;  // per-op deterministic records (run.py compares)
  std::string spans_path;    // Chrome trace of the benchmark's own spans
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// What a workload run hands back to main.cpp.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  Metrics metrics;                 // end-to-end (untraced) or per-layer
  Json summary = Json::object();   // the workload's own named numbers
  Json counts = Json::object();    // deterministic totals over a fixed set
  // Per-op deterministic records by stream, in op order. A run stops on a
  // clock, so two runs of one seed agree on the common prefix of each.
  std::map<std::string, std::vector<std::string>> records;

  // Records a failed reference check; the message goes to stderr.
  void fail(const std::string& what);
};

// Spans of the benchmark's own code: one per op and one per layer probe,
// kept in memory and written out once at the end of a traced run. The
// service workload's two client threads share one log.
class SpanLog {
 public:
  int begin(const std::string& name, int parent = -1);
  void end(int id);
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    std::size_t thread = 0;
    Clock::time_point start;
    Clock::time_point stop;
  };
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// RAII span; a null log records nothing (untraced runs).
class SpanScope {
 public:
  SpanScope(SpanLog* log, const std::string& name, int parent = -1)
      : log_(log), id_(log != nullptr ? log->begin(name, parent) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// {"name": {"value": v, "unit": u}, ...}, the result line's metrics shape.
Json metrics_json(const Metrics& metrics);

// Median (mean of the middle pair for even sizes); 0 for an empty sample.
double median(std::vector<double> v);

// Nearest-rank quantile q in (0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

// Sets the five end-to-end metrics (and fail_frac in the summary). The
// unit of work and the op are the workload's own: configs and decide(),
// lane-steps and a battery, replies and a round trip.
void set_end_to_end(RunResult& result, double setup_s, double work_per_s,
                    double op_ms_p50, double op_ms_tail);

// nproc, SIMD tier, build type, DAWN_OBS and last-level cache size.
Json host_fingerprint();

// Runs `build` several times and returns the last result with the median
// wall time of the builds, so set-up time is a median: at least 3 times,
// and more (up to 15) until a second of set-up has been timed, because a
// short set-up needs more samples to steady its median. Each earlier
// result is torn down before the next build's clock starts.
template <typename T>
T timed_setup(const std::function<T()>& build, double* median_s) {
  std::vector<double> times;
  double total = 0.0;
  T out{};
  while (times.size() < 3 || (total < 1.0 && times.size() < 15)) {
    out = T{};
    const auto t0 = Clock::now();
    T next = build();
    times.push_back(seconds_since(t0));
    total += times.back();
    out = std::move(next);
  }
  *median_s = median(times);
  return out;
}

// The workloads (one file each) and the layer probes' self-test.
RunResult run_explore(const Args& args, bool compiled);
RunResult run_trials(const Args& args);
RunResult run_service(const Args& args);
int run_selftest();

}  // namespace perfbench
