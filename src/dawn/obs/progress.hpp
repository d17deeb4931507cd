// Live progress: lock-free counters the engines bump, and a sampler thread
// that turns them into heartbeat records.
//
// A long decide() used to be a black box until it returned. ExploreProgress
// is a bag of relaxed atomics — configs interned, BFS level, frontier size,
// deadline remaining, per-shard occupancy — updated by the exploration
// workers at level boundaries (plus one relaxed increment per fresh
// configuration for the shard histogram). ProgressReporter is a sampler
// thread that snapshots those atomics every interval_ms and emits one
// JSONL heartbeat record (and an optional stderr one-liner) per tick.
//
// Hard guarantee — heartbeats never perturb decisions:
//  * the sampler only LOADS atomics; it never touches engine state, takes
//    no engine lock, and the engines never wait on it;
//  * the engine-side hooks are a null-check plus relaxed stores, executed
//    identically whether a sampler is attached or not (the hooks fire when
//    an ExploreProgress is installed, the sampler merely reads it);
//  * everything a DecisionReport contains is computed independently of this
//    header, so reports are bit-identical with heartbeats on or off — at
//    any thread count (pinned by tests/test_telemetry.cpp);
//  * off by default; -DDAWN_OBS_DISABLED compiles the hooks out and turns
//    start() into a no-op.
//
// Heartbeat record schema (one JSON object per line):
//   {"type": "heartbeat", "seq": k, "t_ms": <since start()>,
//    "configs": n, "configs_per_sec": r, "edges": e, "level": l,
//    "frontier": f, "deadline_ms_remaining": d,   // -1 = no deadline
//    "shard_nonzero": z, "shard_min": a, "shard_max": b,
//    "shards": [64 occupancies]}
// Timestamps and rates are wall-clock: OUTSIDE the determinism contract.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dawn/obs/json.hpp"

namespace dawn::obs {

// Counters for one exploration (or any long-running engine phase). All
// loads/stores are relaxed: a heartbeat is a statistical snapshot, not a
// synchronisation point.
struct ExploreProgress {
  // Matches the stores' shard count (PackedStore::kNumShards).
  static constexpr std::size_t kNumShards = 64;

  std::atomic<std::uint64_t> configs{0};
  std::atomic<std::uint64_t> edges{0};
  std::atomic<std::uint64_t> level{0};
  std::atomic<std::uint64_t> frontier{0};
  // Milliseconds until the budget deadline; -1 = no deadline set.
  std::atomic<std::int64_t> deadline_ms_remaining{-1};
  // Fresh-intern counts per store shard (gid & 63), bumped by workers.
  std::array<std::atomic<std::uint64_t>, kNumShards> shard_sizes{};

  void reset() {
    configs.store(0, std::memory_order_relaxed);
    edges.store(0, std::memory_order_relaxed);
    level.store(0, std::memory_order_relaxed);
    frontier.store(0, std::memory_order_relaxed);
    deadline_ms_remaining.store(-1, std::memory_order_relaxed);
    for (auto& s : shard_sizes) s.store(0, std::memory_order_relaxed);
  }
};

// The sampler. Construct it over an ExploreProgress, start() it, run the
// workload, stop() it. Records accumulate in memory (records()) and, when
// jsonl_path is set, stream to that file one object per line.
class ProgressReporter {
 public:
  struct Options {
    std::uint64_t interval_ms = 500;
    bool stderr_line = false;    // human one-liner per tick on stderr
    std::string jsonl_path;      // empty = in-memory records only
  };

  ProgressReporter(const ExploreProgress& progress, Options options);
  ~ProgressReporter();  // stops if still running

  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  // Launches the sampler thread. No-op if already running, and a no-op
  // under -DDAWN_OBS_DISABLED (the engines emit nothing to sample).
  void start();

  // Joins the sampler and takes one final snapshot, so a completed run
  // always has at least one heartbeat even if it beat the first interval.
  void stop();

  bool running() const { return running_; }

  // Valid after stop() (the sampler appends concurrently while running).
  const std::vector<JsonValue>& records() const { return records_; }

  // True if the JSONL stream hit an I/O error.
  bool write_failed() const { return write_failed_; }

 private:
  void sampler_main();
  void sample();

  const ExploreProgress& progress_;
  Options options_;

  std::thread sampler_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool running_ = false;

  std::chrono::steady_clock::time_point start_time_;
  std::uint64_t seq_ = 0;
  std::uint64_t last_configs_ = 0;
  std::chrono::steady_clock::time_point last_sample_time_;

  std::vector<JsonValue> records_;
  std::ofstream jsonl_;
  bool write_failed_ = false;
};

#ifndef DAWN_OBS_DISABLED

namespace detail {
// The current thread's ambient progress sink; null = disabled (the
// default). Installed via obs::TelemetryScope (telemetry.hpp).
inline thread_local ExploreProgress* t_progress = nullptr;
}  // namespace detail

inline ExploreProgress* progress() { return detail::t_progress; }

#else

inline ExploreProgress* progress() { return nullptr; }

#endif  // DAWN_OBS_DISABLED

}  // namespace dawn::obs
