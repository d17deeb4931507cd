// Metrics registry: named counters, gauges, and histogram-style timers,
// thread-local on the hot path.
//
// Design constraints (docs/OBSERVABILITY.md):
//
//  * Zero cost when disabled. No sink is installed by default; every
//    instrumentation point is a thread-local load + branch, and the whole
//    layer compiles away under -DDAWN_OBS_DISABLED. The step engines keep
//    their own plain member counters (see automata/run.hpp) and the driver
//    harvests them once per run, so the per-step inner loops carry NO
//    metrics code at all.
//  * Deterministic aggregation. Counters merge by addition and gauges by
//    max, in trial order, so the parallel trial runner's merged metrics are
//    bit-identical for every thread count. Timers record wall-clock
//    nanoseconds and are explicitly OUTSIDE the determinism contract.
//  * No locks, no allocation. Metrics are fixed enum-indexed arrays; a trial
//    owns its RunMetrics and the runner merges after the joins.
//
// Usage:
//   obs::RunMetrics m;
//   {
//     obs::MetricsScope scope(m);          // installs the thread-local sink
//     ... instrumented code runs ...       // obs::count(...) lands in m
//   }
//   m.to_json();                           // named snapshot for the exporter
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

namespace dawn::obs {

class JsonValue;

// Monotonic event counts. Merge: addition.
enum class Counter : std::uint16_t {
  SimRuns,               // simulate() invocations
  SimSteps,              // scheduler steps driven
  SimActivations,        // node activations (sum of selection sizes)
  SimCommits,            // node state writes that changed a state
  SimConverged,          // runs that hit the stable-window criterion
  ConsensusEstablished,  // Neutral -> uniform verdict transitions
  ConsensusLost,         // uniform verdict lost after being established
  SchedGreedyWasted,     // greedy adversary: silent selections found
  SchedGreedyForcedSweeps,  // greedy adversary: fairness sweeps started
  SchedPermutationShuffles, // permutation scheduler: fresh sweep orders
  InternerInserts,       // lazily-interned states created (all layers)
  OverlaySteps,          // abstract broadcast overlay: neighbourhood steps
  OverlayBroadcasts,     // abstract broadcast overlay: broadcast rounds
  AbsenceSuperSteps,     // abstract absence semantics: super-steps
  AbsenceHangs,          // absence super-steps that hung (no initiator)
  PopulationSteps,       // population protocol: pair interactions
  TraceEventsDropped,    // trace log events beyond capacity
  ExploreConfigs,        // explicit exploration: configurations interned
  ExploreEdges,          // explicit exploration: transitions generated
  ExploreLevels,         // explicit exploration: BFS levels (frontier waves)
  ExploreSteals,         // explicit exploration: cross-worker chunk claims;
                         // scheduling-dependent, excluded from determinism
  ExploreSpillEvents,    // tiered store: level-boundary spill passes
  ExploreSpillBytes,     // tiered store: bytes written to spill files
                         // (arena + frontier levels + edge spool)
  NetConnections,        // dawnd: connections accepted
  NetRequests,           // dawnd: request frames handled (all actions)
  NetErrors,             // dawnd: error frames sent
  NetCacheHits,          // dawnd: Decide requests served from the result cache
  kCount,
};

// Level snapshots. Merge: maximum.
enum class Gauge : std::uint16_t {
  MaxSelectionSize,      // largest selection a run applied
  CensusDistinctStates,  // census snapshot: distinct machine states
  CensusDistinctConfigs, // census snapshot: distinct configurations
  InternerPeakStates,    // largest single interner observed
  ExploreShardPeak,      // explicit exploration: largest store shard
  ExploreFrontierPeak,   // explicit exploration: largest BFS frontier
  ExploreThreads,        // explicit exploration: workers actually used
  ExploreStoreBytes,     // explicit exploration: config-store occupancy
  ExploreResidentBytes,  // tiered exploration: resident footprint at finalize
  NetInflightPeak,       // dawnd: most jobs queued or running at once
  kCount,
};

// Wall-clock stage timings (RAII Stopwatch). Merge: count/total add, max max.
// NOT part of the determinism contract.
enum class Timer : std::uint16_t {
  AbsenceSuperStep,   // one abstract absence super-step
  OverlayBroadcast,   // one abstract broadcast round
  kCount,
};

inline constexpr std::size_t kNumCounters = static_cast<std::size_t>(Counter::kCount);
inline constexpr std::size_t kNumGauges = static_cast<std::size_t>(Gauge::kCount);
inline constexpr std::size_t kNumTimers = static_cast<std::size_t>(Timer::kCount);

// Registry names, stable across PRs (the exporter schema references them).
const char* name(Counter c);
const char* name(Gauge g);
const char* name(Timer t);

struct TimerStat {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;

  void record(std::uint64_t ns) {
    ++count;
    total_ns += ns;
    if (ns > max_ns) max_ns = ns;
  }
  bool operator==(const TimerStat&) const = default;
};

// One trial's (or one merged aggregate's) metrics.
struct RunMetrics {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<std::uint64_t, kNumGauges> gauges{};
  std::array<TimerStat, kNumTimers> timers{};

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  std::uint64_t gauge(Gauge g) const {
    return gauges[static_cast<std::size_t>(g)];
  }
  const TimerStat& timer(Timer t) const {
    return timers[static_cast<std::size_t>(t)];
  }

  void add(Counter c, std::uint64_t delta = 1) {
    counters[static_cast<std::size_t>(c)] += delta;
  }
  void gauge_max(Gauge g, std::uint64_t value) {
    auto& slot = gauges[static_cast<std::size_t>(g)];
    if (value > slot) slot = value;
  }

  // Deterministic merge: counters add, gauges max, timers add/max. Used by
  // the trial runner in trial-index order.
  void merge(const RunMetrics& other);

  bool empty() const;

  // Equality on the deterministic part only (counters + gauges); timers are
  // wall-clock and never comparable across runs.
  bool deterministic_equal(const RunMetrics& other) const {
    return counters == other.counters && gauges == other.gauges;
  }

  bool operator==(const RunMetrics&) const = default;

  // Named snapshot: {"counters": {...}, "gauges": {...}, "timers": {...}}.
  // Zero-valued entries are omitted so reports stay small; timers can be
  // excluded entirely (e.g. when diffing runs for determinism).
  JsonValue to_json(bool include_timers = true) const;
};

#ifndef DAWN_OBS_DISABLED

namespace detail {
// The current thread's sink; null = disabled (the default).
inline thread_local RunMetrics* t_sink = nullptr;
}  // namespace detail

inline RunMetrics* sink() { return detail::t_sink; }
inline bool enabled() { return detail::t_sink != nullptr; }

// RAII sink installation; nests (the previous sink is restored, and callers
// that want outer scopes to see inner activity merge explicitly).
class MetricsScope {
 public:
  explicit MetricsScope(RunMetrics& m) : prev_(detail::t_sink) {
    detail::t_sink = &m;
  }
  ~MetricsScope() { detail::t_sink = prev_; }
  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

 private:
  RunMetrics* prev_;
};

inline void count(Counter c, std::uint64_t delta = 1) {
  if (RunMetrics* m = detail::t_sink) m->add(c, delta);
}

inline void gauge_max(Gauge g, std::uint64_t value) {
  if (RunMetrics* m = detail::t_sink) m->gauge_max(g, value);
}

// RAII stage timer: reads the clock only when a sink is installed.
class Stopwatch {
 public:
  explicit Stopwatch(Timer t) : sink_(detail::t_sink), timer_(t) {
    if (sink_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~Stopwatch() {
    if (sink_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    sink_->timers[static_cast<std::size_t>(timer_)].record(
        static_cast<std::uint64_t>(ns));
  }
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;

 private:
  RunMetrics* sink_;
  Timer timer_;
  std::chrono::steady_clock::time_point start_;
};

#else  // DAWN_OBS_DISABLED: the whole layer compiles to nothing.

inline RunMetrics* sink() { return nullptr; }
inline bool enabled() { return false; }

class MetricsScope {
 public:
  explicit MetricsScope(RunMetrics&) {}
};

inline void count(Counter, std::uint64_t = 1) {}
inline void gauge_max(Gauge, std::uint64_t) {}

class Stopwatch {
 public:
  explicit Stopwatch(Timer) {}
};

#endif  // DAWN_OBS_DISABLED

}  // namespace dawn::obs
