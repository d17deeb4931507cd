// Phase spans: nestable wall-clock intervals over the engines' phases.
//
// PR 2's counters say *how much* work a run did; spans say *when* and *on
// which thread*. A SpanLog owns per-thread bounded buffers (the same
// merge-deterministically-after-the-joins discipline as RunMetrics), and a
// SpanScope is the RAII recording point:
//
//   obs::SpanLog log;
//   {
//     obs::SpanScope span(&log, obs::Phase::ExploreExpand, frontier.size());
//     ... one BFS level expands ...
//   }                       // end timestamp taken here
//   log.merged();           // deterministic order, after recording threads join
//   dump_chrome_trace(log, "trace.json");   // Perfetto-loadable
//
// Design constraints (docs/OBSERVABILITY.md):
//
//  * Zero cost when no log is installed: a SpanScope against a null log is
//    a branch, and the whole layer is inert under -DDAWN_OBS_DISABLED
//    (SpanScope becomes an empty class; nothing reads the clock).
//  * No allocation on the hot path: each thread's buffer is reserved up
//    front and spans beyond capacity are counted as dropped, never grown.
//  * Timestamps are wall-clock nanoseconds relative to the log's epoch and
//    are OUTSIDE the determinism contract (like RunMetrics timers); only
//    the merge *order* is deterministic.
//
// Threading: SpanScope may run on any thread; a thread registers itself
// with the log on first use (one mutex acquisition, then cached in a
// thread_local). merged(), chrome_trace_json() and dump_chrome_trace() are
// single-threaded accounting — call them after the recording threads have
// joined.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace dawn::obs {

class JsonValue;

// The instrumented engine phases. Names are stable across PRs (the Chrome
// trace and the heartbeat records reference them).
enum class Phase : std::uint8_t {
  DecideTotal,     // one decide() facade call
  ExploreExpand,   // one BFS level of the frontier-parallel exploration
  ExploreMerge,    // post-exploration buffer merge + dense remap
  ExploreScc,      // in-memory SCC pass: Tarjan + bottom-SCC classification
  ExploreSccTrim,  // tiered SCC pass: the in/out-degree peel
  ExploreSccFb,    // tiered SCC pass: forward-backward rounds
  ExploreSpill,    // tiered store: one level-boundary spill pass
  Canonicalize,    // one symmetry-canonicalised expansion
  TrialsBlock,     // one SoA batched trial block
  SimulateRun,     // one simulate() run
  FuzzCase,        // one differential fuzz case (all selected pairs)
  NetRequest,      // one dawnd Decide request executed by a server worker
  ExploreDistExchange,  // one distributed level's frontier exchange + barrier
  kCount,
};

inline constexpr std::size_t kNumPhases = static_cast<std::size_t>(Phase::kCount);

const char* name(Phase p);

struct SpanRecord {
  Phase phase = Phase::DecideTotal;
  std::uint32_t tid = 0;        // log-local thread id (registration order)
  std::uint64_t begin_ns = 0;   // relative to the log's epoch
  std::uint64_t end_ns = 0;
  std::uint64_t items = 0;      // phase-specific payload (configs, lanes, ...)

  bool operator==(const SpanRecord&) const = default;
};

class SpanLog {
 public:
  static constexpr std::size_t kDefaultCapacityPerThread = 1 << 16;

  explicit SpanLog(std::size_t capacity_per_thread = kDefaultCapacityPerThread);
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  // Nanoseconds since this log's construction.
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  // One recording thread's buffer. Bounded: append() past capacity counts a
  // drop instead of growing (no allocation on the hot path).
  struct ThreadSink {
    std::uint32_t tid = 0;
    std::vector<SpanRecord> records;
    std::uint64_t dropped = 0;
    std::size_t capacity = 0;

    bool full() const { return records.size() >= capacity; }
  };

  // The calling thread's sink, registering it on first use. The result is
  // cached in a thread_local keyed by the log's identity, so the steady
  // state is one pointer compare.
  ThreadSink* current_sink();

  // -- Single-threaded accounting; call after recording threads joined. --

  // All records, in deterministic order: (begin_ns, end_ns, tid, phase,
  // items). Timestamps are wall-clock so the *contents* differ run to run,
  // but the ordering rule never depends on which thread merged first.
  std::vector<SpanRecord> merged() const;

  // Per-thread buffers in recording order (a span is appended when it
  // *ends*, so each buffer is a post-order traversal of that thread's span
  // nesting forest — the Chrome exporter rebuilds exact B/E nesting from
  // this even when coarse clocks produce tied timestamps).
  std::vector<std::vector<SpanRecord>> per_thread() const;

  std::size_t size() const;            // records currently held
  std::uint64_t dropped() const;       // spans beyond capacity, all threads
  std::size_t num_threads() const;     // threads that registered

  std::size_t capacity_per_thread() const { return capacity_; }

 private:
  friend class SpanScope;

  mutable std::mutex mu_;
  std::deque<ThreadSink> sinks_;  // deque: sink pointers stay stable
  std::size_t capacity_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t log_id_;  // process-unique, for the thread_local sink cache
};

// Chrome trace-event JSON for the log's current contents:
// {"traceEvents": [...]} with matched B/E duration pairs (ts microseconds,
// monotonic per tid) plus process/thread-name metadata events. Loads in
// chrome://tracing and Perfetto; tools/dawn_trace_check validates the
// invariants mechanically.
JsonValue chrome_trace_json(const SpanLog& log);

// Writes chrome_trace_json() to `path`. Returns false (and fills `error`)
// on I/O failure.
bool dump_chrome_trace(const SpanLog& log, const std::string& path,
                       std::string* error = nullptr);

#ifndef DAWN_OBS_DISABLED

namespace detail {
// The current thread's ambient span log; null = disabled (the default).
// Installed via obs::TelemetryScope (telemetry.hpp).
inline thread_local SpanLog* t_spans = nullptr;
}  // namespace detail

inline SpanLog* spans() { return detail::t_spans; }

// RAII span: records [construction, destruction) into the given log (or the
// ambient log). Null log = fully inert; a full sink costs one drop count and
// never reads the clock.
class SpanScope {
 public:
  explicit SpanScope(Phase phase, std::uint64_t items = 0)
      : SpanScope(detail::t_spans, phase, items) {}

  SpanScope(SpanLog* log, Phase phase, std::uint64_t items = 0)
      : phase_(phase), items_(items) {
    if (log == nullptr) return;
    SpanLog::ThreadSink* sink = log->current_sink();
    if (sink->full()) {
      ++sink->dropped;
      return;
    }
    log_ = log;
    sink_ = sink;
    begin_ns_ = log->now_ns();
  }

  ~SpanScope() {
    if (sink_ == nullptr) return;
    // Capacity was checked at construction; a nested span cannot have filled
    // the sink past capacity in between because it also checked. Still guard:
    // drop rather than grow.
    if (sink_->full()) {
      ++sink_->dropped;
      return;
    }
    sink_->records.push_back(
        {phase_, sink_->tid, begin_ns_, log_->now_ns(), items_});
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void add_items(std::uint64_t n) { items_ += n; }

 private:
  SpanLog* log_ = nullptr;
  SpanLog::ThreadSink* sink_ = nullptr;
  Phase phase_;
  std::uint64_t begin_ns_ = 0;
  std::uint64_t items_;
};

#else  // DAWN_OBS_DISABLED: spans compile to nothing.

inline SpanLog* spans() { return nullptr; }

class SpanScope {
 public:
  explicit SpanScope(Phase, std::uint64_t = 0) {}
  SpanScope(SpanLog*, Phase, std::uint64_t = 0) {}
  void add_items(std::uint64_t) {}
};

#endif  // DAWN_OBS_DISABLED

}  // namespace dawn::obs
