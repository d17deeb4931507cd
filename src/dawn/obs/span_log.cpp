#include "dawn/obs/span_log.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>

#include "dawn/obs/json.hpp"

namespace dawn::obs {

const char* name(Phase p) {
  switch (p) {
    case Phase::DecideTotal: return "decide";
    case Phase::ExploreExpand: return "explore.expand";
    case Phase::ExploreMerge: return "explore.merge";
    case Phase::ExploreScc: return "explore.scc";
    case Phase::ExploreSccTrim: return "explore.scc.trim";
    case Phase::ExploreSccFb: return "explore.scc.fb";
    case Phase::ExploreSpill: return "explore.spill";
    case Phase::Canonicalize: return "canonicalize";
    case Phase::TrialsBlock: return "trials.block";
    case Phase::SimulateRun: return "simulate.run";
    case Phase::FuzzCase: return "fuzz.case";
    case Phase::NetRequest: return "net.request";
    case Phase::ExploreDistExchange: return "explore.dist.exchange";
    case Phase::kCount: break;
  }
  return "?";
}

namespace {

std::uint64_t next_log_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

SpanLog::SpanLog(std::size_t capacity_per_thread)
    : capacity_(capacity_per_thread < 1 ? 1 : capacity_per_thread),
      epoch_(std::chrono::steady_clock::now()),
      log_id_(next_log_id()) {}

SpanLog::ThreadSink* SpanLog::current_sink() {
  // Keyed by the process-unique log id, not the address: a worker thread
  // outliving one log must not reuse a stale sink when a new log lands at
  // the same address.
  struct Cache {
    std::uint64_t log_id = 0;
    ThreadSink* sink = nullptr;
  };
  thread_local Cache cache;
  if (cache.log_id == log_id_) return cache.sink;
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.emplace_back();
  ThreadSink& sink = sinks_.back();
  sink.tid = static_cast<std::uint32_t>(sinks_.size() - 1);
  sink.capacity = capacity_;
  sink.records.reserve(capacity_);
  cache = {log_id_, &sink};
  return &sink;
}

std::vector<SpanRecord> SpanLog::merged() const {
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const ThreadSink& sink : sinks_) {
      out.insert(out.end(), sink.records.begin(), sink.records.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
              if (a.end_ns != b.end_ns) return a.end_ns > b.end_ns;  // outer first
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.phase != b.phase) return a.phase < b.phase;
              return a.items < b.items;
            });
  return out;
}

std::vector<std::vector<SpanRecord>> SpanLog::per_thread() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<SpanRecord>> out;
  out.reserve(sinks_.size());
  for (const ThreadSink& sink : sinks_) out.push_back(sink.records);
  return out;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const ThreadSink& sink : sinks_) total += sink.records.size();
  return total;
}

std::uint64_t SpanLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const ThreadSink& sink : sinks_) total += sink.dropped;
  return total;
}

std::size_t SpanLog::num_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sinks_.size();
}

namespace {

struct TraceEvent {
  std::uint64_t ts_ns = 0;
  bool begin = false;  // false = E, true = B
  std::uint32_t tid = 0;
  Phase phase = Phase::DecideTotal;
  std::uint64_t items = 0;
};

// One span plus the spans it directly encloses, rebuilt from the buffer's
// post-order: scanning in recording (end) order, a completed span whose
// begin is at or after the current span's begin is a child. This recovers
// the exact RAII nesting even when a coarse clock produced tied timestamps,
// which a timestamp sort alone cannot.
struct SpanNode {
  SpanRecord record;
  std::vector<SpanNode> children;
};

std::vector<SpanNode> build_forest(const std::vector<SpanRecord>& buffer) {
  std::vector<SpanNode> stack;
  for (const SpanRecord& r : buffer) {
    SpanNode node{r, {}};
    while (!stack.empty() && stack.back().record.begin_ns >= r.begin_ns) {
      node.children.push_back(std::move(stack.back()));
      stack.pop_back();
    }
    // Children were popped newest-first; restore chronological order.
    std::reverse(node.children.begin(), node.children.end());
    stack.push_back(std::move(node));
  }
  return stack;  // roots, in chronological (completion) order
}

// Pre/post-order walk: B at entry, E at exit. The emitted stream is
// stack-valid and its timestamps are non-decreasing by construction
// (a child begins no earlier than its parent and ends no later).
void emit_events(const SpanNode& node, std::vector<TraceEvent>& out) {
  const SpanRecord& r = node.record;
  out.push_back({r.begin_ns, true, r.tid, r.phase, r.items});
  for (const SpanNode& child : node.children) emit_events(child, out);
  out.push_back({r.end_ns, false, r.tid, r.phase, r.items});
}

}  // namespace

JsonValue chrome_trace_json(const SpanLog& log) {
  const std::vector<std::vector<SpanRecord>> buffers = log.per_thread();

  std::vector<TraceEvent> events;
  std::uint32_t max_tid = 0;
  std::size_t num_records = 0;
  for (const std::vector<SpanRecord>& buffer : buffers) {
    num_records += buffer.size();
    for (const SpanRecord& r : buffer) {
      if (r.tid > max_tid) max_tid = r.tid;
    }
  }
  events.reserve(num_records * 2);
  for (const std::vector<SpanRecord>& buffer : buffers) {
    for (const SpanNode& root : build_forest(buffer)) {
      emit_events(root, events);
    }
  }
  // Interleave the threads chronologically. Stable: equal timestamps keep
  // each tid's emission order, preserving per-tid stack validity.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  const bool have_records = num_records != 0;

  JsonValue trace_events = JsonValue::array();
  // Metadata first: one process, one named row per recording thread.
  {
    JsonValue meta = JsonValue::object();
    meta.set("name", JsonValue("process_name"));
    meta.set("ph", JsonValue("M"));
    meta.set("pid", JsonValue(0));
    meta.set("tid", JsonValue(0));
    JsonValue args = JsonValue::object();
    args.set("name", JsonValue("dawn"));
    meta.set("args", std::move(args));
    trace_events.push_back(std::move(meta));
  }
  if (have_records) {
    for (std::uint32_t tid = 0; tid <= max_tid; ++tid) {
      JsonValue meta = JsonValue::object();
      meta.set("name", JsonValue("thread_name"));
      meta.set("ph", JsonValue("M"));
      meta.set("pid", JsonValue(0));
      meta.set("tid", JsonValue(static_cast<std::uint64_t>(tid)));
      JsonValue args = JsonValue::object();
      args.set("name", JsonValue("span-thread-" + std::to_string(tid)));
      meta.set("args", std::move(args));
      trace_events.push_back(std::move(meta));
    }
  }
  for (const TraceEvent& e : events) {
    JsonValue event = JsonValue::object();
    event.set("name", JsonValue(name(e.phase)));
    event.set("cat", JsonValue("dawn"));
    event.set("ph", JsonValue(e.begin ? "B" : "E"));
    // Chrome's ts unit is microseconds; a double keeps sub-microsecond spans
    // ordered (ns / 1000 is a monotone map, so per-tid monotonicity holds).
    event.set("ts", JsonValue(static_cast<double>(e.ts_ns) / 1000.0));
    event.set("pid", JsonValue(0));
    event.set("tid", JsonValue(static_cast<std::uint64_t>(e.tid)));
    if (e.begin && e.items != 0) {
      JsonValue args = JsonValue::object();
      args.set("items", JsonValue(e.items));
      event.set("args", std::move(args));
    }
    trace_events.push_back(std::move(event));
  }

  JsonValue doc = JsonValue::object();
  doc.set("traceEvents", std::move(trace_events));
  doc.set("displayTimeUnit", JsonValue("ms"));
  if (log.dropped() != 0) {
    JsonValue other = JsonValue::object();
    other.set("spans_dropped", JsonValue(log.dropped()));
    doc.set("otherData", std::move(other));
  }
  return doc;
}

bool dump_chrome_trace(const SpanLog& log, const std::string& path,
                       std::string* error) {
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  out << chrome_trace_json(log).dump(0) << "\n";
  if (!out) {
    if (error != nullptr) *error = "write failed: " + path;
    return false;
  }
  return true;
}

}  // namespace dawn::obs
