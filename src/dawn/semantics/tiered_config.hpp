// Out-of-core exploration: the explicit engine's spilling template and the
// edge spool it writes.
//
// The in-memory stores die at RAM size, which caps exactly the NSPACE(n) /
// bounded-degree experiments the paper's hierarchy cares about.
// explore_and_classify_tiered runs the level-synchronous BFS of
// explore_and_classify_in (parallel_explore.hpp) on a PackedConfigStore in
// spill mode (packed_config.hpp), with three differences:
//
//  * each BFS level is a resident vector of gids; workers claim chunks of
//    it through an atomic cursor and re-decode each configuration from the
//    store, whose value() reads spilled words through the spill mapping;
//  * every (src gid, dst gid) transition goes to an EdgeSpool — per-worker
//    buffered append files, unlinked under the spill dir — instead of RAM;
//  * at every level boundary the store spills its hot arenas when the
//    resident footprint exceeds ExploreBudget::max_store_bytes, and the run
//    aborts with UnknownReason::MemoryCap if the always-resident index
//    alone still exceeds it.
//
// classify_bottom_sccs_external() then streams the spooled edges into one
// CSR by counting sort and classifies it with scc.hpp's shared
// classify_bottom_sccs. The CSR must fit a cap derived from the budget
// (docs/ENGINE.md "The tiered store" has the rule and why it suffices);
// a larger graph gives MemoryCap rather than silently blowing the budget.
//
// Determinism: spill decisions happen only at level boundaries against
// level-end store contents, which are properties of the reachable set — so
// spill byte counts, MemoryCap aborts, and everything else surfaced in
// DecisionReport stay bit-identical across thread counts.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "dawn/automata/config.hpp"
#include "dawn/obs/memory_ledger.hpp"
#include "dawn/semantics/packed_config.hpp"
#include "dawn/semantics/parallel_explore.hpp"
#include "dawn/semantics/scc.hpp"
#include "dawn/util/check.hpp"

namespace dawn {

// Per-worker append-only edge files: workers push (src gid, dst gid) pairs
// through their own buffered writer (no locks), flush_all() runs once
// exploration ends, and ScanCursor streams every edge back — twice, for the
// two counting-sort passes of classify_bottom_sccs_external.
class EdgeSpool {
 public:
  EdgeSpool(const std::string& dir, int num_writers);
  ~EdgeSpool();

  EdgeSpool(const EdgeSpool&) = delete;
  EdgeSpool& operator=(const EdgeSpool&) = delete;

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  // Writer-exclusive (one worker per writer index), buffered.
  void append(int writer, std::int64_t src, std::int64_t dst);

  // Flushes every writer buffer. Single-threaded; false on I/O failure.
  bool flush_all();

  // Valid after flush_all().
  std::uint64_t num_edges() const;
  std::uint64_t bytes() const { return num_edges() * 2 * sizeof(std::int64_t); }

  class ScanCursor {
   public:
    explicit ScanCursor(const EdgeSpool& spool) : spool_(&spool) {}

    // Next edge in file order (writer files concatenated). False at the
    // end or on error (check failed()).
    bool next(std::int64_t* src, std::int64_t* dst);
    bool failed() const { return failed_; }

   private:
    const EdgeSpool* spool_;
    std::size_t file_ = 0;
    std::uint64_t file_pos_ = 0;  // bytes consumed of the current file
    std::vector<std::int64_t> buf_;
    std::size_t buf_pos_ = 0;
    bool failed_ = false;
  };

 private:
  friend class ScanCursor;

  // One cache line each: workers append to their own writer on every edge.
  struct alignas(64) Writer {
    int fd = -1;
    std::vector<std::int64_t> buf;  // interleaved src,dst
    std::uint64_t file_bytes = 0;
    std::uint64_t edges = 0;
    bool fail = false;
  };

  bool flush(Writer& w);
  void fail(const std::string& what);

  std::vector<Writer> writers_;
  bool ok_ = false;
  std::string error_;
};

// Bottom-SCC classification over the spooled edges: two sequential scans
// build one CsrGraph by counting sort (out-degrees, then targets), mapping
// every gid endpoint through dense(gid) as build_csr does, and the shared
// classify_bottom_sccs classifies it; verdicts[i] is node i's verdict. The
// CSR must fit classify_cap at 4 bytes per edge plus 12 per node; a larger
// graph, or an edge-scan I/O failure, gives UnknownReason::MemoryCap.
// num_configs is verdicts.size() either way.
template <typename Dense>
ExploreOutcome classify_bottom_sccs_external(
    const EdgeSpool& edges, const std::vector<Verdict>& verdicts,
    const Dense& dense, std::size_t classify_cap) {
  const std::size_t n = verdicts.size();
  const std::uint64_t m = edges.num_edges();
  ExploreOutcome out;
  out.reason = UnknownReason::MemoryCap;
  out.num_configs = n;
  const std::uint64_t csr_bytes =
      m * sizeof(std::int32_t) + (n + 1) * sizeof(std::uint32_t) +
      n * 2 * sizeof(std::int32_t);
  if (csr_bytes > classify_cap ||
      m > std::numeric_limits<std::uint32_t>::max()) {
    return out;
  }
  const auto scan = [&](auto&& fn) {
    EdgeSpool::ScanCursor cur(edges);
    std::int64_t src = 0;
    std::int64_t dst = 0;
    while (cur.next(&src, &dst)) {
      const auto u = static_cast<std::size_t>(dense(src));
      const auto v = static_cast<std::size_t>(dense(dst));
      DAWN_CHECK_MSG(u < n && v < n, "edge endpoint outside the dense range");
      fn(u, v);
    }
    return !cur.failed();
  };
  CsrGraph graph;
  graph.offsets.assign(n + 1, 0);
  if (!scan([&](std::size_t u, std::size_t) { ++graph.offsets[u + 1]; })) {
    return out;
  }
  for (std::size_t v = 0; v < n; ++v) {
    graph.offsets[v + 1] += graph.offsets[v];
  }
  std::vector<std::uint32_t> cursor(graph.offsets.begin(),
                                    graph.offsets.end() - 1);
  graph.targets.resize(m);
  if (!scan([&](std::size_t u, std::size_t v) {
        graph.targets[cursor[u]++] = static_cast<std::int32_t>(v);
      })) {
    return out;
  }
  const BottomClassification cls = classify_bottom_sccs(
      graph, [&](std::size_t i) { return verdicts[i]; });
  out.decision = cls.decision;
  out.reason = UnknownReason::None;
  out.num_bottom_sccs = cls.num_bottom_sccs;
  return out;
}

// The spilling counterpart of explore_and_classify_in: `store` must be in
// spill mode. Same determinism contract; the added abort reason is
// UnknownReason::MemoryCap (see ExploreBudget).
template <typename MakeExpander, typename VerdictOf>
ExploreOutcome explore_and_classify_tiered(PackedConfigStore& store,
                                           const Config& initial,
                                           MakeExpander&& make_expander,
                                           VerdictOf&& verdict_of,
                                           const ExploreBudget& budget,
                                           ExploreStats* stats_out = nullptr) {
  DAWN_CHECK_MSG(store.spills(), "the tiered engine needs a spilling store");
  const int threads = budget.resolve_threads();
  DeadlineClock deadline(budget);

  const obs::Telemetry tel = obs::telemetry();
  obs::ExploreProgress* const progress = tel.progress;
  if (progress != nullptr) progress->reset();

  // Everything one worker writes, on cache lines no other worker writes.
  using Expander = decltype(make_expander(0));
  struct alignas(64) Worker {
    explicit Worker(Expander e) : expander(std::move(e)) {}
    Expander expander;
    std::vector<std::int64_t> next;  // fresh gids found this level
    std::vector<std::pair<std::int64_t, Verdict>> verdicts;  // whole run
    std::size_t steals = 0;
  };
  WorkerPool pool(threads);
  const auto num_workers = static_cast<std::size_t>(pool.num_workers());
  std::vector<Worker> workers;
  workers.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    workers.emplace_back(make_expander(static_cast<int>(w)));
  }
  EdgeSpool espool(budget.spill_dir, static_cast<int>(num_workers));

  ExploreStats stats;
  stats.threads = pool.num_workers();

  std::vector<std::int64_t> frontier;  // the current level's gids
  {
    const auto seeded = store.intern(initial);
    frontier.push_back(seeded.gid);
    workers[0].verdicts.emplace_back(seeded.gid, verdict_of(initial));
  }

  bool capped = false;
  bool expired = false;
  bool mem_capped = false;
  bool io_failed = !(store.ok() && espool.ok());
  while (!frontier.empty() && !io_failed) {
    ++stats.levels;
    if (frontier.size() > stats.frontier_peak) {
      stats.frontier_peak = frontier.size();
    }
    if (progress != nullptr) {
      progress->level.store(stats.levels, std::memory_order_relaxed);
      progress->frontier.store(frontier.size(), std::memory_order_relaxed);
      if (deadline.enabled()) {
        progress->deadline_ms_remaining.store(deadline.remaining_ms(),
                                              std::memory_order_relaxed);
      }
    }
    obs::SpanScope level_span(tel.spans, obs::Phase::ExploreExpand,
                              frontier.size());
    const std::size_t chunk =
        std::min<std::size_t>(256, frontier.size() / (num_workers * 4) + 1);
    std::atomic<std::size_t> cursor{0};
    pool.run([&, tel](int worker) {
      const obs::TelemetryScope telemetry_scope(tel);
      Worker& self = workers[static_cast<std::size_t>(worker)];
      Config current;
      for (;;) {
        if (store.size() > budget.max_configs) break;
        if (deadline.enabled() && deadline.expired()) break;
        const std::size_t begin = cursor.fetch_add(chunk);
        if (begin >= frontier.size()) break;
        const std::size_t end = std::min(begin + chunk, frontier.size());
        if ((begin / chunk) % num_workers !=
            static_cast<std::size_t>(worker)) {
          ++self.steals;
        }
        for (std::size_t i = begin; i < end; ++i) {
          const std::int64_t gid = frontier[i];
          store.value(gid, current);
          self.expander(current, [&](const Config& succ) {
            const auto interned = store.intern(succ);
            espool.append(worker, gid, interned.gid);
            if (interned.fresh) {
              self.verdicts.emplace_back(interned.gid, verdict_of(succ));
              self.next.push_back(interned.gid);
              if (progress != nullptr) {
                progress
                    ->shard_sizes[static_cast<std::size_t>(interned.gid) &
                                  PackedConfigStore::kShardMask]
                    .fetch_add(1, std::memory_order_relaxed);
              }
            }
          });
        }
      }
    });
    if (progress != nullptr) {
      progress->configs.store(store.size(), std::memory_order_relaxed);
    }
    if (store.size() > budget.max_configs) {
      capped = true;
      break;
    }
    if (deadline.expired()) {
      expired = true;
      break;
    }
    // Each fresh gid was interned by exactly one worker, so the
    // concatenation is the next level without duplicates.
    frontier.clear();
    for (Worker& w : workers) {
      frontier.insert(frontier.end(), w.next.begin(), w.next.end());
      w.next.clear();
    }

    // Level-boundary budget enforcement: spill, then give up (MemoryCap)
    // if the always-resident index alone is over budget.
    if (store.resident_bytes() > store.max_resident_bytes()) {
      obs::SpanScope spill_span(tel.spans, obs::Phase::ExploreSpill,
                                store.resident_bytes());
      if (!store.spill_to_budget()) {
        io_failed = true;
        break;
      }
      ++stats.spill_events;
      if (store.resident_bytes() > store.max_resident_bytes()) {
        mem_capped = true;
        break;
      }
    }
  }

  for (const Worker& w : workers) stats.steals += w.steals;
  if (!espool.flush_all()) io_failed = true;

  stats.spill_arena_bytes = store.spilled_bytes();
  stats.spill_edge_bytes = io_failed ? 0 : espool.bytes();
  stats.resident_bytes = store.resident_bytes();

  const auto emit_metrics = [&stats] {
    obs::count(obs::Counter::ExploreConfigs, stats.configs);
    obs::count(obs::Counter::ExploreEdges, stats.edges);
    obs::count(obs::Counter::ExploreLevels, stats.levels);
    obs::count(obs::Counter::ExploreSteals, stats.steals);
    obs::count(obs::Counter::ExploreSpillEvents, stats.spill_events);
    obs::count(obs::Counter::ExploreSpillBytes,
               stats.spill_arena_bytes + stats.spill_edge_bytes);
    obs::gauge_max(obs::Gauge::ExploreShardPeak, stats.shard_peak);
    obs::gauge_max(obs::Gauge::ExploreStoreBytes, stats.store_bytes);
    obs::gauge_max(obs::Gauge::ExploreResidentBytes, stats.resident_bytes);
    obs::gauge_max(obs::Gauge::ExploreFrontierPeak, stats.frontier_peak);
    obs::gauge_max(obs::Gauge::ExploreThreads,
                   static_cast<std::uint64_t>(stats.threads));
  };

  ExploreOutcome outcome;
  if (capped || expired || mem_capped || io_failed) {
    outcome.decision = Decision::Unknown;
    outcome.reason = capped     ? UnknownReason::ConfigCap
                     : expired  ? UnknownReason::Deadline
                                : UnknownReason::MemoryCap;
    // Clamp like the in-memory engine so capped outcomes stay thread-count
    // independent; MemoryCap aborts happen at level boundaries, where
    // store.size() is already invariant.
    outcome.num_configs = capped ? budget.max_configs
                                 : std::min(store.size(), budget.max_configs);
    stats.configs = outcome.num_configs;
    stats.store_bytes = store.bytes();
    if (stats_out != nullptr) *stats_out = stats;
    emit_metrics();
    return outcome;
  }

  store.finalize();
  const std::size_t total = store.size();
  std::vector<Verdict> verdicts(total, Verdict::Neutral);
  {
    obs::SpanScope merge_span(tel.spans, obs::Phase::ExploreMerge, total);
    for (Worker& w : workers) {
      for (const auto& [gid, verdict] : w.verdicts) {
        verdicts[static_cast<std::size_t>(store.dense(gid))] = verdict;
      }
      decltype(w.verdicts)().swap(w.verdicts);
    }
  }

  stats.configs = total;
  stats.edges = static_cast<std::size_t>(espool.num_edges());
  stats.shard_peak = store.shard_peak();
  stats.store_bytes = store.bytes();
  {
    const auto occupancies = store.shard_occupancies();
    stats.shard_chi2 = shard_chi_square(occupancies.data(), occupancies.size());
  }

  if (tel.ledger != nullptr) {
    tel.ledger->set_max(obs::MemoryAccount::TieredResidentBytes,
                        stats.resident_bytes);
    tel.ledger->set_max(obs::MemoryAccount::SpillArenaBytes,
                        stats.spill_arena_bytes);
    tel.ledger->set_max(obs::MemoryAccount::SpillEdgeBytes,
                        stats.spill_edge_bytes);
    tel.ledger->set_max(obs::MemoryAccount::FrontierBytes,
                        stats.frontier_peak * sizeof(std::int64_t));
  }

  // The classification CSR may use up to this many bytes: a formula over
  // the budget, so MemoryCap here is deterministic too.
  const std::size_t classify_cap =
      std::max<std::size_t>(store.max_resident_bytes() * 8, 64u << 20);
  {
    obs::SpanScope scc_span(tel.spans, obs::Phase::ExploreScc, total);
    outcome = classify_bottom_sccs_external(
        espool, verdicts,
        [&store](std::int64_t gid) { return store.dense(gid); },
        classify_cap);
  }

  if (stats_out != nullptr) *stats_out = stats;
  emit_metrics();
  return outcome;
}

}  // namespace dawn
