// Frontier-parallel sharded explicit-state exploration.
//
// The generic engine behind the parallel pseudo-stochastic deciders
// (explicit configurations, counted clique / star configurations). It runs
// a level-synchronous BFS over the configuration graph:
//
//  * configurations are interned into a striped, hash-sharded store (64
//    shards, each an independently locked hash map — the concurrent
//    counterpart of util/interner.hpp);
//  * each BFS level's frontier is expanded by a persistent WorkerPool
//    (semantics/trials.hpp), workers claiming fixed-size chunks through an
//    atomic cursor; successors, edges and verdicts land in per-worker
//    buffers, so the hot path takes no lock but the owning shard's;
//  * the per-worker edge buffers are merged into one CSR by counting sort,
//    condensed by the iterative Tarjan in semantics/scc.{hpp,cpp} and
//    classified by the bottom-SCC rule.
//
// Determinism contract: the decision, the number of reachable
// configurations, and the number of bottom SCCs are properties of the
// reachable configuration graph, not of the exploration order — so the
// returned ExploreOutcome is bit-identical for every thread count,
// including budget-capped outcomes (the explored count is clamped to the
// cap). Wall-clock deadline aborts are the one documented exception. The
// sequential deciders (sequential_explore.hpp) clamp a capped count the same
// way and remain in place as the differential reference; see
// docs/DECIDERS.md and tests/test_decide.cpp.
//
// Thread safety: workers call Machine::step / verdict concurrently, so the
// machine must advertise parallel_step_safe(); use explore_threads() to
// clamp the worker count for machines that do not.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dawn/automata/machine.hpp"
#include "dawn/obs/metrics.hpp"
#include "dawn/obs/telemetry.hpp"
#include "dawn/semantics/budget.hpp"
#include "dawn/semantics/decision.hpp"
#include "dawn/semantics/scc.hpp"
#include "dawn/semantics/trials.hpp"
#include "dawn/util/hash.hpp"

namespace dawn {

// Occupancy / scheduling counters for one exploration, reported through the
// obs::RunMetrics sink and surfaced by bench_explicit_parallel. `steals` —
// chunk claims that deviate from a static round-robin split — depends on
// scheduling and is OUTSIDE the determinism contract; so do `shard_peak`
// and `shard_chi2` for compiled machines, whose state ids (and hence
// configuration hashes) follow thread timing. Everything else is
// thread-count-invariant (frontier sizes are per-level reachable sets).
struct ExploreStats {
  std::size_t configs = 0;
  std::size_t edges = 0;
  std::size_t levels = 0;
  std::size_t steals = 0;
  std::size_t shard_peak = 0;     // largest shard at the end (occupancy)
  std::size_t frontier_peak = 0;  // largest BFS level
  std::size_t store_bytes = 0;    // config-store occupancy (see store bytes())
  // Tiered (out-of-core) runs only — zero for the in-memory engines. All
  // thread-count-invariant: spilling happens at level boundaries against
  // level-end store contents (semantics/tiered_config.hpp).
  std::size_t resident_bytes = 0;     // in-memory store footprint at the end
  std::size_t spill_arena_bytes = 0;  // packed words written to the arena file
  std::size_t spill_edge_bytes = 0;   // edge-spool bytes written
  std::size_t spill_events = 0;       // level-boundary spill passes
  int threads = 1;                // workers actually used
  // Chi-square of the 64 final shard occupancies against the uniform split
  // (E[chi2] = 63 for a well-mixed hash; see shard_chi_square()). Pins the
  // post-hash_mix shard balance — a regression to concentrated shards shows
  // up as a jump of orders of magnitude. 0 on capped/empty runs.
  double shard_chi2 = 0.0;
};

// Chi-square statistic of `num_shards` occupancy counts against the uniform
// expectation. Sum((o_i - e)^2 / e) with e = total / num_shards; 0 when the
// store is empty. Final shard occupancies are a property of the reachable
// set and the hash, so the statistic is thread-count-invariant whenever
// state ids are (table machines).
inline double shard_chi_square(const std::size_t* occupancies,
                               std::size_t num_shards) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < num_shards; ++i) total += occupancies[i];
  if (total == 0 || num_shards == 0) return 0.0;
  const double expected =
      static_cast<double>(total) / static_cast<double>(num_shards);
  double chi2 = 0.0;
  for (std::size_t i = 0; i < num_shards; ++i) {
    const double d = static_cast<double>(occupancies[i]) - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

// Striped concurrent interner: values are spread over 2^kShardBits
// independently locked shards by (high) hash bits, so concurrent interning
// mostly touches distinct locks. A value's *global* id packs (local id,
// shard): gids are stable while exploring but not dense; after exploration
// finalize() freezes per-shard prefix offsets and dense() maps gids onto
// [0, size) for the SCC pass.
template <typename ConfigT, typename Hash>
class ShardedConfigStore {
 public:
  static constexpr int kShardBits = 6;
  static constexpr std::size_t kNumShards = std::size_t{1} << kShardBits;
  static constexpr std::size_t kShardMask = kNumShards - 1;

  // Which MemoryLedger account this store's bytes() lands in.
  static constexpr obs::MemoryAccount kMemoryAccount =
      obs::MemoryAccount::VectorStoreBytes;

  struct InternResult {
    std::int64_t gid = 0;
    bool fresh = false;
  };

  InternResult intern(const ConfigT& value) {
    const std::size_t h = Hash{}(value);
    // Run the hash through a splitmix finalizer before extracting shard
    // bits: raw high-middle bits (the old `h >> 24`) carry little entropy
    // for some key families and concentrated whole workloads onto a few
    // shards. unordered_map buckets still consume the unmixed low bits, so
    // shard choice and in-shard placement stay decorrelated.
    const std::size_t shard_idx =
        static_cast<std::size_t>(hash_mix(h)) & kShardMask;
    Shard& s = shards_[shard_idx];
    std::lock_guard<std::mutex> lock(s.mu);
    const auto local = static_cast<std::int32_t>(s.ids.size());
    const auto [it, fresh] = s.ids.try_emplace(value, local);
    if (fresh) {
      s.entry_bytes += entry_bytes(it->first);
      total_.fetch_add(1, std::memory_order_relaxed);
    }
    return {pack(it->second, shard_idx), fresh};
  }

  std::size_t size() const { return total_.load(std::memory_order_relaxed); }

  // The shard intern(value) would land in, without interning. The
  // distributed engine (net/dist_explore.*) routes configurations by this:
  // a worker owns a contiguous shard range and only ever interns values
  // whose shard falls inside it.
  std::size_t shard_of(const ConfigT& value) const {
    return static_cast<std::size_t>(hash_mix(Hash{}(value))) & kShardMask;
  }

  // Freezes the dense remap. Call once, after all interning is done.
  void finalize() {
    std::int32_t offset = 0;
    for (std::size_t sh = 0; sh < kNumShards; ++sh) {
      offsets_[sh] = offset;
      const std::size_t occupancy = shards_[sh].ids.size();
      offset += static_cast<std::int32_t>(occupancy);
      if (occupancy > shard_peak_) shard_peak_ = occupancy;
    }
  }

  // Dense id in [0, size) for a gid returned by intern(). Valid after
  // finalize().
  std::int32_t dense(std::int64_t gid) const {
    return offsets_[static_cast<std::size_t>(gid) & kShardMask] +
           static_cast<std::int32_t>(gid >> kShardBits);
  }

  std::size_t shard_peak() const { return shard_peak_; }

  // Final occupancy of each shard, for the chi-square balance statistic.
  // Single-threaded accounting: call after exploration, not during.
  std::array<std::size_t, kNumShards> shard_occupancies() const {
    std::array<std::size_t, kNumShards> out{};
    for (std::size_t sh = 0; sh < kNumShards; ++sh) {
      out[sh] = shards_[sh].ids.size();
    }
    return out;
  }

  // Byte-level occupancy: per-entry value payload (including a vector
  // value's heap block), the hash-node overhead (next pointer + cached
  // hash), and one bucket pointer per entry. An estimate — node layouts
  // and bucket growth are implementation-defined — but measured the same
  // way for every store so packed-vs-vector ratios are meaningful.
  // Single-threaded accounting: call after exploration, not during.
  std::size_t bytes() const { return bytes_for_shard_range(0, kNumShards); }

  // Byte-level occupancy of shards [begin, end). Every charge is per entry,
  // so the total depends only on the stored values, not on how they spread
  // over shards: that spread follows state ids, which a compiled machine
  // assigns in thread-timing order. Summing disjoint ranges measured on
  // different processes equals one process measuring all 64 — the
  // distributed engine relies on this for bit-identical ledgers.
  std::size_t bytes_for_shard_range(std::size_t begin, std::size_t end) const {
    std::size_t total = 0;
    for (std::size_t sh = begin; sh < end; ++sh) {
      const Shard& s = shards_[sh];
      total += s.ids.size() * sizeof(void*) + s.entry_bytes;
    }
    return total;
  }

 private:
  using Map = std::unordered_map<ConfigT, std::int32_t, Hash>;

  struct alignas(64) Shard {
    std::mutex mu;
    Map ids;
    std::size_t entry_bytes = 0;  // sum of entry_bytes() over ids
  };

  // One entry's share of bytes(): the stored key (with a vector key's heap
  // block) and id, plus the hash node's next pointer and cached hash. Keys
  // are immutable once stored, so summing this at insert time equals a walk
  // over the nodes.
  static std::size_t entry_bytes(const ConfigT& key) {
    std::size_t bytes = sizeof(typename Map::value_type) + 2 * sizeof(void*);
    if constexpr (requires { key.capacity(); }) {
      bytes += key.capacity() * sizeof(typename ConfigT::value_type);
    }
    return bytes;
  }

  static std::int64_t pack(std::int32_t local, std::size_t shard) {
    return (static_cast<std::int64_t>(local) << kShardBits) |
           static_cast<std::int64_t>(shard);
  }

  std::array<Shard, kNumShards> shards_;
  std::array<std::int32_t, kNumShards> offsets_{};
  std::atomic<std::size_t> total_{0};
  std::size_t shard_peak_ = 0;
};

// One BFS frontier entry of the in-memory engine: the configuration is a
// value copy, so a worker never reads another shard's value vector.
template <typename ConfigT>
struct FrontierEntry {
  std::int64_t gid = 0;
  ConfigT config;
};

// The FrontierBytes ledger charge per frontier entry: the entry plus a
// vector configuration's heap block, sized like `config`. The distributed
// coordinator replicates the engine's account through this.
template <typename ConfigT>
std::size_t frontier_entry_bytes(const ConfigT& config) {
  std::size_t bytes = sizeof(FrontierEntry<ConfigT>);
  if constexpr (requires { config.capacity(); }) {
    bytes += config.capacity() * sizeof(typename ConfigT::value_type);
  }
  return bytes;
}

// Worker count for exploring `machine` under `budget`: machines whose
// step() is not thread-safe are clamped to one worker (the engine still
// runs, just sequentially — results are identical either way).
inline int explore_threads(const Machine& machine,
                           const ExploreBudget& budget) {
  const int t = budget.resolve_threads();
  return machine.parallel_step_safe() ? t : 1;
}

// Explores the configuration graph from `initial` and classifies its bottom
// SCCs, interning into a caller-supplied store.
//
//  * `store` implements the ShardedConfigStore contract — intern() /
//    size() / finalize() / dense() / shard_peak() / bytes(). The packed
//    store (semantics/packed_config.hpp) is the other implementation.
//  * make_expander(worker) must return a per-worker expander; calling
//    expander(config, emit) invokes emit(succ) once per successor of
//    `config` (duplicates allowed; silent self-steps must be skipped). The
//    emitted reference may point at worker-local scratch — the engine
//    copies what it keeps.
//  * verdict_of(config) returns the configuration's uniform verdict
//    (Neutral if mixed). Called once per distinct configuration, from
//    whichever worker interned it first.
//
// Both callables run concurrently on budget.resolve_threads() workers; pass
// a budget clamped via explore_threads() when the machine is not
// thread-safe.
template <typename ConfigT, typename Store, typename MakeExpander,
          typename VerdictOf>
ExploreOutcome explore_and_classify_in(Store& store, const ConfigT& initial,
                                       MakeExpander&& make_expander,
                                       VerdictOf&& verdict_of,
                                       const ExploreBudget& budget,
                                       ExploreStats* stats_out = nullptr) {
  const int threads = budget.resolve_threads();
  DeadlineClock deadline(budget);

  // Ambient telemetry, read once and propagated by value into the worker
  // lambdas (thread_locals do not cross thread boundaries). Every hook
  // below is a null-check when telemetry is off; none of them feeds back
  // into the exploration, so the outcome is identical either way.
  const obs::Telemetry tel = obs::telemetry();
  obs::ExploreProgress* const progress = tel.progress;
  if (progress != nullptr) progress->reset();

  using Entry = FrontierEntry<ConfigT>;
  struct WorkerBuffers {
    std::vector<Entry> next;
    std::vector<std::pair<std::int64_t, Verdict>> verdicts;
    std::size_t steals = 0;
  };

  WorkerPool pool(threads);
  const auto num_workers = static_cast<std::size_t>(pool.num_workers());
  std::vector<WorkerBuffers> buffers(num_workers);
  std::vector<GidEdges> edges(num_workers);  // per worker, build_csr's input
  std::vector<decltype(make_expander(0))> expanders;
  expanders.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    expanders.push_back(make_expander(static_cast<int>(w)));
  }

  ExploreStats stats;
  stats.threads = pool.num_workers();

  std::vector<Entry> frontier;
  {
    const auto seeded = store.intern(initial);
    frontier.push_back({seeded.gid, initial});
    buffers[0].verdicts.emplace_back(seeded.gid, verdict_of(initial));
  }

  bool capped = false;
  bool expired = false;
  while (!frontier.empty()) {
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
    // Chunks small enough that uneven expansion cost rebalances, large
    // enough that the cursor isn't contended.
    const std::size_t chunk =
        std::min<std::size_t>(256, frontier.size() / (num_workers * 4) + 1);
    std::atomic<std::size_t> cursor{0};
    pool.run([&, tel](int worker) {
      const obs::TelemetryScope telemetry_scope(tel);
      WorkerBuffers& buf = buffers[static_cast<std::size_t>(worker)];
      GidEdges& out_edges = edges[static_cast<std::size_t>(worker)];
      auto& expander = expanders[static_cast<std::size_t>(worker)];
      for (;;) {
        // Overshooting workers only waste a capped level's tail; the
        // outcome is already determined, so stop claiming work.
        if (store.size() > budget.max_configs) break;
        if (deadline.enabled() && deadline.expired()) break;
        const std::size_t begin = cursor.fetch_add(chunk);
        if (begin >= frontier.size()) break;
        const std::size_t end = std::min(begin + chunk, frontier.size());
        if ((begin / chunk) % num_workers !=
            static_cast<std::size_t>(worker)) {
          ++buf.steals;  // claim deviates from a static round-robin split
        }
        for (std::size_t i = begin; i < end; ++i) {
          const Entry& entry = frontier[i];
          expander(entry.config, [&](const ConfigT& succ) {
            const auto interned = store.intern(succ);
            out_edges.emplace_back(entry.gid, interned.gid);
            if (interned.fresh) {
              buf.verdicts.emplace_back(interned.gid, verdict_of(succ));
              buf.next.push_back({interned.gid, succ});
              if (progress != nullptr) {
                progress->shard_sizes[static_cast<std::size_t>(interned.gid) &
                                      Store::kShardMask]
                    .fetch_add(1, std::memory_order_relaxed);
              }
            }
          });
        }
      }
    });
    if (progress != nullptr) {
      progress->configs.store(store.size(), std::memory_order_relaxed);
      std::uint64_t edges_so_far = 0;
      for (const auto& out_edges : edges) edges_so_far += out_edges.size();
      progress->edges.store(edges_so_far, std::memory_order_relaxed);
    }
    if (store.size() > budget.max_configs) {
      capped = true;
      break;
    }
    if (deadline.expired()) {
      expired = true;
      break;
    }
    frontier.clear();
    for (auto& buf : buffers) {
      for (auto& entry : buf.next) frontier.push_back(std::move(entry));
      buf.next.clear();
    }
  }

  for (const auto& buf : buffers) stats.steals += buf.steals;

  ExploreOutcome outcome;
  if (capped || expired) {
    outcome.decision = Decision::Unknown;
    outcome.reason = capped ? UnknownReason::ConfigCap : UnknownReason::Deadline;
    // Clamp so capped outcomes are thread-count-independent: how far past
    // the cap the workers got is scheduling noise.
    outcome.num_configs =
        capped ? budget.max_configs : std::min(store.size(), budget.max_configs);
    stats.configs = outcome.num_configs;
    stats.store_bytes = store.bytes();
    if (stats_out != nullptr) *stats_out = stats;
    obs::count(obs::Counter::ExploreConfigs, stats.configs);
    obs::count(obs::Counter::ExploreLevels, stats.levels);
    obs::count(obs::Counter::ExploreSteals, stats.steals);
    obs::gauge_max(obs::Gauge::ExploreStoreBytes, stats.store_bytes);
    obs::gauge_max(obs::Gauge::ExploreFrontierPeak, stats.frontier_peak);
    obs::gauge_max(obs::Gauge::ExploreThreads,
                   static_cast<std::uint64_t>(stats.threads));
    return outcome;
  }

  store.finalize();
  const std::size_t total = store.size();
  std::vector<Verdict> verdicts(total, Verdict::Neutral);
  CsrGraph graph;
  {
    obs::SpanScope merge_span(tel.spans, obs::Phase::ExploreMerge, total);
    for (auto& buf : buffers) {
      for (const auto& [gid, verdict] : buf.verdicts) {
        verdicts[static_cast<std::size_t>(store.dense(gid))] = verdict;
      }
      decltype(buf.verdicts)().swap(buf.verdicts);
    }
    const bool in_range = build_csr(
        total, std::span<GidEdges>(edges),
        [&store](std::int64_t gid) { return store.dense(gid); }, graph);
    DAWN_CHECK_MSG(in_range, "edge endpoint outside the finalized store");
  }
  const std::size_t num_edges = graph.targets.size();

  stats.configs = total;
  stats.edges = num_edges;
  stats.shard_peak = store.shard_peak();
  stats.store_bytes = store.bytes();
  {
    const auto occupancies = store.shard_occupancies();
    stats.shard_chi2 = shard_chi_square(occupancies.data(), occupancies.size());
  }

  // Memory ledger — completed runs only, and only thread-count-invariant
  // quantities (final store occupancy, peak frontier level, edge count), so
  // the ledger keeps the DecisionReport bit-identical across thread counts.
  // Capped/deadline runs stop at a scheduling-dependent point and are
  // deliberately not accounted.
  if (tel.ledger != nullptr) {
    tel.ledger->set_max(Store::kMemoryAccount, stats.store_bytes);
    tel.ledger->set_max(obs::MemoryAccount::FrontierBytes,
                        stats.frontier_peak * frontier_entry_bytes(initial));
    tel.ledger->set_max(obs::MemoryAccount::EdgeBytes,
                        num_edges * 2 * sizeof(std::int64_t));
  }

  BottomClassification cls;
  {
    obs::SpanScope scc_span(tel.spans, obs::Phase::ExploreScc, total);
    cls = classify_bottom_sccs(graph,
                               [&](std::size_t i) { return verdicts[i]; });
  }

  outcome.decision = cls.decision;
  outcome.num_configs = total;
  outcome.num_bottom_sccs = cls.num_bottom_sccs;

  if (stats_out != nullptr) *stats_out = stats;
  obs::count(obs::Counter::ExploreConfigs, stats.configs);
  obs::count(obs::Counter::ExploreEdges, stats.edges);
  obs::count(obs::Counter::ExploreLevels, stats.levels);
  obs::count(obs::Counter::ExploreSteals, stats.steals);
  obs::gauge_max(obs::Gauge::ExploreShardPeak, stats.shard_peak);
  obs::gauge_max(obs::Gauge::ExploreStoreBytes, stats.store_bytes);
  obs::gauge_max(obs::Gauge::ExploreFrontierPeak, stats.frontier_peak);
  obs::gauge_max(obs::Gauge::ExploreThreads,
                 static_cast<std::uint64_t>(stats.threads));
  return outcome;
}

// Convenience wrapper with a locally-constructed vector-backed store — the
// original entry point; the counted deciders use it unchanged.
template <typename ConfigT, typename Hash, typename MakeExpander,
          typename VerdictOf>
ExploreOutcome explore_and_classify(const ConfigT& initial,
                                    MakeExpander&& make_expander,
                                    VerdictOf&& verdict_of,
                                    const ExploreBudget& budget,
                                    ExploreStats* stats_out = nullptr) {
  ShardedConfigStore<ConfigT, Hash> store;
  return explore_and_classify_in<ConfigT>(
      store, initial, std::forward<MakeExpander>(make_expander),
      std::forward<VerdictOf>(verdict_of), budget, stats_out);
}

}  // namespace dawn
