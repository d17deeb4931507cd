// Frontier-parallel sharded explicit-state exploration.
//
// The generic engine behind the parallel pseudo-stochastic deciders
// (explicit configurations, counted clique / star configurations). It runs
// a level-synchronous BFS over the configuration graph:
//
//  * configurations are interned into a hash-sharded store (64 shards);
//    each worker of a persistent WorkerPool (semantics/trials.hpp) owns a
//    contiguous shard range, and only the owner writes a shard;
//  * a BFS level is a vector of gids, and each level runs in two
//    barrier-separated phases: in phase A workers claim fixed-size frontier
//    chunks through an atomic cursor, read each configuration from the
//    store without a lock, record its verdict, expand it and route every
//    successor to the owner of its shard, only reading the store; in phase
//    B each owner interns what was routed to it, lock-free, and records the
//    edges and the next level's gids. No two workers write one cache line
//    at the same time;
//  * the per-worker edge buffers are merged into one CSR by counting sort,
//    condensed by the iterative Tarjan in semantics/scc.{hpp,cpp} and
//    classified by the bottom-SCC rule.
//
// Spill mode: when the store spills (a PackedConfigStore given a spill dir
// and a byte budget), the same loop runs out of core. Full edge blocks go
// to per-owner EdgeSpool files (semantics/tiered_config.hpp), the store
// spills its arenas at level ends, and the spooled edges are classified
// from disk. docs/ENGINE.md "The tiered store" has the rules.
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
#include <optional>
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
#include "dawn/semantics/tiered_config.hpp"
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
  // Spill-mode runs only — zero in memory. All thread-count-invariant on
  // completed runs: spilling happens at level boundaries against level-end
  // store contents (docs/ENGINE.md "The tiered store").
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
//
// Two ways in. intern() locks the value's shard and may be called from any
// thread. route() + drain() are the owner-partitioned path of
// explore_and_classify_in: route() (const, lock-free) appends a value to the
// batch of the worker that owns its shard, and drain() — called only by
// that owner, while no other thread touches its shards — interns a batch
// without locking. Both paths share one probe-and-insert step, so they
// assign ids and charge bytes() identically. value() reads a stored value
// back by gid, lock-free, while no thread changes its shard: each shard
// keeps a pointer to every stored key (unordered_map nodes never move).
template <typename ConfigT, typename Hash>
class ShardedConfigStore {
  struct Routed {
    std::int64_t src = 0;
    std::uint32_t shard = 0;
    ConfigT value;
  };

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

  // Values routed to one owner: (source gid, shard, value copy) items.
  // clear() keeps the items and their capacity, so a batch that is reused
  // level after level allocates only when it outgrows every earlier level.
  // One cache line each: a worker grows its batches on every successor.
  class alignas(64) Batch {
   public:
    void clear() { size_ = 0; }
    std::size_t size() const { return size_; }

   private:
    friend class ShardedConfigStore;
    std::vector<Routed> items_;
    std::size_t size_ = 0;
  };

  InternResult intern(const ConfigT& value) {
    const std::size_t shard_idx = shard_of(value);
    Shard& s = shards_[shard_idx];
    std::lock_guard<std::mutex> lock(s.mu);
    const auto [it, fresh] = find_or_insert(s, value);
    if (fresh) total_.fetch_add(1, std::memory_order_relaxed);
    return {pack(it->second, shard_idx), fresh};
  }

  // Appends (src, value) to batches[owner_of_shard[shard_of(value)]],
  // hashing the value once. Reads no shard.
  void route(const ConfigT& value, std::int64_t src, std::span<Batch> batches,
             std::span<const std::uint32_t, kNumShards> owner_of_shard) const {
    const std::size_t shard = shard_of(value);
    Batch& b = batches[owner_of_shard[shard]];
    if (b.size_ == b.items_.size()) {
      b.items_.push_back({src, static_cast<std::uint32_t>(shard), value});
    } else {
      Routed& r = b.items_[b.size_];
      r.src = src;
      r.shard = static_cast<std::uint32_t>(shard);
      r.value = value;
    }
    ++b.size_;
  }

  // Interns every item of `batch`, in order, calling fn(src, gid, fresh)
  // for each, where `fresh` says whether this call inserted it.
  // Owner-only: the caller must be the one thread touching the batch's
  // shards until it returns. Takes no lock.
  template <typename Fn>
  void drain(const Batch& batch, Fn&& fn) {
    std::size_t inserted = 0;
    for (std::size_t i = 0; i < batch.size_; ++i) {
      const Routed& r = batch.items_[i];
      const auto [it, fresh] = find_or_insert(shards_[r.shard], r.value);
      inserted += fresh ? 1 : 0;
      fn(r.src, pack(it->second, r.shard), fresh);
    }
    total_.fetch_add(inserted, std::memory_order_relaxed);
  }

  // The stored value of a gid. Lock-free: no thread may change the gid's
  // shard meanwhile. `scratch` is unused; the packed store decodes into it.
  const ConfigT& value(std::int64_t gid, ConfigT& /*scratch*/) const {
    const Shard& s = shards_[static_cast<std::size_t>(gid) & kShardMask];
    return *s.keys[static_cast<std::size_t>(gid >> kShardBits)];
  }

  std::size_t size() const { return total_.load(std::memory_order_relaxed); }

  // The shard intern(value) would land in, without interning: route()'s
  // key, and the distributed engine's (net/dist_explore.*), where a worker
  // process owns a contiguous shard range and only ever interns values
  // whose shard falls inside it.
  std::size_t shard_of(const ConfigT& value) const {
    // Run the hash through a splitmix finalizer before extracting shard
    // bits: raw high-middle bits (the old `h >> 24`) carry little entropy
    // for some key families and concentrated whole workloads onto a few
    // shards. unordered_map buckets still consume the unmixed low bits, so
    // shard choice and in-shard placement stay decorrelated.
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
  // hash), one bucket pointer and value()'s key pointer. An estimate —
  // node layouts and bucket growth are implementation-defined — but
  // measured the same way for every store so packed-vs-vector ratios are
  // meaningful.
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
      total += s.ids.size() * sizeof(void*) +
               s.keys.size() * sizeof(const ConfigT*) + s.entry_bytes;
    }
    return total;
  }

 private:
  using Map = std::unordered_map<ConfigT, std::int32_t, Hash>;

  struct alignas(64) Shard {
    std::mutex mu;
    Map ids;
    std::vector<const ConfigT*> keys;  // by local id: the stored key
    std::size_t entry_bytes = 0;  // sum of entry_bytes() over ids
  };

  // The probe-and-insert step of intern() and drain(). The caller holds
  // s.mu or owns the shard; it also counts a fresh insert into total_.
  static std::pair<typename Map::const_iterator, bool> find_or_insert(
      Shard& s, const ConfigT& value) {
    const auto local = static_cast<std::int32_t>(s.ids.size());
    const auto [it, fresh] = s.ids.try_emplace(value, local);
    if (fresh) {
      s.entry_bytes += entry_bytes(it->first);
      s.keys.push_back(&it->first);
    }
    return {it, fresh};
  }

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
//    route() / drain() / value() / size() / finalize() / dense() /
//    shard_peak() / bytes(). The packed store (semantics/packed_config.hpp)
//    is the other implementation, and the only one that can spill.
//  * make_expander(worker) must return a per-worker expander; calling
//    expander(config, emit) invokes emit(succ) once per successor of
//    `config` (duplicates allowed; silent self-steps must be skipped). The
//    emitted reference may point at worker-local scratch — the engine
//    copies what it keeps.
//  * verdict_of(config) returns the configuration's uniform verdict
//    (Neutral if mixed). Called once per configuration the run expands, by
//    the worker that expands it.
//
// Each BFS level is a vector of gids and runs in two phases separated by a
// barrier. The 64 shards are split into one contiguous owner range per
// worker (workers past the 64th own none):
//
//  * phase A — workers claim frontier chunks, read each configuration with
//    value(), record its verdict, expand it and route() each successor
//    into a batch for the owner of its shard. The store is only read;
//  * phase B — each owner drain()s the batches addressed to it into its own
//    shards without a lock, recording every edge and the gid of every fresh
//    configuration.
//
// A completed run expands every reachable configuration exactly once, so
// it has every verdict; capped and deadline runs use none. In spill mode
// (store.spills()) the level end also spills the store and checks the
// resident index against the budget (UnknownReason::MemoryCap), full edge
// blocks go to an EdgeSpool, and the classification reads the spool back.
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

  using Expander = decltype(make_expander(0));
  // One worker's state, on cache lines of its own. In phase B an owner
  // also clears the batches routed to it, each on its own line.
  struct alignas(64) Worker {
    explicit Worker(Expander e) : expander(std::move(e)) {}
    Expander expander;
    ConfigT scratch;  // phase A: value()'s decoded configuration
    std::vector<typename Store::Batch> out;  // phase A: by owner
    std::vector<std::pair<std::int64_t, Verdict>> verdicts;  // phase A
    std::size_t steals = 0;
    // Phase B: every edge into an owned shard, in edge_block-pair blocks.
    std::vector<GidEdges> edges = std::vector<GidEdges>(1);
    std::vector<std::int64_t> next;  // phase B: fresh gids
  };

  WorkerPool pool(threads);
  const auto num_workers = static_cast<std::size_t>(pool.num_workers());
  const std::size_t num_owners = std::min(num_workers, Store::kNumShards);
  std::array<std::uint32_t, Store::kNumShards> owner_of_shard{};
  for (std::size_t sh = 0; sh < Store::kNumShards; ++sh) {
    owner_of_shard[sh] =
        static_cast<std::uint32_t>(sh * num_owners / Store::kNumShards);
  }
  std::vector<Worker> workers;
  workers.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    workers.emplace_back(make_expander(static_cast<int>(w)));
    workers.back().out.resize(num_owners);
  }
  // Spill mode: only the packed store can spill, and it does when its
  // budget names a spill dir and a byte cap. Edges then go to one spool
  // file per owner.
  constexpr bool kCanSpill = requires { store.spill_to_budget(); };
  std::optional<EdgeSpool> spool;
  if constexpr (kCanSpill) {
    if (store.spills()) {
      spool.emplace(budget.spill_dir, static_cast<int>(num_owners));
    }
  }
  // A worker's edges fill one buffer that grows by doubling up to
  // kEdgeBlock pairs (2 MiB) and then blocks of kEdgeBlock each, so a large
  // exploration never copies or frees an edge buffer while workers run.
  // build_csr takes the blocks as they are. In spill mode the one block
  // holds EdgeSpool::kBlockPairs and goes to the owner's spool file each
  // time it fills.
  constexpr std::size_t kEdgeBlock = std::size_t{1} << 17;
  const std::size_t edge_block = spool ? EdgeSpool::kBlockPairs : kEdgeBlock;

  ExploreStats stats;
  stats.threads = pool.num_workers();

  std::vector<std::int64_t> frontier{store.intern(initial).gid};

  bool capped = false;
  bool expired = false;
  bool mem_capped = false;
  bool io_failed = spool && !spool->ok();
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
    // Phase A. Chunks small enough that uneven expansion cost rebalances,
    // large enough that the cursor isn't contended.
    const std::size_t chunk =
        std::min<std::size_t>(256, frontier.size() / (num_workers * 4) + 1);
    std::atomic<std::size_t> cursor{0};
    pool.run([&, tel](int w) {
      const obs::TelemetryScope telemetry_scope(tel);
      Worker& self = workers[static_cast<std::size_t>(w)];
      const auto batches = std::span(self.out);
      for (;;) {
        if (deadline.enabled() && deadline.expired()) break;
        const std::size_t begin = cursor.fetch_add(chunk);
        if (begin >= frontier.size()) break;
        const std::size_t end = std::min(begin + chunk, frontier.size());
        if ((begin / chunk) % num_workers != static_cast<std::size_t>(w)) {
          ++self.steals;  // claim deviates from a static round-robin split
        }
        for (std::size_t i = begin; i < end; ++i) {
          const std::int64_t gid = frontier[i];
          const ConfigT& config = store.value(gid, self.scratch);
          self.verdicts.emplace_back(gid, verdict_of(config));
          self.expander(config, [&](const ConfigT& succ) {
            store.route(succ, gid, batches, owner_of_shard);
          });
        }
      }
    });
    // Phase B. An owner stops once the store passes the cap: the level's
    // outcome is already determined, and the count is clamped below.
    std::size_t routed = 0;
    for (const Worker& worker : workers) {
      for (const auto& batch : worker.out) routed += batch.size();
    }
    {
      obs::SpanScope intern_span(tel.spans, obs::Phase::ExploreIntern, routed);
      pool.run([&, tel](int w) {
        const auto owner = static_cast<std::size_t>(w);
        if (owner >= num_owners) return;
        const obs::TelemetryScope telemetry_scope(tel);
        Worker& self = workers[owner];
        for (Worker& from : workers) {
          if (store.size() > budget.max_configs) break;
          if (deadline.enabled() && deadline.expired()) break;
          auto& batch = from.out[owner];
          store.drain(batch, [&](std::int64_t src, std::int64_t gid,
                                 bool fresh) {
            if (self.edges.back().size() == edge_block) {
              if (spool) {
                spool->append_block(w, self.edges.back());
                self.edges.back().clear();
              } else {
                self.edges.emplace_back().reserve(kEdgeBlock);
              }
            }
            self.edges.back().emplace_back(src, gid);
            if (!fresh) return;
            self.next.push_back(gid);
            if (progress != nullptr) {
              progress->shard_sizes[static_cast<std::size_t>(gid) &
                                    Store::kShardMask]
                  .fetch_add(1, std::memory_order_relaxed);
            }
          });
          batch.clear();
        }
      });
    }
    if (progress != nullptr) {
      progress->configs.store(store.size(), std::memory_order_relaxed);
      std::uint64_t edges_so_far = spool ? spool->num_edges() : 0;
      for (const Worker& worker : workers) {
        for (const GidEdges& block : worker.edges) edges_so_far += block.size();
      }
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
    // Each fresh gid was interned by exactly one owner, so the
    // concatenation is the next level without duplicates.
    frontier.clear();
    for (Worker& worker : workers) {
      frontier.insert(frontier.end(), worker.next.begin(), worker.next.end());
      worker.next.clear();
    }
    if constexpr (kCanSpill) {
      // Spill mode's level end: spill against the level-end contents, then
      // give up (MemoryCap) if the always-resident index alone is over
      // budget.
      if (spool && store.resident_bytes() > store.max_resident_bytes()) {
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
  }

  // The routed batches and frontiers are dead once the BFS ends: release
  // them before the merge and the SCC pass allocate.
  for (Worker& worker : workers) {
    stats.steals += worker.steals;
    decltype(worker.out)().swap(worker.out);
    decltype(worker.next)().swap(worker.next);
  }
  decltype(frontier)().swap(frontier);

  if constexpr (kCanSpill) {
    if (spool) {
      // The owners' partly filled blocks.
      for (std::size_t owner = 0; owner < num_owners; ++owner) {
        GidEdges& tail = workers[owner].edges.back();
        spool->append_block(static_cast<int>(owner), tail);
        GidEdges().swap(tail);
      }
      if (!spool->ok()) io_failed = true;
      stats.spill_arena_bytes = store.spilled_bytes();
      stats.spill_edge_bytes = io_failed ? 0 : spool->bytes();
      stats.resident_bytes = store.resident_bytes();
    }
  }

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
    outcome.reason = capped    ? UnknownReason::ConfigCap
                     : expired ? UnknownReason::Deadline
                               : UnknownReason::MemoryCap;
    // Clamp so capped outcomes are thread-count-independent: how far past
    // the cap the workers got is scheduling noise. MemoryCap aborts happen
    // at level boundaries, where store.size() is already invariant.
    outcome.num_configs =
        capped ? budget.max_configs : std::min(store.size(), budget.max_configs);
    stats.configs = outcome.num_configs;
    stats.store_bytes = store.bytes();
    if (stats_out != nullptr) *stats_out = stats;
    emit_metrics();
    return outcome;
  }

  store.finalize();
  const std::size_t total = store.size();
  const auto dense = [&store](std::int64_t gid) { return store.dense(gid); };
  std::vector<Verdict> verdicts(total, Verdict::Neutral);
  std::size_t num_edges = spool ? spool->num_edges() : 0;
  CsrGraph graph;
  {
    obs::SpanScope merge_span(tel.spans, obs::Phase::ExploreMerge, total);
    std::vector<GidEdges> edges;
    for (Worker& worker : workers) {
      for (const auto& [gid, verdict] : worker.verdicts) {
        verdicts[static_cast<std::size_t>(dense(gid))] = verdict;
      }
      decltype(worker.verdicts)().swap(worker.verdicts);
      for (GidEdges& block : worker.edges) {
        num_edges += block.size();
        edges.push_back(std::move(block));
      }
    }
    if (!spool) {
      const bool in_range =
          build_csr(total, std::span<GidEdges>(edges), dense, graph);
      DAWN_CHECK_MSG(in_range, "edge endpoint outside the finalized store");
    }
  }

  stats.configs = total;
  stats.edges = num_edges;
  stats.shard_peak = store.shard_peak();
  stats.store_bytes = store.bytes();
  {
    const auto occupancies = store.shard_occupancies();
    stats.shard_chi2 = shard_chi_square(occupancies.data(), occupancies.size());
  }

  // Memory ledger — completed runs only, and only thread-count-invariant
  // quantities (final store occupancy, peak frontier level, edge count,
  // level-end spills), so the ledger keeps the DecisionReport bit-identical
  // across thread counts. Capped/deadline runs stop at a
  // scheduling-dependent point and are deliberately not accounted.
  if (tel.ledger != nullptr) {
    tel.ledger->set_max(obs::MemoryAccount::FrontierBytes,
                        stats.frontier_peak * sizeof(std::int64_t));
    if (spool) {
      tel.ledger->set_max(obs::MemoryAccount::TieredResidentBytes,
                          stats.resident_bytes);
      tel.ledger->set_max(obs::MemoryAccount::SpillArenaBytes,
                          stats.spill_arena_bytes);
      tel.ledger->set_max(obs::MemoryAccount::SpillEdgeBytes,
                          stats.spill_edge_bytes);
    } else {
      tel.ledger->set_max(Store::kMemoryAccount, stats.store_bytes);
      tel.ledger->set_max(obs::MemoryAccount::EdgeBytes,
                          num_edges * 2 * sizeof(std::int64_t));
    }
  }

  {
    obs::SpanScope scc_span(tel.spans, obs::Phase::ExploreScc, total);
    if (!spool) {
      const BottomClassification cls = classify_bottom_sccs(
          graph, [&](std::size_t i) { return verdicts[i]; });
      outcome.decision = cls.decision;
      outcome.num_configs = total;
      outcome.num_bottom_sccs = cls.num_bottom_sccs;
    } else if constexpr (kCanSpill) {
      // The classification CSR may use up to this many bytes: a formula
      // over the budget, so MemoryCap here is deterministic too.
      const std::size_t classify_cap =
          std::max<std::size_t>(store.max_resident_bytes() * 8, 64u << 20);
      outcome =
          classify_bottom_sccs_external(*spool, verdicts, dense, classify_cap);
    }
  }

  if (stats_out != nullptr) *stats_out = stats;
  emit_metrics();
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
