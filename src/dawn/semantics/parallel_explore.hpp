// Frontier-parallel sharded explicit-state exploration.
//
// The one BFS engine behind the parallel pseudo-stochastic deciders
// (explicit configurations, counted clique / star configurations). It runs
// a level-synchronous BFS over the configuration graph:
//
//  * configurations are interned into a hash-sharded store (64 shards);
//    each worker of a persistent WorkerPool (semantics/trials.hpp) owns a
//    contiguous shard range, and only the owner writes a shard;
//  * a BFS level is a vector of gids and runs in two barrier-separated
//    phases: in phase A workers claim frontier chunks through an atomic
//    cursor, expand them and route every successor to the owner of its
//    shard, only reading the store; in phase B each owner interns what was
//    routed to it, lock-free. No two workers write one cache line at the
//    same time;
//  * phase B records each edge at its target's owner as an 8-byte
//    (target gid, source gid) pair, and phase A marks every configuration
//    that emits no successor as a sink in its verdict byte. After the last
//    level each owner counting-sorts its own pairs into its own rows of
//    one reverse CSR, on the same pool, and a sink closure plus the
//    iterative Tarjan of semantics/scc.{hpp,cpp}, run only on what the
//    closure leaves, classify its bottom SCCs.
//
// LevelExplorer holds the level loop's steps, and explore_and_classify_in
// drives them. Spill mode: when the store spills (a PackedConfigStore given
// a spill dir and a byte budget), the same steps run out of core, with full
// edge blocks in per-owner EdgeSpool files (semantics/tiered_config.hpp)
// that each owner sorts back from; docs/ENGINE.md "The tiered store" has
// the rules.
//
// Ids: edges hold gids in 32 bits, which holds while every shard has at
// most 2^26 configurations, and the classification numbers configurations
// by int32 dense ids. A run that outgrows either stops at the level end
// with UnknownReason::MemoryCap (fits_engine_ids).
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
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <type_traits>
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
  // key.
  std::size_t shard_of(const ConfigT& value) const {
    // Run the hash through a splitmix finalizer before extracting shard
    // bits: raw high-middle bits (the old `h >> 24`) carry little entropy
    // for some key families and concentrated whole workloads onto a few
    // shards. unordered_map buckets still consume the unmixed low bits, so
    // shard choice and in-shard placement stay decorrelated.
    return static_cast<std::size_t>(hash_mix(Hash{}(value))) & kShardMask;
  }

  // Freezes the dense remap. Call once, after all interning is done, on at
  // most INT32_MAX values.
  void finalize() {
    DAWN_CHECK_MSG(size() <= static_cast<std::size_t>(
                                 std::numeric_limits<std::int32_t>::max()),
                   "dense ids are int32");
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
  // meaningful. Every charge is per entry, so the total depends only on
  // the stored values, not on how they spread over shards: that spread
  // follows state ids, which a compiled machine assigns in thread-timing
  // order. Single-threaded accounting: call after exploration, not during.
  std::size_t bytes() const {
    std::size_t total = 0;
    for (const Shard& s : shards_) {
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

// The memory ledger of a completed in-memory run: only
// thread-count-invariant quantities (final store occupancy, peak frontier
// level, edge count), so the ledger keeps the DecisionReport bit-identical
// across thread counts.
inline void account_explored(obs::MemoryLedger& ledger,
                             obs::MemoryAccount store_account,
                             std::size_t store_bytes,
                             std::size_t frontier_peak, std::uint64_t edges) {
  ledger.set_max(store_account, store_bytes);
  ledger.set_max(obs::MemoryAccount::FrontierBytes,
                 frontier_peak * sizeof(std::int64_t));
  ledger.set_max(obs::MemoryAccount::EdgeBytes,
                 edges * sizeof(GidEdges::value_type));
}

// Whether a store of `size` configurations, with `occupancies` per shard
// of 2^shard_bits, fits the engine's ids: every gid (local id, shard) in
// 32 bits, and every dense id below INT32_MAX, which the classification
// keeps above every node id.
inline bool fits_engine_ids(std::size_t size,
                            std::span<const std::size_t> occupancies,
                            int shard_bits) {
  const std::size_t max_occupancy = std::size_t{1} << (32 - shard_bits);
  return size < static_cast<std::size_t>(
                    std::numeric_limits<std::int32_t>::max()) &&
         std::all_of(occupancies.begin(), occupancies.end(),
                     [&](std::size_t o) { return o <= max_occupancy; });
}

// One exploration's BFS as the steps of its level loop: seed(), then per
// level expand() (phase A), intern_routed() (phase B) and end_level(), and
// after the last level finish_levels() and, for a completed run,
// classify(). explore_and_classify_in below drives them.
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
//    the worker that expands it, so a completed run has every verdict and
//    knows every sink.
//
// The owner map splits the 64 shards into one contiguous range per worker
// (shard s goes to worker s * min(W, 64) / 64); workers past the 64th own
// none. Both callables run concurrently on budget.resolve_threads()
// workers; pass a budget clamped via explore_threads() when the machine is
// not thread-safe.
template <typename ConfigT, typename Store, typename MakeExpander,
          typename VerdictOf>
class LevelExplorer {
  using Expander = std::invoke_result_t<MakeExpander&, int>;
  static constexpr bool kCanSpill = requires(Store& s) { s.spill_to_budget(); };

  // One worker's state, on cache lines of its own. In phase B an owner
  // also clears the batches routed to it, each on its own line.
  struct alignas(64) Worker {
    explicit Worker(Expander e) : expander(std::move(e)) {}
    Expander expander;
    ConfigT scratch;  // phase A: value()'s decoded configuration
    std::vector<typename Store::Batch> out;  // phase A: one per owner
    std::size_t steals = 0;
    // Phase B: every edge into an owned shard, in edge_block-pair blocks;
    // after the last level the owner sorts them into its CSR rows.
    std::vector<GidEdges> edges = std::vector<GidEdges>(1);
    std::vector<std::int64_t> next;  // phase B: fresh gids
  };

  // One shard's verdict bytes (verdict_byte) by local id, one per
  // configuration. The owner appends a slot when it interns a fresh
  // configuration (phase B and the seed), and the worker that expands the
  // configuration fills it in phase A, while no array grows: its verdict,
  // and kSinkBit if it emitted no successor. Concatenated in shard order,
  // the arrays are in dense order. Each on a cache line of its own: owners
  // append to their shards' arrays concurrently in phase B.
  struct alignas(64) ShardVerdicts {
    std::vector<std::uint8_t> slots;
  };

  // An owner's edges fill one buffer that grows by doubling up to
  // kEdgeBlock pairs (1 MiB) and then blocks of kEdgeBlock each, so a large
  // exploration never copies or frees an edge buffer while workers run.
  // The owner sorts the blocks as they are and frees each as it scatters
  // it. In spill mode the one block holds EdgeSpool::kBlockPairs and goes
  // to the owner's spool file each time it fills.
  static constexpr std::size_t kEdgeBlock = std::size_t{1} << 17;

 public:
  // How a level ended: go on, or stop because spilling failed, or the
  // resident index alone is over budget or the store outgrew the engine's
  // ids (UnknownReason::MemoryCap).
  enum class LevelEnd { Next, IoFailed, MemoryCap };

  LevelExplorer(Store& store, MakeExpander& make_expander,
                VerdictOf& verdict_of, const ExploreBudget& budget)
      : store_(store),
        verdict_of_(verdict_of),
        budget_(budget),
        deadline_(budget),
        // Ambient telemetry, read once and propagated by value into the
        // worker lambdas (thread_locals do not cross thread boundaries).
        // Every hook is a null-check when telemetry is off; none of them
        // feeds back into the exploration, so the outcome is identical
        // either way.
        tel_(obs::telemetry()),
        pool_(budget.resolve_threads()),
        num_workers_(static_cast<std::size_t>(pool_.num_workers())),
        num_owners_(std::min(num_workers_, Store::kNumShards)) {
    if (tel_.progress != nullptr) tel_.progress->reset();
    for (std::size_t sh = 0; sh < Store::kNumShards; ++sh) {
      owner_of_shard_[sh] =
          static_cast<std::uint32_t>(sh * num_owners_ / Store::kNumShards);
    }
    workers_.reserve(num_workers_);
    for (std::size_t w = 0; w < num_workers_; ++w) {
      workers_.emplace_back(make_expander(static_cast<int>(w)));
      workers_.back().out.resize(num_owners_);
    }
    // Spill mode: only the packed store can spill, and it does when its
    // budget names a spill dir and a byte cap. Edges then go to one spool
    // file per owner.
    if constexpr (kCanSpill) {
      if (store.spills()) {
        spool_.emplace(budget.spill_dir, static_cast<int>(num_owners_));
        io_failed_ = !spool_->ok();
      }
    }
    edge_block_ = spool_ ? EdgeSpool::kBlockPairs : kEdgeBlock;
    stats_.threads = pool_.num_workers();
  }

  // Interns `initial` as the first level.
  void seed(const ConfigT& initial) {
    root_ = store_.intern(initial).gid;
    add_verdict_slot(root_);
    frontier_.push_back(root_);
  }

  // Phase A. Every worker checks the deadline once per frontier chunk it
  // claims, and stops once it has passed.
  void expand() {
    ++stats_.levels;
    stats_.frontier_peak = std::max(stats_.frontier_peak, frontier_.size());
    if (obs::ExploreProgress* const progress = tel_.progress) {
      progress->level.store(stats_.levels, std::memory_order_relaxed);
      progress->frontier.store(frontier_.size(), std::memory_order_relaxed);
      if (deadline_.enabled()) {
        progress->deadline_ms_remaining.store(deadline_.remaining_ms(),
                                              std::memory_order_relaxed);
      }
    }
    // Chunks small enough that uneven expansion cost rebalances, large
    // enough that the cursor isn't contended.
    const std::size_t chunk =
        std::min<std::size_t>(256, frontier_.size() / (num_workers_ * 4) + 1);
    std::atomic<std::size_t> cursor{0};
    pool_.run([&, tel = tel_](int w) {
      const obs::TelemetryScope telemetry_scope(tel);
      Worker& self = workers_[static_cast<std::size_t>(w)];
      const auto batches = std::span(self.out);
      for (;;) {
        if (deadline_.enabled() && deadline_.expired()) break;
        const std::size_t begin = cursor.fetch_add(chunk);
        if (begin >= frontier_.size()) break;
        const std::size_t end = std::min(begin + chunk, frontier_.size());
        if ((begin / chunk) % num_workers_ != static_cast<std::size_t>(w)) {
          ++self.steals;  // claim deviates from a static round-robin split
        }
        for (std::size_t i = begin; i < end; ++i) {
          const std::int64_t gid = frontier_[i];
          const ConfigT& config = store_.value(gid, self.scratch);
          const Verdict verdict = verdict_of_(config);
          bool sink = true;
          self.expander(config, [&](const ConfigT& succ) {
            sink = false;
            store_.route(succ, gid, batches, owner_of_shard_);
          });
          verdict_slot(gid) = verdict_byte(verdict, sink);
        }
      }
    });
  }

  // Phase B. An owner stops once the store passes the cap: the level's
  // outcome is already determined, and the driver clamps the count.
  void intern_routed() {
    std::size_t routed = 0;
    for (const Worker& worker : workers_) {
      for (const auto& batch : worker.out) routed += batch.size();
    }
    obs::ExploreProgress* const progress = tel_.progress;
    {
      obs::SpanScope intern_span(tel_.spans, obs::Phase::ExploreIntern,
                                 routed);
      pool_.run([&, tel = tel_](int w) {
        const auto owner = static_cast<std::size_t>(w);
        if (owner >= num_owners_) return;
        const obs::TelemetryScope telemetry_scope(tel);
        Worker& self = workers_[owner];
        for (Worker& from : workers_) {
          if (store_.size() > budget_.max_configs) break;
          if (deadline_.enabled() && deadline_.expired()) break;
          auto& batch = from.out[owner];
          store_.drain(batch, [&](std::int64_t src, std::int64_t gid,
                                  bool fresh) {
            if (self.edges.back().size() == edge_block_) {
              if (spool_) {
                spool_->append_block(w, self.edges.back());
                self.edges.back().clear();
              } else {
                self.edges.emplace_back().reserve(kEdgeBlock);
              }
            }
            // Narrowed: end_level() stops the run before a gid outgrows
            // 32 bits.
            self.edges.back().emplace_back(static_cast<std::uint32_t>(gid),
                                           static_cast<std::uint32_t>(src));
            if (!fresh) return;
            add_verdict_slot(gid);
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
      progress->configs.store(store_.size(), std::memory_order_relaxed);
      progress->edges.store(num_edges(), std::memory_order_relaxed);
    }
  }

  // The level end: the fresh gids become the frontier. The run gives up
  // if the store outgrew the engine's ids. In spill mode the store then
  // spills against the level-end contents, and the run must give up if
  // the always-resident index alone is over budget.
  LevelEnd end_level() {
    // Each fresh gid was interned by exactly one owner, so the
    // concatenation is the next level without duplicates.
    frontier_.clear();
    for (Worker& worker : workers_) {
      frontier_.insert(frontier_.end(), worker.next.begin(),
                       worker.next.end());
      worker.next.clear();
    }
    const auto occupancies = store_.shard_occupancies();
    if (!fits_engine_ids(store_.size(), occupancies, Store::kShardBits)) {
      return LevelEnd::MemoryCap;
    }
    if constexpr (kCanSpill) {
      if (spool_ && store_.resident_bytes() > store_.max_resident_bytes()) {
        obs::SpanScope spill_span(tel_.spans, obs::Phase::ExploreSpill,
                                  store_.resident_bytes());
        if (!store_.spill_to_budget()) return LevelEnd::IoFailed;
        ++stats_.spill_events;
        if (store_.resident_bytes() > store_.max_resident_bytes()) {
          return LevelEnd::MemoryCap;
        }
      }
    }
    return LevelEnd::Next;
  }

  // After the last level: releases the routed batches and the frontier
  // before the merge and the SCC pass allocate, and in spill mode writes
  // the owners' partly filled edge blocks. False if the spool failed.
  bool finish_levels() {
    for (Worker& worker : workers_) {
      stats_.steals += worker.steals;
      decltype(worker.out)().swap(worker.out);
      decltype(worker.next)().swap(worker.next);
    }
    decltype(frontier_)().swap(frontier_);
    if constexpr (kCanSpill) {
      if (spool_) {
        for (std::size_t owner = 0; owner < num_owners_; ++owner) {
          GidEdges& tail = workers_[owner].edges.back();
          spool_->append_block(static_cast<int>(owner), tail);
          GidEdges().swap(tail);
        }
        io_failed_ = io_failed_ || !spool_->ok();
        stats_.spill_arena_bytes = store_.spilled_bytes();
        stats_.spill_edge_bytes = io_failed_ ? 0 : spool_->bytes();
        stats_.resident_bytes = store_.resident_bytes();
      }
    }
    return !io_failed_;
  }

  // A completed run's classification (docs/ENGINE.md "After the last
  // level"). Inside explore.merge it freezes the store's dense ids, in
  // which each owner's shards are one contiguous range, and concatenates
  // the verdict bytes; in memory each owner then sorts its own blocks into
  // its rows of the reverse CSR on the pool. Inside explore.scc
  // classify_bottom_sccs_reverse classifies it. In spill mode each owner
  // sorts its spool file instead, within classify_bottom_sccs_external.
  ExploreOutcome classify(obs::SpanLog* spans) {
    const auto dense = [this](std::int64_t gid) { return store_.dense(gid); };
    std::vector<std::uint8_t> verdicts;
    std::vector<std::size_t> bounds(num_owners_ + 1);
    CsrGraph reverse;
    {
      obs::SpanScope merge_span(spans, obs::Phase::ExploreMerge);
      store_.finalize();
      verdicts.reserve(store_.size());
      for (ShardVerdicts& shard : verdicts_) {
        verdicts.insert(verdicts.end(), shard.slots.begin(),
                        shard.slots.end());
        decltype(shard.slots)().swap(shard.slots);
      }
      DAWN_CHECK_MSG(verdicts.size() == store_.size(),
                     "a verdict slot per stored configuration");
      merge_span.add_items(verdicts.size());
      // An owner's range starts at its first shard's local id 0.
      for (std::size_t sh = Store::kNumShards; sh-- > 0;) {
        bounds[owner_of_shard_[sh]] = static_cast<std::size_t>(
            dense(static_cast<std::int64_t>(sh)));
      }
      bounds[num_owners_] = verdicts.size();
      stats_.configs = store_.size();
      stats_.shard_peak = store_.shard_peak();
      stats_.store_bytes = store_.bytes();
      const auto occupancies = store_.shard_occupancies();
      stats_.shard_chi2 =
          shard_chi_square(occupancies.data(), occupancies.size());
      stats_.edges = num_edges();
      if (!spool_) {
        const bool built = build_reverse_csr(
            pool_, std::span<const std::size_t>(bounds),
            [this](std::size_t k, bool last, const auto& fn) {
              for (GidEdges& block : workers_[k].edges) {
                for (const auto& [dst, src] : block) fn(dst, src);
                if (last) GidEdges().swap(block);
              }
              return true;
            },
            dense, reverse);
        DAWN_CHECK_MSG(built, "edge endpoint outside the finalized store");
      }
    }
    obs::SpanScope scc_span(spans, obs::Phase::ExploreScc, verdicts.size());
    const auto root = static_cast<std::size_t>(dense(root_));
    if constexpr (kCanSpill) {
      if (spool_) {
        // A formula over the budget, so MemoryCap here is deterministic.
        const std::size_t classify_cap =
            std::max<std::size_t>(store_.max_resident_bytes() * 8, 64u << 20);
        return classify_bottom_sccs_external(
            pool_, *spool_, std::span<const std::size_t>(bounds), verdicts,
            dense, root, classify_cap);
      }
    }
    const BottomClassification cls =
        classify_bottom_sccs_reverse(reverse, verdicts, root);
    ExploreOutcome outcome;
    outcome.decision = cls.decision;
    outcome.num_configs = verdicts.size();
    outcome.num_bottom_sccs = cls.num_bottom_sccs;
    return outcome;
  }

  // Edges recorded so far, in memory and spooled.
  std::uint64_t num_edges() const {
    std::uint64_t edges = spool_ ? spool_->num_edges() : 0;
    for (const Worker& worker : workers_) {
      for (const GidEdges& block : worker.edges) edges += block.size();
    }
    return edges;
  }

  const std::vector<std::int64_t>& frontier() const { return frontier_; }
  bool spills() const { return spool_.has_value(); }
  bool io_failed() const { return io_failed_; }
  const DeadlineClock& deadline() const { return deadline_; }
  ExploreStats& stats() { return stats_; }

 private:
  // Owner-only: the slot of a configuration just interned, at its local id.
  void add_verdict_slot(std::int64_t gid) {
    verdicts_[static_cast<std::size_t>(gid) & Store::kShardMask]
        .slots.push_back(verdict_byte(Verdict::Neutral, false));
  }
  std::uint8_t& verdict_slot(std::int64_t gid) {
    return verdicts_[static_cast<std::size_t>(gid) & Store::kShardMask]
        .slots[static_cast<std::size_t>(gid >> Store::kShardBits)];
  }

  Store& store_;
  VerdictOf& verdict_of_;
  const ExploreBudget& budget_;
  DeadlineClock deadline_;
  const obs::Telemetry tel_;
  WorkerPool pool_;
  std::size_t num_workers_;
  std::size_t num_owners_;
  std::array<std::uint32_t, Store::kNumShards> owner_of_shard_{};
  std::vector<Worker> workers_;
  std::array<ShardVerdicts, Store::kNumShards> verdicts_;
  std::optional<EdgeSpool> spool_;
  std::size_t edge_block_ = kEdgeBlock;
  std::vector<std::int64_t> frontier_;
  std::int64_t root_ = 0;  // the initial configuration's gid
  bool io_failed_ = false;
  ExploreStats stats_;
};

// Explores the configuration graph from `initial` and classifies its bottom
// SCCs, interning into a caller-supplied store: LevelExplorer's local
// driver. A run stops at the level that hit the config cap, the deadline
// or (spill mode) the memory cap.
template <typename ConfigT, typename Store, typename MakeExpander,
          typename VerdictOf>
ExploreOutcome explore_and_classify_in(Store& store, const ConfigT& initial,
                                       MakeExpander&& make_expander,
                                       VerdictOf&& verdict_of,
                                       const ExploreBudget& budget,
                                       ExploreStats* stats_out = nullptr) {
  using Run =
      LevelExplorer<ConfigT, Store, std::remove_reference_t<MakeExpander>,
                    std::remove_reference_t<VerdictOf>>;
  Run run(store, make_expander, verdict_of, budget);
  const obs::Telemetry tel = obs::telemetry();
  run.seed(initial);

  bool capped = false;
  bool expired = false;
  auto end = run.io_failed() ? Run::LevelEnd::IoFailed : Run::LevelEnd::Next;
  while (!run.frontier().empty() && end == Run::LevelEnd::Next) {
    obs::SpanScope level_span(tel.spans, obs::Phase::ExploreExpand,
                              run.frontier().size());
    run.expand();
    run.intern_routed();
    capped = store.size() > budget.max_configs;
    expired = !capped && run.deadline().expired();
    if (capped || expired) break;
    end = run.end_level();
  }
  const bool completed = run.finish_levels() && !capped && !expired &&
                         end == Run::LevelEnd::Next;
  ExploreStats& stats = run.stats();

  ExploreOutcome outcome;
  if (!completed) {
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
  } else {
    outcome = run.classify(tel.spans);
  }

  // Memory ledger — completed runs only: capped/deadline runs stop at a
  // scheduling-dependent point and are deliberately not accounted. Spill
  // mode accounts its level-end spills, also thread-count-invariant.
  if (completed && tel.ledger != nullptr && !run.spills()) {
    account_explored(*tel.ledger, Store::kMemoryAccount, stats.store_bytes,
                     stats.frontier_peak, stats.edges);
  } else if (completed && tel.ledger != nullptr) {
    tel.ledger->set_max(obs::MemoryAccount::FrontierBytes,
                        stats.frontier_peak * sizeof(std::int64_t));
    tel.ledger->set_max(obs::MemoryAccount::TieredResidentBytes,
                        stats.resident_bytes);
    tel.ledger->set_max(obs::MemoryAccount::SpillArenaBytes,
                        stats.spill_arena_bytes);
    tel.ledger->set_max(obs::MemoryAccount::SpillEdgeBytes,
                        stats.spill_edge_bytes);
  }
  if (stats_out != nullptr) *stats_out = stats;
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
  return outcome;
}

}  // namespace dawn
