// Tiered (out-of-core) configuration store and the streaming exploration
// passes built on it.
//
// The packed store (packed_config.hpp) dies at RAM size, which caps exactly
// the NSPACE(n) / bounded-degree experiments the paper's hierarchy cares
// about. The tiered store keeps the same shard/gid/dense contract but splits
// every configuration into a resident part and a spillable part, modeled on
// the far-memory resident-index/remote-bulk split (SNIPPETS.md):
//
//  * resident, always: the 64 open-addressed shard indexes (one 8-byte hash
//    plus amortised ~6 bytes of probe slots per configuration) — interning
//    needs them on every probe;
//  * spillable: the packed config words (PackedCodec, ceil(log2|Q|) bits
//    per node). Each shard appends fresh words to a hot in-memory arena;
//    whenever the resident footprint exceeds ExploreBudget::max_store_bytes
//    at a BFS level boundary, every hot arena is appended to one unlinked
//    spill file under ExploreBudget::spill_dir and re-read through a shared
//    read-only mmap. Lookups against spilled words keep working (probes
//    compare against the mapping), so dedup is exact across tiers.
//
// Two helper spools stream the rest of the exploration state:
//
//  * FrontierSpool — BFS levels above a small threshold are written as
//    delta-encoded varints over the sorted fresh gids and streamed back in
//    blocks, so a frontier never has to fit in memory;
//  * EdgeSpool — every (src gid, dst gid) transition goes to per-worker
//    append files; the SCC classification re-scans them instead of holding
//    an in-memory adjacency.
//
// classify_bottom_sccs_external() then classifies in semi-external passes
// over the edge file: O(V) node arrays stay resident (comp / partition /
// marks / degrees), each trim peel and each forward-backward propagation
// step is one sequential scan, and subgraphs whose CSR fits the classify
// resident cap are finished by scc.hpp's in-memory Tarjan. If the
// active subgraph never fits, the classification gives up deterministically
// with UnknownReason::MemoryCap rather than silently blowing the budget.
//
// Concurrency contract: intern() and value() are thread-safe (per-shard
// locks; the spill mapping is immutable while workers run). spill_to_budget,
// finalize and the byte accessors are level-boundary/coordinator-only. All
// spill files are created O_EXCL then immediately unlinked, so crashes leak
// nothing.
//
// Determinism: spill decisions happen only at level boundaries against
// level-end store contents, which are properties of the reachable set — so
// spill byte counts, MemoryCap aborts, and everything else surfaced in
// DecisionReport stay bit-identical across thread counts.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dawn/automata/config.hpp"
#include "dawn/obs/memory_ledger.hpp"
#include "dawn/semantics/packed_config.hpp"
#include "dawn/semantics/parallel_explore.hpp"

namespace dawn {

// Frontier levels larger than this spill to the FrontierSpool. Small, so
// the streaming path is exercised by every nontrivial tiered run.
inline constexpr std::size_t kFrontierSpillEntries = 256;

class TieredConfigStore {
 public:
  static constexpr int kShardBits = 6;
  static constexpr std::size_t kNumShards = std::size_t{1} << kShardBits;
  static constexpr std::size_t kShardMask = kNumShards - 1;

  // Which MemoryLedger account this store's resident bytes land in.
  static constexpr obs::MemoryAccount kMemoryAccount =
      obs::MemoryAccount::TieredResidentBytes;

  struct InternResult {
    std::int64_t gid = 0;
    bool fresh = false;
  };

  // Opens (and immediately unlinks) the arena spill file under spill_dir.
  // On failure ok() is false and error() says why; callers fall back to the
  // in-memory store.
  TieredConfigStore(const PackedCodec& codec, const std::string& spill_dir,
                    std::size_t max_resident_bytes);
  ~TieredConfigStore();

  TieredConfigStore(const TieredConfigStore&) = delete;
  TieredConfigStore& operator=(const TieredConfigStore&) = delete;

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  // Thread-safe (locks the owning shard). Probes resident and spilled words.
  InternResult intern(const Config& value);

  std::size_t size() const { return total_.load(std::memory_order_relaxed); }

  // The shard intern(value) would land in, without interning — the routing
  // key of the distributed engine (net/dist_explore.*). Must agree with
  // intern() exactly: same encode, same hash, same mix.
  std::size_t shard_of(const Config& value) const;

  // Freezes the dense remap. Call once, after all interning is done.
  void finalize();

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
      out[sh] = shards_[sh].count;
    }
    return out;
  }

  // Total store footprint: resident plus spilled. Single-threaded
  // accounting — call at level boundaries or after exploration.
  std::size_t bytes() const { return resident_bytes() + spilled_bytes(); }

  // In-memory footprint: hot arenas + hashes + slots + extent directory.
  std::size_t resident_bytes() const;

  // Cumulative packed words written to the spill file.
  std::size_t spilled_bytes() const {
    return file_words_ * sizeof(std::uint64_t);
  }

  std::size_t spill_events() const { return spill_events_; }
  std::size_t max_resident_bytes() const { return max_resident_bytes_; }

  // Level-boundary only (no workers running): if the resident footprint
  // exceeds the budget, appends every hot arena to the spill file and remaps
  // it. False on I/O failure (error() set). After a successful spill the
  // resident footprint is the index alone; if that still exceeds the budget
  // the caller must abort with UnknownReason::MemoryCap.
  bool spill_to_budget();

  // Decodes the stored configuration for a gid. Thread-safe (locks the
  // owning shard): workers re-decode frontier configurations through this.
  void value(std::int64_t gid, Config& out) const;

  const PackedCodec& codec() const { return codec_; }

 private:
  // A run of consecutive local ids whose words live in the spill file.
  struct Extent {
    std::uint64_t word_off = 0;     // into the mapped file, in words
    std::uint32_t first_local = 0;  // first local id of the run
  };

  struct alignas(64) Shard {
    std::mutex mu;
    std::vector<std::uint64_t> hot;  // words for local ids >= hot_first
    std::vector<Extent> extents;     // spilled runs, ascending first_local
    std::uint32_t hot_first = 0;     // first local id still in `hot`
    std::vector<std::uint64_t> hashes;  // per local id, for probes + growth
    std::vector<std::int32_t> slots;    // open addressing; -1 = empty
    std::size_t count = 0;
  };

  static std::int64_t pack(std::int32_t local, std::size_t shard) {
    return (static_cast<std::int64_t>(local) << kShardBits) |
           static_cast<std::int64_t>(shard);
  }

  static void grow(Shard& s);

  // Caller holds the shard lock (or runs single-threaded). Null iff the
  // codec packs to zero words.
  const std::uint64_t* words_of(const Shard& s, std::size_t local) const;

  bool remap();  // munmap + re-mmap after the file grew
  void fail(const std::string& what);

  PackedCodec codec_;
  std::size_t max_resident_bytes_ = 0;
  std::array<Shard, kNumShards> shards_;
  std::array<std::int32_t, kNumShards> offsets_{};
  std::atomic<std::size_t> total_{0};
  std::size_t shard_peak_ = 0;

  int fd_ = -1;
  const std::uint64_t* base_ = nullptr;  // read-only mapping of the file
  std::size_t mapped_bytes_ = 0;
  std::uint64_t file_words_ = 0;
  std::size_t spill_events_ = 0;
  bool ok_ = false;
  std::string error_;
};

// Delta-encoded frontier levels streamed through one unlinked file: put()
// appends a sorted gid level as varint deltas, Cursor streams it back in
// caller-sized chunks.
class FrontierSpool {
 public:
  struct Level {
    std::uint64_t offset = 0;  // byte offset of the encoded level
    std::uint64_t bytes = 0;   // encoded size
    std::uint64_t count = 0;   // gids in the level
  };

  explicit FrontierSpool(const std::string& dir);
  ~FrontierSpool();

  FrontierSpool(const FrontierSpool&) = delete;
  FrontierSpool& operator=(const FrontierSpool&) = delete;

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  // Encodes `sorted_gids` (ascending, unique, non-negative) and appends it.
  // nullopt on I/O failure.
  std::optional<Level> put(const std::vector<std::int64_t>& sorted_gids);

  std::uint64_t bytes_written() const { return bytes_written_; }
  std::size_t levels() const { return levels_; }

  class Cursor {
   public:
    Cursor(const FrontierSpool& spool, Level level)
        : spool_(&spool), level_(level) {}

    // Appends up to max_gids decoded gids to *out (cleared first). False
    // when the level is exhausted or on error (check failed()).
    bool next_chunk(std::vector<std::int64_t>* out, std::size_t max_gids);
    bool failed() const { return failed_; }

   private:
    bool refill();

    const FrontierSpool* spool_;
    Level level_;
    std::uint64_t decoded_ = 0;   // gids handed out so far
    std::uint64_t file_pos_ = 0;  // bytes of the level consumed into buf_
    std::int64_t prev_ = 0;
    std::vector<std::uint8_t> buf_;
    std::size_t buf_pos_ = 0;
    std::size_t buf_len_ = 0;
    bool failed_ = false;
  };

 private:
  friend class Cursor;
  void fail(const std::string& what);

  int fd_ = -1;
  std::uint64_t bytes_written_ = 0;
  std::size_t levels_ = 0;
  bool ok_ = false;
  std::string error_;
};

// Per-worker append-only edge files: workers push (src gid, dst gid) pairs
// through their own buffered writer (no locks), flush_all() runs at level
// boundaries, and ScanCursor streams every edge back for the SCC passes —
// repeatedly, since the semi-external classification is multi-pass.
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

  struct Writer {
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

struct ExternalClassification {
  Decision decision = Decision::Unknown;
  UnknownReason reason = UnknownReason::None;
  std::size_t num_bottom_sccs = 0;
};

// Semi-external bottom-SCC classification over the spooled edges: resident
// O(V) node arrays, trim peels and forward-backward propagation as repeated
// sequential scans of the edge file, scc.hpp's CSR Tarjan for active
// subgraphs whose footprint fits resident_cap bytes. Deterministic and
// single-threaded by construction. Returns reason MemoryCap when the active
// subgraph still exceeds resident_cap after the bounded streaming rounds,
// or on edge-scan I/O failure.
ExternalClassification classify_bottom_sccs_external(
    const EdgeSpool& edges, const TieredConfigStore& store,
    const std::vector<Verdict>& verdicts, std::size_t resident_cap);

// The streaming counterpart of explore_and_classify_in for the tiered
// store: gid-only frontier (configurations are re-decoded from the store),
// spooled frontier levels and edges, level-boundary spilling, and the
// semi-external classification. Same determinism contract; the added
// abort reason is UnknownReason::MemoryCap (see ExploreBudget).
template <typename MakeExpander, typename VerdictOf>
ExploreOutcome explore_and_classify_tiered(TieredConfigStore& store,
                                           const Config& initial,
                                           MakeExpander&& make_expander,
                                           VerdictOf&& verdict_of,
                                           const ExploreBudget& budget,
                                           ExploreStats* stats_out = nullptr) {
  const int threads = budget.resolve_threads();
  DeadlineClock deadline(budget);

  const obs::Telemetry tel = obs::telemetry();
  obs::ExploreProgress* const progress = tel.progress;
  if (progress != nullptr) progress->reset();

  WorkerPool pool(threads);
  const auto num_workers = static_cast<std::size_t>(pool.num_workers());
  std::vector<decltype(make_expander(0))> expanders;
  expanders.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    expanders.push_back(make_expander(static_cast<int>(w)));
  }

  struct WorkerBuffers {
    std::vector<std::int64_t> next;  // fresh gids found this level
    std::vector<std::pair<std::int64_t, Verdict>> verdicts;  // whole run
    std::vector<std::int64_t> block;  // claimed frontier slice
    std::size_t steals = 0;
  };
  std::vector<WorkerBuffers> buffers(num_workers);

  FrontierSpool fspool(budget.spill_dir);
  EdgeSpool espool(budget.spill_dir, static_cast<int>(num_workers));

  ExploreStats stats;
  stats.threads = pool.num_workers();

  // The current level: resident gid vector or a spooled level reference.
  std::vector<std::int64_t> level_gids;
  std::optional<FrontierSpool::Level> level_spooled;
  std::size_t level_count = 0;

  {
    const auto seeded = store.intern(initial);
    level_gids.push_back(seeded.gid);
    buffers[0].verdicts.emplace_back(seeded.gid, verdict_of(initial));
    level_count = 1;
  }

  bool capped = false;
  bool expired = false;
  bool mem_capped = false;
  bool io_failed = !(store.ok() && fspool.ok() && espool.ok());
  while (level_count > 0 && !io_failed) {
    ++stats.levels;
    if (level_count > stats.frontier_peak) stats.frontier_peak = level_count;
    if (progress != nullptr) {
      progress->level.store(stats.levels, std::memory_order_relaxed);
      progress->frontier.store(level_count, std::memory_order_relaxed);
      if (deadline.enabled()) {
        progress->deadline_ms_remaining.store(deadline.remaining_ms(),
                                              std::memory_order_relaxed);
      }
    }
    obs::SpanScope level_span(tel.spans, obs::Phase::ExploreExpand,
                              level_count);

    // Workers claim fixed-size gid blocks under one mutex; spooled levels
    // decode straight out of the cursor, resident levels slice the vector.
    constexpr std::size_t kBlock = 4096;
    std::mutex src_mu;
    FrontierSpool::Cursor cursor(fspool, level_spooled.value_or(
                                             FrontierSpool::Level{}));
    std::size_t vec_pos = 0;
    std::size_t block_seq = 0;
    const auto next_block = [&](int worker, std::vector<std::int64_t>* out) {
      std::lock_guard<std::mutex> lock(src_mu);
      out->clear();
      if (level_spooled.has_value()) {
        if (!cursor.next_chunk(out, kBlock)) {
          if (cursor.failed()) io_failed = true;
          return false;
        }
      } else {
        if (vec_pos >= level_gids.size()) return false;
        const std::size_t end =
            std::min(vec_pos + kBlock, level_gids.size());
        out->assign(level_gids.begin() + static_cast<std::ptrdiff_t>(vec_pos),
                    level_gids.begin() + static_cast<std::ptrdiff_t>(end));
        vec_pos = end;
      }
      if (block_seq++ % num_workers != static_cast<std::size_t>(worker)) {
        ++buffers[static_cast<std::size_t>(worker)].steals;
      }
      return true;
    };

    pool.run([&, tel](int worker) {
      const obs::TelemetryScope telemetry_scope(tel);
      WorkerBuffers& buf = buffers[static_cast<std::size_t>(worker)];
      auto& expander = expanders[static_cast<std::size_t>(worker)];
      Config current;
      for (;;) {
        if (store.size() > budget.max_configs) break;
        if (deadline.enabled() && deadline.expired()) break;
        if (!next_block(worker, &buf.block)) break;
        for (const std::int64_t gid : buf.block) {
          store.value(gid, current);
          expander(current, [&](const Config& succ) {
            const auto interned = store.intern(succ);
            espool.append(worker, gid, interned.gid);
            if (interned.fresh) {
              buf.verdicts.emplace_back(interned.gid, verdict_of(succ));
              buf.next.push_back(interned.gid);
              if (progress != nullptr) {
                progress
                    ->shard_sizes[static_cast<std::size_t>(interned.gid) &
                                  TieredConfigStore::kShardMask]
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
    if (io_failed) break;

    {
      // Merge the fresh gids into the next level: concatenation has no
      // duplicates (each fresh gid was interned by exactly one worker), and
      // sorting makes the order — and the delta encoding — deterministic.
      obs::SpanScope merge_span(tel.spans, obs::Phase::ExploreMerge,
                                level_count);
      level_gids.clear();
      level_spooled.reset();
      for (auto& buf : buffers) {
        level_gids.insert(level_gids.end(), buf.next.begin(), buf.next.end());
        buf.next.clear();
      }
      std::sort(level_gids.begin(), level_gids.end());
      level_count = level_gids.size();
      if (level_count > kFrontierSpillEntries) {
        const auto put = fspool.put(level_gids);
        if (!put.has_value()) {
          io_failed = true;
          break;
        }
        level_spooled = *put;
        level_gids.clear();
        level_gids.shrink_to_fit();
      }
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

  for (const auto& buf : buffers) stats.steals += buf.steals;
  if (!espool.flush_all()) io_failed = true;

  stats.spill_arena_bytes = store.spilled_bytes();
  stats.spill_frontier_bytes = fspool.bytes_written();
  stats.spill_edge_bytes = io_failed ? 0 : espool.bytes();
  stats.resident_bytes = store.resident_bytes();

  const auto emit_metrics = [&stats] {
    obs::count(obs::Counter::ExploreConfigs, stats.configs);
    obs::count(obs::Counter::ExploreEdges, stats.edges);
    obs::count(obs::Counter::ExploreLevels, stats.levels);
    obs::count(obs::Counter::ExploreSteals, stats.steals);
    obs::count(obs::Counter::ExploreSpillEvents, stats.spill_events);
    obs::count(obs::Counter::ExploreSpillBytes,
               stats.spill_arena_bytes + stats.spill_frontier_bytes +
                   stats.spill_edge_bytes);
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
    for (auto& buf : buffers) {
      for (const auto& [gid, verdict] : buf.verdicts) {
        verdicts[static_cast<std::size_t>(store.dense(gid))] = verdict;
      }
      buf.verdicts.clear();
      buf.verdicts.shrink_to_fit();
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
    tel.ledger->set_max(TieredConfigStore::kMemoryAccount,
                        stats.resident_bytes);
    tel.ledger->set_max(obs::MemoryAccount::SpillArenaBytes,
                        stats.spill_arena_bytes);
    tel.ledger->set_max(obs::MemoryAccount::SpillFrontierBytes,
                        stats.spill_frontier_bytes);
    tel.ledger->set_max(obs::MemoryAccount::SpillEdgeBytes,
                        stats.spill_edge_bytes);
    tel.ledger->set_max(obs::MemoryAccount::FrontierBytes,
                        stats.frontier_peak * sizeof(std::int64_t));
  }

  // Classification may keep an in-memory CSR up to this cap: the streaming
  // passes are for the store-dominated regime, not for starving the O(V)
  // semi-external allowance. Deterministic — a formula over the budget.
  const std::size_t classify_cap =
      std::max<std::size_t>(store.max_resident_bytes() * 8, 64u << 20);
  const ExternalClassification cls =
      classify_bottom_sccs_external(espool, store, verdicts, classify_cap);

  outcome.decision = cls.decision;
  outcome.reason = cls.reason;
  outcome.num_configs = total;
  outcome.num_bottom_sccs = cls.num_bottom_sccs;

  if (stats_out != nullptr) *stats_out = stats;
  emit_metrics();
  return outcome;
}

}  // namespace dawn
