// Bit-packed configurations and the packed sharded config store.
//
// The explicit-state engines intern millions of configurations; storing each
// as a std::vector<int32_t> costs 4 bytes per node plus a heap allocation
// and a full element-wise rehash per intern. A machine with |Q| states only
// needs ceil(log2 |Q|) bits per node, so a configuration packs into
// ceil(n * bits / 64) machine words:
//
//   * PackedCodec — the stateless encode/decode between Config and a word
//     span (fields may straddle word boundaries; |Q| = 1 packs to zero
//     words, every configuration being equal);
//   * PackedConfigStore — the packed counterpart of ShardedConfigStore
//     (parallel_explore.hpp): 64 shards, each an open-addressed index over
//     a contiguous word arena, so interning a configuration appends words
//     to the shard arena instead of allocating a per-config node. Hashing
//     and equality are word-wise. Configurations come in through the
//     locked intern() or, in the explicit engine, through route() and an
//     owner's lock-free drain().
//
// The store requires the machine's state space bound up front
// (Machine::num_states()). The explicit engine uses it for every machine
// that advertises one; lazily-interning compiled stacks advertise none and
// explore on the vector store. docs/ENGINE.md covers the memory accounting;
// the byte-level occupancy of either store is surfaced through
// ExploreStats::store_bytes and the explore.store_bytes gauge.
//
// Spill mode (out-of-core exploration, docs/ENGINE.md "The tiered store").
// Constructed with both a spill dir and a resident byte budget, the store
// splits every shard arena into spilled words and a hot in-memory tail.
// The index (one 8-byte hash plus amortised ~6 bytes of probe slots per
// configuration) always stays resident: interning probes it every time.
// At a BFS level boundary spill_to_budget() appends every hot arena to one
// unlinked file under the spill dir and maps the file read-only; probes
// and value() read spilled words through the mapping, so dedup is exact
// across tiers. The in-memory mode is the same store with nothing spilled,
// and the explicit engine runs both modes through one level loop.
//
// Concurrency contract:
//  * intern() is thread-safe (per-shard locks);
//  * route() is const and reads only the codec, so any number of workers
//    may route while no shard changes;
//  * value() takes no lock: any number of threads may read while no shard
//    changes (explore_and_classify_in's phase A, where every store access
//    is a read, or single-threaded between levels);
//  * drain() takes no lock: it may touch only shards that the calling
//    thread owns, i.e. that no other thread interns into, drains into or
//    reads until it returns (explore_and_classify_in's phase B);
//  * spill_to_budget, finalize and the byte accessors are level-boundary
//    only, and the spill mapping changes only there.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "dawn/automata/config.hpp"
#include "dawn/obs/memory_ledger.hpp"
#include "dawn/util/hash.hpp"

namespace dawn {

// ceil(log2(num_states)) — bits needed to encode states [0, num_states).
// num_states = 1 needs 0 bits (the only state is implicit).
int packed_bits_for(int num_states);

class PackedCodec {
 public:
  PackedCodec() = default;
  // num_states >= 1; num_nodes >= 0. States outside [0, num_states) are a
  // contract violation (checked on encode).
  PackedCodec(int num_states, int num_nodes);

  int bits() const { return bits_; }
  int nodes() const { return nodes_; }
  // Words per packed configuration; 0 when bits() == 0.
  std::size_t words() const { return words_; }
  int num_states() const { return num_states_; }

  // `out` must hold words() entries; fully overwritten.
  void encode(const Config& c, std::uint64_t* out) const;
  // `out` is resized to nodes().
  void decode(const std::uint64_t* in, Config& out) const;

  // Word-wise hash, consistent for equal encodings (and only those — the
  // encoding is injective on valid configs, so this is a sound stand-in for
  // hashing the vector form).
  static std::uint64_t hash_words(const std::uint64_t* w, std::size_t n);

 private:
  int num_states_ = 1;
  int bits_ = 0;
  int nodes_ = 0;
  std::size_t words_ = 0;
};

// Packed drop-in for ShardedConfigStore<Config, VectorHash<State>>: same
// shard/gid/dense and route/drain contract (parallel_explore.hpp documents
// it), but values
// live packed in per-shard word arenas — one amortised vector append per
// fresh configuration, no per-config heap node. Optionally spills its
// arenas to disk (see "Spill mode" above).
class PackedConfigStore {
 public:
  static constexpr int kShardBits = 6;
  static constexpr std::size_t kNumShards = std::size_t{1} << kShardBits;
  static constexpr std::size_t kShardMask = kNumShards - 1;

  // Which MemoryLedger account this store's bytes() lands in.
  static constexpr obs::MemoryAccount kMemoryAccount =
      obs::MemoryAccount::PackedStoreBytes;

  struct InternResult {
    std::int64_t gid = 0;
    bool fresh = false;
  };

  // Spill mode is on when both spill_dir and max_resident_bytes are set:
  // the constructor then opens (and immediately unlinks) the spill file.
  // If that fails, ok() is false, error() says why, and the store stays
  // in memory (spills() is false); callers fall back to the in-memory
  // engine.
  explicit PackedConfigStore(const PackedCodec& codec,
                             const std::string& spill_dir = {},
                             std::size_t max_resident_bytes = 0);
  ~PackedConfigStore();

  PackedConfigStore(const PackedConfigStore&) = delete;
  PackedConfigStore& operator=(const PackedConfigStore&) = delete;

  bool spills() const { return fd_ >= 0; }
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  InternResult intern(const Config& value);

  // Routed configurations bound for one owner: per item, the source gid,
  // the word hash and the packed words (kRoutedHeader + the codec's
  // words() words). One cache line each: a worker grows its batches on
  // every successor.
  struct alignas(64) Batch {
    std::vector<std::uint64_t> items;
    std::size_t count = 0;  // routed configurations in `items`
    std::size_t size() const { return count; }
    void clear() {
      items.clear();
      count = 0;
    }
  };
  static constexpr std::size_t kRoutedHeader = 2;

  // Encodes and hashes `value` once and appends (src, hash, words) to
  // batches[owner_of_shard[shard]]. Reads no shard.
  void route(const Config& value, std::int64_t src, std::span<Batch> batches,
             std::span<const std::uint32_t, kNumShards> owner_of_shard) const;

  // Interns every item of `batch`, in order, calling fn(src, gid, fresh)
  // for each, where `fresh` says whether this call inserted it. Probes
  // with the carried hash and words; decodes and copies nothing.
  // Owner-only and lock-free — see the concurrency contract above.
  template <typename Fn>
  void drain(const Batch& batch, Fn&& fn) {
    const std::size_t stride = kRoutedHeader + codec_.words();
    std::size_t inserted = 0;
    for (std::size_t i = 0; i < batch.items.size(); i += stride) {
      const std::uint64_t* item = batch.items.data() + i;
      const InternResult r = find_or_insert(item[1], item + kRoutedHeader);
      inserted += r.fresh ? 1 : 0;
      fn(static_cast<std::int64_t>(item[0]), r.gid, r.fresh);
    }
    total_.fetch_add(inserted, std::memory_order_relaxed);
  }

  std::size_t size() const { return total_.load(std::memory_order_relaxed); }

  // Freezes the dense remap. Call once, after all interning is done, on at
  // most INT32_MAX configurations.
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

  // Byte-level occupancy: arena words (resident and spilled) + per-entry
  // hash + index slots (+ the spill extent directory). Single-threaded
  // accounting — call after exploration, not during.
  std::size_t bytes() const;

  // In-memory footprint: bytes() minus the spilled arena words.
  std::size_t resident_bytes() const;

  // Cumulative packed words written to the spill file.
  std::size_t spilled_bytes() const {
    return file_words_ * sizeof(std::uint64_t);
  }

  std::size_t spill_events() const { return spill_events_; }

  // The spill-mode budget; unbounded in memory.
  std::size_t max_resident_bytes() const { return max_resident_bytes_; }

  // Level-boundary only (no workers running). If the resident footprint
  // exceeds the budget, appends every hot arena to the spill file and
  // remaps it. False on I/O failure (error() set); a no-op in memory.
  // After a successful spill the resident footprint is the index alone; if
  // that still exceeds the budget the caller must abort with
  // UnknownReason::MemoryCap.
  bool spill_to_budget();

  // Decodes the stored configuration for a gid into `out` and returns it.
  // Lock-free: no thread may change the gid's shard meanwhile (see the
  // concurrency contract above).
  const Config& value(std::int64_t gid, Config& out) const;

 private:
  // A run of consecutive local ids whose words live in the spill file.
  struct Extent {
    std::uint64_t word_off = 0;     // into the mapped file, in words
    std::uint32_t first_local = 0;  // first local id of the run
  };

  // The fields a probe reads come first, so it touches the shard's first
  // two cache lines; `extents` is read only for spilled words.
  struct alignas(64) Shard {
    std::mutex mu;
    std::vector<std::int32_t> slots;    // open addressing; -1 = empty
    std::vector<std::uint64_t> hashes;  // per local id, for probes + growth
    std::vector<std::uint64_t> arena;   // words of local ids >= hot_first
    std::size_t count = 0;
    std::uint32_t hot_first = 0;        // first local id still in `arena`
    std::vector<Extent> extents;        // spilled runs, ascending first_local
  };

  static std::int64_t pack(std::int32_t local, std::size_t shard) {
    return (static_cast<std::int64_t>(local) << kShardBits) |
           static_cast<std::int64_t>(shard);
  }

  static void grow(Shard& s);

  // The probe-and-insert step of intern() and drain(): finds `words` (of
  // word hash h) in its shard or appends it there. The caller holds the
  // shard's lock or owns the shard; it also counts a fresh insert into
  // total_.
  InternResult find_or_insert(std::uint64_t h, const std::uint64_t* words);

  // The packed words of `local`. No other thread may change `s` meanwhile.
  const std::uint64_t* words_of(const Shard& s, std::size_t local) const {
    if (local >= s.hot_first) {
      return s.arena.data() + (local - s.hot_first) * codec_.words();
    }
    return spilled_words_of(s, local);
  }
  const std::uint64_t* spilled_words_of(const Shard& s,
                                        std::size_t local) const;

  void fail(const char* what);

  PackedCodec codec_;
  std::array<Shard, kNumShards> shards_;
  std::array<std::int32_t, kNumShards> offsets_{};
  std::atomic<std::size_t> total_{0};
  std::size_t shard_peak_ = 0;

  std::size_t max_resident_bytes_ = std::numeric_limits<std::size_t>::max();
  int fd_ = -1;
  const std::uint64_t* base_ = nullptr;  // read-only mapping of the file
  std::size_t mapped_bytes_ = 0;
  std::uint64_t file_words_ = 0;
  std::size_t spill_events_ = 0;
  std::string error_;
};

}  // namespace dawn
