// Bit-packed configurations and the packed sharded config store: the one
// store every exploring decide interns into.
//
// The explicit-state engines intern millions of configurations; storing each
// as a std::vector costs a heap allocation, a hash node and a full
// element-wise rehash per intern. Packed, a configuration is a short run of
// machine words:
//
//   * PackedCodec — explicit configurations at a fixed width: a machine
//     with |Q| states needs ceil(log2 |Q|) bits per node, so a configuration
//     of n nodes packs into ceil(n * bits / 64) words (fields may straddle
//     word boundaries; |Q| = 1 packs to zero words, every configuration
//     being equal). A machine that advertises no |Q| (the paper's
//     lazily-interning compiled constructions) packs at 31 bits, the width
//     of any State.
//   * CountedCodec and StarCodec — counted configurations at a variable
//     width, one word per sorted (state, count) pair with the state in the
//     high half, so word order is state order; a star leads with a word for
//     its centre. This is the paper's remark behind Lemma 5.1 (quoted in
//     clique_counted.hpp): a counted configuration fits in logarithmic
//     space.
//   * PackedStore<Codec> — 64 shards, each an open-addressed index over a
//     contiguous word arena, so interning a configuration appends words to
//     the shard arena instead of allocating a per-config node. Hashing and
//     equality are word-wise. A shard's entries form one word stream; a
//     fixed-width codec (Codec::kFixedWidth) finds entry l at l times its
//     width, a variable-width one through a 4-byte end offset per entry
//     that also rides along in each routed item. The width is a compile-
//     time property because the offsets are not free: on explicit stores
//     they cost 4 B per configuration and, with the routed length, 10%
//     more peak RSS on the table-machine benchmark (4-vCPU AVX2 host).
//     Configurations come in through the locked intern() or, in the
//     exploration engine, through route() and an owner's lock-free drain().
//     PackedConfigStore, PackedCountedStore and PackedStarStore name its
//     three instances.
//
// docs/ENGINE.md "Configuration memory" covers the memory accounting; the
// byte-level occupancy is surfaced through ExploreStats::store_bytes and
// the explore.store_bytes gauge. Every charge in bytes() is per entry or
// per spill event, never per shard: a compiled machine numbers its states
// in thread-timing order, which moves configurations between shards.
//
// Spill mode (out-of-core exploration, docs/ENGINE.md "The tiered store").
// Constructed with both a spill dir and a resident byte budget, the store
// splits every shard arena into spilled words and a hot in-memory tail.
// The index (per configuration an 8-byte hash, a variable-width entry's end
// offset, and the slot table) always stays resident: interning probes it
// every time. At a BFS level boundary spill_to_budget() appends every hot
// arena to one unlinked file under the spill dir and maps the file
// read-only; probes and value() read spilled words through the mapping, so
// dedup is exact across tiers. The in-memory mode is the same store with
// nothing spilled, and the explicit engine runs both modes through one
// level loop.
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
#include "dawn/semantics/clique_counted.hpp"
#include "dawn/semantics/star_counted.hpp"
#include "dawn/util/hash.hpp"

namespace dawn {

// ceil(log2(num_states)) — bits needed to encode states [0, num_states).
// num_states = 1 needs 0 bits (the only state is implicit).
int packed_bits_for(int num_states);

// Explicit configurations of a fixed node count, at a fixed width.
//
// Every codec has the same interface: Value, kFixedWidth, words(value),
// encode(value, out) and decode(in, n, out).
class PackedCodec {
 public:
  using Value = Config;
  static constexpr bool kFixedWidth = true;

  PackedCodec() = default;
  // num_states >= 1; num_nodes >= 0. States outside [0, num_states) are a
  // contract violation (checked on encode).
  PackedCodec(int num_states, int num_nodes);

  int bits() const { return bits_; }
  int nodes() const { return nodes_; }
  // Words per packed configuration; 0 when bits() == 0.
  std::size_t words() const { return words_; }
  std::size_t words(const Config&) const { return words_; }
  int num_states() const { return num_states_; }

  // `out` must hold words() entries; fully overwritten.
  void encode(const Config& c, std::uint64_t* out) const;
  // Decodes `n` == words() words; `out` is resized to nodes().
  void decode(const std::uint64_t* in, std::size_t n, Config& out) const;

  // Word-wise hash, consistent for equal encodings (and only those — every
  // codec here is injective on valid values, so this is a sound stand-in
  // for hashing the unpacked form). The store hashes every codec's words
  // with it; the length is part of the hash.
  static std::uint64_t hash_words(const std::uint64_t* w, std::size_t n);

 private:
  int num_states_ = 1;
  int bits_ = 0;
  int nodes_ = 0;
  std::size_t words_ = 0;
};

// Counted configurations (clique_counted.hpp): one word per (state, count)
// pair, the state in the high 32 bits and the count in the low 32. States
// must be non-negative and counts in [1, kMaxCount] (checked on encode).
class CountedCodec {
 public:
  using Value = CountedConfig;
  static constexpr bool kFixedWidth = false;
  static constexpr std::int64_t kMaxCount =
      std::numeric_limits<std::uint32_t>::max();

  static std::size_t words(const CountedConfig& c) { return c.size(); }
  // `out` must hold words(c) entries.
  static void encode(const CountedConfig& c, std::uint64_t* out);
  // Decodes `n` words; `out` keeps its storage.
  static void decode(const std::uint64_t* in, std::size_t n,
                     CountedConfig& out);
};

// Counted stars (star_counted.hpp): the centre's state as a leading word,
// then the leaves as CountedCodec words.
class StarCodec {
 public:
  using Value = StarConfig;
  static constexpr bool kFixedWidth = false;

  static std::size_t words(const StarConfig& c) { return 1 + c.leaves.size(); }
  static void encode(const StarConfig& c, std::uint64_t* out);
  static void decode(const std::uint64_t* in, std::size_t n, StarConfig& out);
};

// The packed store over one codec, the store explore_and_classify_in
// (parallel_explore.hpp) interns into. Values live packed in per-shard word
// arenas — one amortised vector append per fresh configuration, no
// per-config heap node. A value's gid packs (local id, shard); after
// exploration finalize() freezes per-shard prefix offsets and dense() maps
// gids onto [0, size). Any store may spill its arenas to disk (see "Spill
// mode" above).
template <typename Codec>
class PackedStore {
 public:
  using Value = typename Codec::Value;

  static constexpr int kShardBits = 6;
  static constexpr std::size_t kNumShards = std::size_t{1} << kShardBits;
  static constexpr std::size_t kShardMask = kNumShards - 1;

  struct InternResult {
    std::int64_t gid = 0;
    bool fresh = false;
  };

  // Spill mode is on when both spill_dir and max_resident_bytes are set:
  // the constructor then opens (and immediately unlinks) the spill file.
  // If that fails, ok() is false, error() says why, and the store stays
  // in memory (spills() is false); callers fall back to the in-memory
  // engine.
  explicit PackedStore(const Codec& codec, const std::string& spill_dir = {},
                       std::size_t max_resident_bytes = 0);
  ~PackedStore();

  PackedStore(const PackedStore&) = delete;
  PackedStore& operator=(const PackedStore&) = delete;

  bool spills() const { return fd_ >= 0; }
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  InternResult intern(const Value& value);

  // Routed configurations bound for one owner: per item, the source gid,
  // the word hash, for a variable-width codec the word count, and the
  // packed words. One cache line each: a worker grows its batches on every
  // successor.
  struct alignas(64) Batch {
    std::vector<std::uint64_t> items;
    std::size_t count = 0;  // routed configurations in `items`
    std::size_t size() const { return count; }
    void clear() {
      items.clear();
      count = 0;
    }
  };
  static constexpr std::size_t kRoutedHeader = Codec::kFixedWidth ? 2 : 3;

  // Encodes and hashes `value` once and appends the item to
  // batches[owner_of_shard[shard]]. Reads no shard.
  void route(const Value& value, std::int64_t src, std::span<Batch> batches,
             std::span<const std::uint32_t, kNumShards> owner_of_shard) const;

  // Interns every item of `batch`, in order, calling fn(src, gid, fresh)
  // for each, where `fresh` says whether this call inserted it. Probes
  // with the carried hash and words; decodes and copies nothing.
  // Owner-only and lock-free — see the concurrency contract above.
  template <typename Fn>
  void drain(const Batch& batch, Fn&& fn) {
    std::size_t inserted = 0;
    const std::uint64_t* item = batch.items.data();
    const std::uint64_t* const end = item + batch.items.size();
    while (item != end) {
      const std::uint64_t* const words = item + kRoutedHeader;
      std::size_t n = 0;
      if constexpr (Codec::kFixedWidth) {
        n = codec_.words();
      } else {
        n = static_cast<std::size_t>(item[2]);
      }
      const InternResult r = find_or_insert(item[1], words, n);
      inserted += r.fresh ? 1 : 0;
      fn(static_cast<std::int64_t>(item[0]), r.gid, r.fresh);
      item = words + n;
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

  // Byte-level occupancy, every charge per entry or per spill event: arena
  // words (resident and spilled), a variable-width entry's 4-byte end
  // offset, its 8-byte hash, index_bytes(size()) for the slot tables, and
  // one extent directory entry per shard and spill event. Single-threaded
  // accounting — call after exploration, not during.
  std::size_t bytes() const;

  // The slot tables' charge for `entries` configurations: the smallest
  // table that holds them below the 0.7 load bound, ceil(10 * entries / 7)
  // 4-byte slots. A lower bound on what the shards' power-of-two tables
  // hold, and a function of the count alone, so it does not follow how
  // the entries spread over shards.
  static std::size_t index_bytes(std::size_t entries) {
    return (entries * 10 + 6) / 7 * sizeof(std::int32_t);
  }

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
  const Value& value(std::int64_t gid, Value& out) const;

 private:
  // A run of consecutive local ids whose words live in the spill file.
  struct Extent {
    std::uint64_t word_off = 0;     // into the mapped file, in words
    std::uint32_t first_local = 0;  // first local id of the run
  };

  // A shard's entries form one word stream (see stream_span). Its tail
  // from hot_word on, the words of local ids >= hot_first, is `arena`; the
  // rest is spilled. The fields a probe reads come first, so it touches the
  // shard's first two cache lines; `extents` is read only for spilled words.
  struct alignas(64) Shard {
    std::vector<std::int32_t> slots;    // open addressing; -1 = empty
    std::vector<std::uint64_t> hashes;  // per local id, for probes + growth
    std::vector<std::uint64_t> arena;   // words of local ids >= hot_first
    std::vector<std::uint32_t> ends;    // variable width: end word per id
    std::size_t count = 0;
    std::size_t hot_word = 0;           // first stream word still in `arena`
    std::uint32_t hot_first = 0;        // first local id still in `arena`
    std::vector<Extent> extents;        // spilled runs, ascending first_local
    std::mutex mu;                      // intern()'s; drain() takes none
  };

  static std::int64_t pack(std::int32_t local, std::size_t shard) {
    return (static_cast<std::int64_t>(local) << kShardBits) |
           static_cast<std::int64_t>(shard);
  }

  static void grow(Shard& s);

  // The probe-and-insert step of intern() and drain(): finds the `n` words
  // (of word hash h) in their shard or appends them there. The caller
  // holds the shard's lock or owns the shard; it also counts a fresh
  // insert into total_.
  InternResult find_or_insert(std::uint64_t h, const std::uint64_t* words,
                              std::size_t n);

  // Where `local`'s words sit in its shard's word stream: a fixed stride,
  // or between the previous entry's end offset and its own. The one place
  // besides route(), drain() and the insert where the layouts differ.
  struct Span {
    std::size_t begin = 0;  // stream offset, in words
    std::size_t n = 0;      // word count
  };
  Span stream_span(const Shard& s, std::size_t local) const {
    if constexpr (Codec::kFixedWidth) {
      return {local * codec_.words(), codec_.words()};
    } else {
      const std::size_t begin = local == 0 ? 0 : s.ends[local - 1];
      return {begin, s.ends[local] - begin};
    }
  }

  // The first word of `local`, whose span is `at`. No other thread may
  // change `s` meanwhile.
  const std::uint64_t* words_at(const Shard& s, std::size_t local,
                                Span at) const {
    if (local >= s.hot_first) return s.arena.data() + (at.begin - s.hot_word);
    return spilled_words_at(s, local, at);
  }
  const std::uint64_t* spilled_words_at(const Shard& s, std::size_t local,
                                        Span at) const;

  void fail(const char* what);

  Codec codec_;
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

extern template class PackedStore<PackedCodec>;
extern template class PackedStore<CountedCodec>;
extern template class PackedStore<StarCodec>;

using PackedConfigStore = PackedStore<PackedCodec>;
using PackedCountedStore = PackedStore<CountedCodec>;
using PackedStarStore = PackedStore<StarCodec>;

}  // namespace dawn
