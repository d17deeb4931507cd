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
//     (parallel_explore.hpp): 64 independently locked shards, each an
//     open-addressed index over a contiguous word arena, so interning a
//     configuration appends words to the shard arena instead of allocating
//     a per-config node. Hashing and equality are word-wise.
//
// The store requires the machine's state space bound up front
// (Machine::num_states()). The explicit engine uses it for every machine
// that advertises one; lazily-interning compiled stacks advertise none and
// explore on the vector store. docs/ENGINE.md covers the memory accounting;
// the byte-level occupancy of either store is surfaced through
// ExploreStats::store_bytes and the explore.store_bytes gauge.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
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
// shard/gid/dense contract (parallel_explore.hpp documents it), but values
// live packed in per-shard word arenas — one amortised vector append per
// fresh configuration, no per-config heap node.
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

  explicit PackedConfigStore(const PackedCodec& codec) : codec_(codec) {}

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

  // Byte-level occupancy: arena words + per-entry hash + index slots.
  // Single-threaded accounting — call after exploration, not during.
  std::size_t bytes() const;

  // Byte occupancy of shards [begin, end) only. Per-shard bytes are a
  // deterministic function of shard contents (slot growth depends only on
  // insertion count), so disjoint ranges measured on different processes
  // sum to one process's bytes() — see bytes_for_shard_range in
  // parallel_explore.hpp.
  std::size_t bytes_for_shard_range(std::size_t begin, std::size_t end) const;

  // Decodes the stored configuration for a gid (test / debugging aid; call
  // after exploration).
  void value(std::int64_t gid, Config& out) const;

  const PackedCodec& codec() const { return codec_; }

 private:
  struct alignas(64) Shard {
    std::mutex mu;
    std::vector<std::uint64_t> arena;   // local id i occupies [i*w, (i+1)*w)
    std::vector<std::uint64_t> hashes;  // per local id, for probes + growth
    std::vector<std::int32_t> slots;    // open addressing; -1 = empty
    std::size_t count = 0;
  };

  static std::int64_t pack(std::int32_t local, std::size_t shard) {
    return (static_cast<std::int64_t>(local) << kShardBits) |
           static_cast<std::int64_t>(shard);
  }

  static void grow(Shard& s);

  PackedCodec codec_;
  std::array<Shard, kNumShards> shards_;
  std::array<std::int32_t, kNumShards> offsets_{};
  std::atomic<std::size_t> total_{0};
  std::size_t shard_peak_ = 0;
};

}  // namespace dawn
