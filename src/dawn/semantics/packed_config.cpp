#include "dawn/semantics/packed_config.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "dawn/util/check.hpp"
#include "dawn/util/spill_file.hpp"

namespace dawn {

int packed_bits_for(int num_states) {
  DAWN_CHECK_MSG(num_states >= 1, "packed codec needs |Q| >= 1");
  int bits = 0;
  // Smallest b with 2^b >= num_states.
  while ((std::uint64_t{1} << bits) < static_cast<std::uint64_t>(num_states)) {
    ++bits;
  }
  return bits;
}

PackedCodec::PackedCodec(int num_states, int num_nodes)
    : num_states_(num_states),
      bits_(packed_bits_for(num_states)),
      nodes_(num_nodes) {
  DAWN_CHECK(num_nodes >= 0);
  const std::size_t total_bits =
      static_cast<std::size_t>(bits_) * static_cast<std::size_t>(nodes_);
  words_ = (total_bits + 63) / 64;
}

void PackedCodec::encode(const Config& c, std::uint64_t* out) const {
  DAWN_CHECK(c.size() == static_cast<std::size_t>(nodes_));
  if (bits_ == 0) return;  // |Q| = 1: every configuration is the same
  const auto bits = static_cast<std::size_t>(bits_);
  // Fields accumulate in a register and each word is stored once: a
  // read-modify-write of out[] per field would chain every field through
  // store-to-load forwarding.
  std::uint64_t acc = 0;
  std::size_t shift = 0;  // bits of `acc` already filled
  for (const State s : c) {
    DAWN_CHECK_MSG(s >= 0 && s < num_states_,
                   "state outside the machine's advertised num_states()");
    const auto v = static_cast<std::uint64_t>(s);
    acc |= v << shift;
    shift += bits;
    if (shift >= 64) {
      *out++ = acc;
      shift -= 64;
      // A field straddling the word boundary carries its high `shift` bits
      // into the next word (none when it ended exactly on the boundary:
      // v < 2^bits). bits - shift is in [1, bits], so the shift is defined.
      acc = v >> (bits - shift);
    }
  }
  if (shift > 0) *out = acc;
}

void PackedCodec::decode(const std::uint64_t* in, std::size_t n,
                         Config& out) const {
  DAWN_CHECK(n == words_);
  out.assign(static_cast<std::size_t>(nodes_), 0);
  if (bits_ == 0) return;
  const auto bits = static_cast<std::size_t>(bits_);
  const std::uint64_t mask =
      bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::size_t off = i * bits;
    const std::size_t word = off / 64;
    const std::size_t shift = off % 64;
    std::uint64_t v = in[word] >> shift;
    if (shift + bits > 64) v |= in[word + 1] << (64 - shift);
    out[i] = static_cast<State>(v & mask);
  }
}

std::uint64_t PackedCodec::hash_words(const std::uint64_t* w, std::size_t n) {
  std::size_t seed = n;
  for (std::size_t i = 0; i < n; ++i) hash_combine(seed, w[i]);
  return static_cast<std::uint64_t>(seed);
}

namespace {

// One (state, count) pair as a word: the state in the high half, so word
// order is state order.
std::uint64_t pair_word(State q, std::int64_t n) {
  DAWN_CHECK_MSG(q >= 0, "counted codec needs non-negative states");
  DAWN_CHECK_MSG(n >= 1 && n <= CountedCodec::kMaxCount,
                 "count outside the counted codec's [1, 2^32 - 1]");
  return static_cast<std::uint64_t>(q) << 32 | static_cast<std::uint64_t>(n);
}

std::pair<State, std::int64_t> word_pair(std::uint64_t w) {
  return {static_cast<State>(w >> 32),
          static_cast<std::int64_t>(w & 0xffff'ffffu)};
}

}  // namespace

void CountedCodec::encode(const CountedConfig& c, std::uint64_t* out) {
  for (const auto& [q, n] : c) *out++ = pair_word(q, n);
}

void CountedCodec::decode(const std::uint64_t* in, std::size_t n,
                          CountedConfig& out) {
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = word_pair(in[i]);
}

void StarCodec::encode(const StarConfig& c, std::uint64_t* out) {
  DAWN_CHECK_MSG(c.centre >= 0, "star codec needs non-negative states");
  out[0] = static_cast<std::uint64_t>(c.centre);
  CountedCodec::encode(c.leaves, out + 1);
}

void StarCodec::decode(const std::uint64_t* in, std::size_t n,
                       StarConfig& out) {
  DAWN_CHECK(n >= 1);
  out.centre = static_cast<State>(in[0]);
  CountedCodec::decode(in + 1, n - 1, out.leaves);
}

template <typename Codec>
PackedStore<Codec>::PackedStore(const Codec& codec,
                                const std::string& spill_dir,
                                std::size_t max_resident_bytes)
    : codec_(codec) {
  if (spill_dir.empty() || max_resident_bytes == 0) return;
  fd_ = open_unlinked(spill_dir, "arena", &error_);
  if (fd_ >= 0) max_resident_bytes_ = max_resident_bytes;
}

template <typename Codec>
PackedStore<Codec>::~PackedStore() {
  if (base_ != nullptr) {
    ::munmap(const_cast<std::uint64_t*>(base_), mapped_bytes_);
  }
  if (fd_ >= 0) ::close(fd_);
}

template <typename Codec>
void PackedStore<Codec>::fail(const char* what) {
  if (error_.empty()) error_ = std::string(what) + ": " + std::strerror(errno);
}

namespace {

struct Packed {
  const std::uint64_t* words;
  std::size_t n;
  std::uint64_t hash;
};

// Packs `value` into the calling thread's scratch (grown once, then reused
// without allocating) and returns the words with their hash.
template <typename Codec>
Packed pack_hashed(const Codec& codec, const typename Codec::Value& value) {
  static thread_local std::vector<std::uint64_t> scratch;
  scratch.resize(codec.words(value));
  codec.encode(value, scratch.data());
  return {scratch.data(), scratch.size(),
          PackedCodec::hash_words(scratch.data(), scratch.size())};
}

// Splitmix finalizer before extracting shard bits, so low-entropy hash
// regions cannot concentrate shards (same scheme as ShardedConfigStore).
std::size_t shard_index(std::uint64_t h, std::size_t mask) {
  return static_cast<std::size_t>(hash_mix(h)) & mask;
}

}  // namespace

template <typename Codec>
typename PackedStore<Codec>::InternResult PackedStore<Codec>::intern(
    const Value& value) {
  const Packed p = pack_hashed(codec_, value);
  std::lock_guard<std::mutex> lock(shards_[shard_index(p.hash, kShardMask)].mu);
  const InternResult r = find_or_insert(p.hash, p.words, p.n);
  if (r.fresh) total_.fetch_add(1, std::memory_order_relaxed);
  return r;
}

template <typename Codec>
void PackedStore<Codec>::route(
    const Value& value, std::int64_t src, std::span<Batch> batches,
    std::span<const std::uint32_t, kNumShards> owner_of_shard) const {
  const Packed p = pack_hashed(codec_, value);
  Batch& batch = batches[owner_of_shard[shard_index(p.hash, kShardMask)]];
  ++batch.count;
  std::vector<std::uint64_t>& items = batch.items;
  const std::size_t at = items.size();
  items.resize(at + kRoutedHeader + p.n);
  items[at] = static_cast<std::uint64_t>(src);
  items[at + 1] = p.hash;
  if constexpr (!Codec::kFixedWidth) items[at + 2] = p.n;
  std::copy(p.words, p.words + p.n, items.begin() + at + kRoutedHeader);
}

template <typename Codec>
typename PackedStore<Codec>::InternResult PackedStore<Codec>::find_or_insert(
    std::uint64_t h, const std::uint64_t* words, std::size_t n) {
  const std::uint64_t mixed = hash_mix(h);
  const std::size_t shard_idx = static_cast<std::size_t>(mixed) & kShardMask;
  Shard& s = shards_[shard_idx];
  // A small first table: in spill mode the index is the whole resident
  // baseline, and it must fit tight byte budgets.
  if (s.slots.empty()) s.slots.assign(16, -1);
  const std::size_t slot_mask = s.slots.size() - 1;
  std::size_t pos = static_cast<std::size_t>(mixed >> kShardBits) & slot_mask;
  for (;;) {
    const std::int32_t local = s.slots[pos];
    if (local < 0) break;  // empty slot: `words` is fresh, insert here
    const auto lu = static_cast<std::size_t>(local);
    if (s.hashes[lu] == h) {
      const Span at = stream_span(s, lu);
      if (at.n == n && std::equal(words, words + n, words_at(s, lu, at))) {
        return {pack(local, shard_idx), false};
      }
    }
    pos = (pos + 1) & slot_mask;
  }
  const auto local = static_cast<std::int32_t>(s.count);
  s.arena.insert(s.arena.end(), words, words + n);
  if constexpr (!Codec::kFixedWidth) {
    const std::size_t end = s.hot_word + s.arena.size();
    DAWN_CHECK_MSG(end <= std::numeric_limits<std::uint32_t>::max(),
                   "a variable-width shard holds at most 2^32 - 1 words");
    s.ends.push_back(static_cast<std::uint32_t>(end));
  }
  s.hashes.push_back(h);
  s.slots[pos] = local;
  ++s.count;
  // Linear probing stays fast below ~0.7 load.
  if (s.count * 10 >= s.slots.size() * 7) grow(s);
  return {pack(local, shard_idx), true};
}

template <typename Codec>
void PackedStore<Codec>::grow(Shard& s) {
  std::vector<std::int32_t> slots(s.slots.size() * 2, -1);
  const std::size_t mask = slots.size() - 1;
  for (std::size_t l = 0; l < s.count; ++l) {
    std::size_t pos =
        static_cast<std::size_t>(hash_mix(s.hashes[l]) >> kShardBits) & mask;
    while (slots[pos] >= 0) pos = (pos + 1) & mask;
    slots[pos] = static_cast<std::int32_t>(l);
  }
  s.slots.swap(slots);
}

template <typename Codec>
void PackedStore<Codec>::finalize() {
  DAWN_CHECK_MSG(size() <= static_cast<std::size_t>(
                               std::numeric_limits<std::int32_t>::max()),
                 "dense ids are int32");
  std::int32_t offset = 0;
  for (std::size_t sh = 0; sh < kNumShards; ++sh) {
    offsets_[sh] = offset;
    const std::size_t occupancy = shards_[sh].count;
    offset += static_cast<std::int32_t>(occupancy);
    if (occupancy > shard_peak_) shard_peak_ = occupancy;
  }
}

template <typename Codec>
std::size_t PackedStore<Codec>::bytes() const {
  // Every entry's words, resident or spilled, and its end offset if any.
  std::size_t words = file_words_;
  std::size_t ends = 0;
  for (const Shard& s : shards_) {
    words += s.arena.size();
    ends += s.ends.size();
  }
  const std::size_t entries = size();
  return words * sizeof(std::uint64_t) + ends * sizeof(std::uint32_t) +
         entries * sizeof(std::uint64_t) + index_bytes(entries) +
         spill_events_ * kNumShards * sizeof(Extent);
}

template <typename Codec>
std::size_t PackedStore<Codec>::resident_bytes() const {
  return bytes() - spilled_bytes();
}

template <typename Codec>
const std::uint64_t* PackedStore<Codec>::spilled_words_at(
    const Shard& s, std::size_t local, Span at) const {
  // The last extent starting at or below `local`.
  auto it = std::upper_bound(
      s.extents.begin(), s.extents.end(), local,
      [](std::size_t l, const Extent& e) { return l < e.first_local; });
  DAWN_CHECK(it != s.extents.begin());
  --it;
  return base_ + it->word_off +
         (at.begin - stream_span(s, it->first_local).begin);
}

template <typename Codec>
bool PackedStore<Codec>::spill_to_budget() {
  if (!spills()) return true;
  if (!ok()) return false;
  if (resident_bytes() <= max_resident_bytes_) return true;
  const std::uint64_t words_before = file_words_;
  for (Shard& s : shards_) {
    if (s.arena.empty()) continue;
    if (!write_all(fd_, s.arena.data(), s.arena.size() * sizeof(std::uint64_t),
                   file_words_ * sizeof(std::uint64_t))) {
      fail("arena pwrite");
      return false;
    }
    s.extents.push_back({file_words_, s.hot_first});
    file_words_ += s.arena.size();
    s.hot_first = static_cast<std::uint32_t>(s.count);
    s.hot_word += s.arena.size();
    std::vector<std::uint64_t>().swap(s.arena);
  }
  if (file_words_ != words_before) {
    // Map the grown file afresh: the old mapping is too short.
    if (base_ != nullptr) {
      ::munmap(const_cast<std::uint64_t*>(base_), mapped_bytes_);
      base_ = nullptr;
    }
    mapped_bytes_ = file_words_ * sizeof(std::uint64_t);
    void* p = ::mmap(nullptr, mapped_bytes_, PROT_READ, MAP_SHARED, fd_, 0);
    if (p == MAP_FAILED) {
      mapped_bytes_ = 0;
      fail("arena mmap");
      return false;
    }
    base_ = static_cast<const std::uint64_t*>(p);
    ++spill_events_;
  }
  return true;
}

template <typename Codec>
const typename PackedStore<Codec>::Value& PackedStore<Codec>::value(
    std::int64_t gid, Value& out) const {
  const Shard& s = shards_[static_cast<std::size_t>(gid) & kShardMask];
  const auto local = static_cast<std::size_t>(gid >> kShardBits);
  DAWN_CHECK(local < s.count);
  const Span at = stream_span(s, local);
  codec_.decode(words_at(s, local, at), at.n, out);
  return out;
}

template class PackedStore<PackedCodec>;
template class PackedStore<CountedCodec>;
template class PackedStore<StarCodec>;

}  // namespace dawn
