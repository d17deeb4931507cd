#include "dawn/semantics/packed_config.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

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

void PackedCodec::decode(const std::uint64_t* in, Config& out) const {
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

PackedConfigStore::PackedConfigStore(const PackedCodec& codec,
                                     const std::string& spill_dir,
                                     std::size_t max_resident_bytes)
    : codec_(codec) {
  if (spill_dir.empty() || max_resident_bytes == 0) return;
  fd_ = open_unlinked(spill_dir, "arena", &error_);
  if (fd_ >= 0) max_resident_bytes_ = max_resident_bytes;
}

PackedConfigStore::~PackedConfigStore() {
  if (base_ != nullptr) {
    ::munmap(const_cast<std::uint64_t*>(base_), mapped_bytes_);
  }
  if (fd_ >= 0) ::close(fd_);
}

void PackedConfigStore::fail(const char* what) {
  if (error_.empty()) error_ = std::string(what) + ": " + std::strerror(errno);
}

namespace {

// Packs `value` into the calling thread's scratch (grown once, then reused
// without allocating) and returns the words with their hash.
std::pair<const std::uint64_t*, std::uint64_t> pack_hashed(
    const PackedCodec& codec, const Config& value) {
  static thread_local std::vector<std::uint64_t> scratch;
  scratch.resize(codec.words());
  codec.encode(value, scratch.data());
  return {scratch.data(),
          PackedCodec::hash_words(scratch.data(), scratch.size())};
}

// Splitmix finalizer before extracting shard bits, so low-entropy hash
// regions cannot concentrate shards (same scheme as ShardedConfigStore).
std::size_t shard_index(std::uint64_t h) {
  return static_cast<std::size_t>(hash_mix(h)) & PackedConfigStore::kShardMask;
}

}  // namespace

PackedConfigStore::InternResult PackedConfigStore::intern(const Config& value) {
  const auto [words, h] = pack_hashed(codec_, value);
  std::lock_guard<std::mutex> lock(shards_[shard_index(h)].mu);
  const InternResult r = find_or_insert(h, words);
  if (r.fresh) total_.fetch_add(1, std::memory_order_relaxed);
  return r;
}

void PackedConfigStore::route(
    const Config& value, std::int64_t src, std::span<Batch> batches,
    std::span<const std::uint32_t, kNumShards> owner_of_shard) const {
  const auto [words, h] = pack_hashed(codec_, value);
  Batch& batch = batches[owner_of_shard[shard_index(h)]];
  ++batch.count;
  std::vector<std::uint64_t>& items = batch.items;
  const std::size_t at = items.size();
  items.resize(at + kRoutedHeader + codec_.words());
  items[at] = static_cast<std::uint64_t>(src);
  items[at + 1] = h;
  std::copy(words, words + codec_.words(), items.begin() + at + kRoutedHeader);
}

PackedConfigStore::InternResult PackedConfigStore::find_or_insert(
    std::uint64_t h, const std::uint64_t* words) {
  const std::uint64_t mixed = hash_mix(h);
  const std::size_t shard_idx = static_cast<std::size_t>(mixed) & kShardMask;
  Shard& s = shards_[shard_idx];
  const std::size_t w = codec_.words();
  // A small first table: in spill mode the index is the whole resident
  // baseline, and it must fit tight byte budgets.
  if (s.slots.empty()) s.slots.assign(16, -1);
  const std::size_t slot_mask = s.slots.size() - 1;
  std::size_t pos = static_cast<std::size_t>(mixed >> kShardBits) & slot_mask;
  for (;;) {
    const std::int32_t local = s.slots[pos];
    if (local < 0) break;  // empty slot: `words` is fresh, insert here
    const auto lu = static_cast<std::size_t>(local);
    if (s.hashes[lu] == h && std::equal(words, words + w, words_of(s, lu))) {
      return {pack(local, shard_idx), false};
    }
    pos = (pos + 1) & slot_mask;
  }
  const auto local = static_cast<std::int32_t>(s.count);
  s.arena.insert(s.arena.end(), words, words + w);
  s.hashes.push_back(h);
  s.slots[pos] = local;
  ++s.count;
  // Linear probing stays fast below ~0.7 load.
  if (s.count * 10 >= s.slots.size() * 7) grow(s);
  return {pack(local, shard_idx), true};
}

void PackedConfigStore::grow(Shard& s) {
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

void PackedConfigStore::finalize() {
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

std::size_t PackedConfigStore::bytes() const {
  std::size_t total = 0;
  for (const Shard& s : shards_) {
    // Every local id below hot_first was spilled exactly once.
    total += (s.arena.size() + s.hot_first * codec_.words()) *
             sizeof(std::uint64_t);
    total += s.extents.size() * sizeof(Extent);
    total += s.hashes.size() * sizeof(std::uint64_t);
    total += s.slots.size() * sizeof(std::int32_t);
  }
  return total;
}

std::size_t PackedConfigStore::resident_bytes() const {
  return bytes() - spilled_bytes();
}

const std::uint64_t* PackedConfigStore::spilled_words_of(
    const Shard& s, std::size_t local) const {
  // The last extent starting at or below `local`.
  auto it = std::upper_bound(
      s.extents.begin(), s.extents.end(), local,
      [](std::size_t l, const Extent& e) { return l < e.first_local; });
  DAWN_CHECK(it != s.extents.begin());
  --it;
  return base_ + it->word_off + (local - it->first_local) * codec_.words();
}

bool PackedConfigStore::spill_to_budget() {
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

const Config& PackedConfigStore::value(std::int64_t gid, Config& out) const {
  const Shard& s = shards_[static_cast<std::size_t>(gid) & kShardMask];
  const auto local = static_cast<std::size_t>(gid >> kShardBits);
  DAWN_CHECK(local < s.count);
  codec_.decode(words_of(s, local), out);
  return out;
}

}  // namespace dawn
