#include "dawn/semantics/tiered_config.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "dawn/obs/telemetry.hpp"
#include "dawn/semantics/scc.hpp"
#include "dawn/util/check.hpp"
#include "dawn/util/hash.hpp"
#include "dawn/util/varint.hpp"

namespace dawn {
namespace {

// All spill files are created O_EXCL under the caller's spill dir and
// unlinked immediately: the fd keeps the storage alive, crashes leak
// nothing, and two concurrent stores can never collide.
int open_unlinked(const std::string& dir, const char* tag,
                  std::string* error) {
  static std::atomic<std::uint64_t> seq{0};
  if (dir.empty()) {
    *error = "empty spill dir";
    return -1;
  }
  const std::string path = dir + "/dawn-spill-" + std::to_string(::getpid()) +
                           "-" + tag + "-" +
                           std::to_string(seq.fetch_add(1)) + ".tmp";
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC,
                        0600);
  if (fd < 0) {
    *error = "open " + path + ": " + std::strerror(errno);
    return -1;
  }
  ::unlink(path.c_str());
  return fd;
}

bool write_all(int fd, const void* data, std::size_t len, std::uint64_t off) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, p, len, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    off += static_cast<std::uint64_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t len, std::uint64_t off) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t n = ::pread(fd, p, len, static_cast<off_t>(off));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // short file = corruption, treat as failure
    }
    p += n;
    off += static_cast<std::uint64_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// TieredConfigStore
// ---------------------------------------------------------------------------

TieredConfigStore::TieredConfigStore(const PackedCodec& codec,
                                     const std::string& spill_dir,
                                     std::size_t max_resident_bytes)
    : codec_(codec), max_resident_bytes_(max_resident_bytes) {
  fd_ = open_unlinked(spill_dir, "arena", &error_);
  ok_ = fd_ >= 0;
}

TieredConfigStore::~TieredConfigStore() {
  if (base_ != nullptr) {
    ::munmap(const_cast<std::uint64_t*>(base_), mapped_bytes_);
  }
  if (fd_ >= 0) ::close(fd_);
}

void TieredConfigStore::fail(const std::string& what) {
  ok_ = false;
  if (error_.empty()) error_ = what + ": " + std::strerror(errno);
}

TieredConfigStore::InternResult TieredConfigStore::intern(const Config& value) {
  // Per-thread packing scratch, same scheme as PackedConfigStore.
  static thread_local std::vector<std::uint64_t> scratch;
  const std::size_t w = codec_.words();
  scratch.resize(w);
  codec_.encode(value, scratch.data());
  const std::uint64_t h = PackedCodec::hash_words(scratch.data(), w);
  const std::uint64_t mixed = hash_mix(h);
  const std::size_t shard_idx = static_cast<std::size_t>(mixed) & kShardMask;
  Shard& s = shards_[shard_idx];
  std::lock_guard<std::mutex> lock(s.mu);
  // Small initial table: a tiered store's baseline resident footprint must
  // stay well under tight byte budgets (the fuzz oracle uses tens of KiB).
  if (s.slots.empty()) s.slots.assign(16, -1);
  const std::size_t slot_mask = s.slots.size() - 1;
  std::size_t pos = static_cast<std::size_t>(mixed >> kShardBits) & slot_mask;
  for (;;) {
    const std::int32_t local = s.slots[pos];
    if (local < 0) break;  // empty slot: `value` is fresh, insert here
    const auto lu = static_cast<std::size_t>(local);
    if (s.hashes[lu] == h) {
      const std::uint64_t* words = words_of(s, lu);
      if (w == 0 ||
          std::equal(scratch.begin(), scratch.end(), words)) {
        return {pack(local, shard_idx), false};
      }
    }
    pos = (pos + 1) & slot_mask;
  }
  const auto local = static_cast<std::int32_t>(s.count);
  s.hot.insert(s.hot.end(), scratch.begin(), scratch.end());
  s.hashes.push_back(h);
  s.slots[pos] = local;
  ++s.count;
  // Linear probing stays fast below ~0.7 load.
  if (s.count * 10 >= s.slots.size() * 7) grow(s);
  total_.fetch_add(1, std::memory_order_relaxed);
  return {pack(local, shard_idx), true};
}

std::size_t TieredConfigStore::shard_of(const Config& value) const {
  static thread_local std::vector<std::uint64_t> scratch;
  const std::size_t w = codec_.words();
  scratch.resize(w);
  codec_.encode(value, scratch.data());
  const std::uint64_t h = PackedCodec::hash_words(scratch.data(), w);
  return static_cast<std::size_t>(hash_mix(h)) & kShardMask;
}

void TieredConfigStore::grow(Shard& s) {
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

const std::uint64_t* TieredConfigStore::words_of(const Shard& s,
                                                 std::size_t local) const {
  const std::size_t w = codec_.words();
  if (w == 0) return nullptr;
  if (local >= s.hot_first) {
    return s.hot.data() + (local - s.hot_first) * w;
  }
  // Spilled: extents are ascending by first_local; take the last one at or
  // below `local`.
  auto it = std::upper_bound(
      s.extents.begin(), s.extents.end(), local,
      [](std::size_t l, const Extent& e) { return l < e.first_local; });
  DAWN_CHECK(it != s.extents.begin());
  --it;
  return base_ + it->word_off + (local - it->first_local) * w;
}

void TieredConfigStore::finalize() {
  std::int32_t offset = 0;
  for (std::size_t sh = 0; sh < kNumShards; ++sh) {
    offsets_[sh] = offset;
    const std::size_t occupancy = shards_[sh].count;
    offset += static_cast<std::int32_t>(occupancy);
    if (occupancy > shard_peak_) shard_peak_ = occupancy;
  }
}

std::size_t TieredConfigStore::resident_bytes() const {
  std::size_t total = 0;
  for (const Shard& s : shards_) {
    total += s.hot.size() * sizeof(std::uint64_t);
    total += s.hashes.size() * sizeof(std::uint64_t);
    total += s.slots.size() * sizeof(std::int32_t);
    total += s.extents.size() * sizeof(Extent);
  }
  return total;
}

bool TieredConfigStore::spill_to_budget() {
  if (!ok_) return false;
  if (resident_bytes() <= max_resident_bytes_) return true;
  if (codec_.words() == 0) return true;  // |Q| = 1: nothing spillable
  bool spilled = false;
  for (std::size_t sh = 0; sh < kNumShards; ++sh) {
    Shard& s = shards_[sh];
    if (s.hot.empty()) continue;
    if (!write_all(fd_, s.hot.data(), s.hot.size() * sizeof(std::uint64_t),
                   file_words_ * sizeof(std::uint64_t))) {
      fail("arena pwrite");
      return false;
    }
    s.extents.push_back({file_words_, s.hot_first});
    file_words_ += s.hot.size();
    s.hot_first = static_cast<std::uint32_t>(s.count);
    s.hot.clear();
    s.hot.shrink_to_fit();
    spilled = true;
  }
  if (spilled) {
    if (!remap()) return false;
    ++spill_events_;
  }
  return true;
}

bool TieredConfigStore::remap() {
  if (base_ != nullptr) {
    ::munmap(const_cast<std::uint64_t*>(base_), mapped_bytes_);
    base_ = nullptr;
    mapped_bytes_ = 0;
  }
  if (file_words_ == 0) return true;
  void* p = ::mmap(nullptr, file_words_ * sizeof(std::uint64_t), PROT_READ,
                   MAP_SHARED, fd_, 0);
  if (p == MAP_FAILED) {
    fail("arena mmap");
    return false;
  }
  base_ = static_cast<const std::uint64_t*>(p);
  mapped_bytes_ = file_words_ * sizeof(std::uint64_t);
  return true;
}

void TieredConfigStore::value(std::int64_t gid, Config& out) const {
  const auto shard_idx = static_cast<std::size_t>(gid) & kShardMask;
  const auto local = static_cast<std::size_t>(gid >> kShardBits);
  auto& s = const_cast<Shard&>(shards_[shard_idx]);
  std::lock_guard<std::mutex> lock(s.mu);
  DAWN_CHECK(local < s.count);
  codec_.decode(words_of(s, local), out);
}

// ---------------------------------------------------------------------------
// FrontierSpool
// ---------------------------------------------------------------------------

FrontierSpool::FrontierSpool(const std::string& dir) {
  fd_ = open_unlinked(dir, "frontier", &error_);
  ok_ = fd_ >= 0;
}

FrontierSpool::~FrontierSpool() {
  if (fd_ >= 0) ::close(fd_);
}

void FrontierSpool::fail(const std::string& what) {
  ok_ = false;
  if (error_.empty()) error_ = what + ": " + std::strerror(errno);
}

std::optional<FrontierSpool::Level> FrontierSpool::put(
    const std::vector<std::int64_t>& sorted_gids) {
  if (!ok_) return std::nullopt;
  std::vector<std::uint8_t> enc;
  enc.reserve(sorted_gids.size() * 2);
  std::int64_t prev = 0;
  bool first = true;
  for (const std::int64_t gid : sorted_gids) {
    DAWN_CHECK(gid >= 0 && (first || gid > prev));
    append_varint(enc, static_cast<std::uint64_t>(first ? gid : gid - prev));
    prev = gid;
    first = false;
  }
  if (!write_all(fd_, enc.data(), enc.size(), bytes_written_)) {
    fail("frontier pwrite");
    return std::nullopt;
  }
  const Level level{bytes_written_, enc.size(), sorted_gids.size()};
  bytes_written_ += enc.size();
  ++levels_;
  return level;
}

bool FrontierSpool::Cursor::refill() {
  constexpr std::size_t kBufBytes = 64u << 10;
  const std::size_t remain = buf_len_ - buf_pos_;
  if (buf_.empty()) buf_.resize(kBufBytes);
  if (remain > 0) std::memmove(buf_.data(), buf_.data() + buf_pos_, remain);
  buf_pos_ = 0;
  buf_len_ = remain;
  const std::uint64_t left = level_.bytes - file_pos_;
  const std::size_t to_read =
      static_cast<std::size_t>(std::min<std::uint64_t>(
          left, static_cast<std::uint64_t>(buf_.size() - remain)));
  if (to_read == 0) return remain > 0;
  if (!read_all(spool_->fd_, buf_.data() + remain, to_read,
                level_.offset + file_pos_)) {
    failed_ = true;
    return false;
  }
  file_pos_ += to_read;
  buf_len_ = remain + to_read;
  return true;
}

bool FrontierSpool::Cursor::next_chunk(std::vector<std::int64_t>* out,
                                       std::size_t max_gids) {
  out->clear();
  if (failed_) return false;
  while (out->size() < max_gids && decoded_ < level_.count) {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (buf_pos_ >= buf_len_ && !refill()) {
        failed_ = true;  // level count says more gids than bytes: corrupt
        return false;
      }
      const std::uint8_t b = buf_[buf_pos_++];
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) break;
      shift += 7;
      if (shift >= 64) {
        failed_ = true;
        return false;
      }
    }
    prev_ = decoded_ == 0 ? static_cast<std::int64_t>(v)
                          : prev_ + static_cast<std::int64_t>(v);
    out->push_back(prev_);
    ++decoded_;
  }
  return !out->empty();
}

// ---------------------------------------------------------------------------
// EdgeSpool
// ---------------------------------------------------------------------------

namespace {
// 8192 pairs = 128 KiB of buffered edges per worker before a write().
constexpr std::size_t kEdgeBufPairs = 8192;
}  // namespace

EdgeSpool::EdgeSpool(const std::string& dir, int num_writers) {
  DAWN_CHECK(num_writers >= 1);
  writers_.resize(static_cast<std::size_t>(num_writers));
  ok_ = true;
  for (Writer& w : writers_) {
    w.fd = open_unlinked(dir, "edges", &error_);
    if (w.fd < 0) {
      ok_ = false;
      return;
    }
  }
}

EdgeSpool::~EdgeSpool() {
  for (Writer& w : writers_) {
    if (w.fd >= 0) ::close(w.fd);
  }
}

void EdgeSpool::fail(const std::string& what) {
  ok_ = false;
  if (error_.empty()) error_ = what + ": " + std::strerror(errno);
}

void EdgeSpool::append(int writer, std::int64_t src, std::int64_t dst) {
  Writer& w = writers_[static_cast<std::size_t>(writer)];
  if (w.fail) return;
  w.buf.push_back(src);
  w.buf.push_back(dst);
  ++w.edges;
  if (w.buf.size() >= 2 * kEdgeBufPairs) flush(w);
}

bool EdgeSpool::flush(Writer& w) {
  if (w.fail) return false;
  if (w.buf.empty()) return true;
  const std::size_t bytes = w.buf.size() * sizeof(std::int64_t);
  if (!write_all(w.fd, w.buf.data(), bytes, w.file_bytes)) {
    w.fail = true;
    fail("edge pwrite");
    return false;
  }
  w.file_bytes += bytes;
  w.buf.clear();
  return true;
}

bool EdgeSpool::flush_all() {
  bool all_ok = ok_;
  for (Writer& w : writers_) {
    if (!flush(w)) all_ok = false;
  }
  return all_ok;
}

std::uint64_t EdgeSpool::num_edges() const {
  std::uint64_t total = 0;
  for (const Writer& w : writers_) total += w.edges;
  return total;
}

bool EdgeSpool::ScanCursor::next(std::int64_t* src, std::int64_t* dst) {
  if (failed_) return false;
  while (buf_pos_ >= buf_.size()) {
    if (file_ >= spool_->writers_.size()) return false;
    const Writer& w = spool_->writers_[file_];
    const std::uint64_t left = w.file_bytes - file_pos_;
    if (left == 0) {
      ++file_;
      file_pos_ = 0;
      continue;
    }
    // Whole number of pairs per read: 64 KiB or the file tail.
    const std::size_t to_read = static_cast<std::size_t>(
        std::min<std::uint64_t>(left, std::uint64_t{64} << 10));
    DAWN_CHECK(to_read % (2 * sizeof(std::int64_t)) == 0);
    buf_.resize(to_read / sizeof(std::int64_t));
    if (!read_all(w.fd, buf_.data(), to_read, file_pos_)) {
      failed_ = true;
      return false;
    }
    file_pos_ += to_read;
    buf_pos_ = 0;
  }
  *src = buf_[buf_pos_];
  *dst = buf_[buf_pos_ + 1];
  buf_pos_ += 2;
  return true;
}

// ---------------------------------------------------------------------------
// Semi-external bottom-SCC classification
// ---------------------------------------------------------------------------

ExternalClassification classify_bottom_sccs_external(
    const EdgeSpool& edges, const TieredConfigStore& store,
    const std::vector<Verdict>& verdicts, std::size_t resident_cap) {
  ExternalClassification out;
  const std::size_t n = verdicts.size();
  if (n == 0) {
    out.decision = Decision::Reject;  // matches classify_bottom_sccs on {}
    return out;
  }

  const obs::Telemetry tel = obs::telemetry();

  // Resident O(V) state: final SCC id (-1 = active), refinement partition,
  // and per-pass degree counters.
  std::vector<std::int32_t> comp(n, -1);
  std::vector<std::int32_t> part(n, 0);
  std::vector<std::uint32_t> indeg(n), outdeg(n);
  std::vector<std::uint8_t> mark;
  std::int32_t next_scc = 0;
  std::size_t active = n;

  // One sequential pass over every spooled edge in dense-id space.
  const auto scan = [&](auto&& fn) -> bool {
    EdgeSpool::ScanCursor cur(edges);
    std::int64_t src = 0;
    std::int64_t dst = 0;
    while (cur.next(&src, &dst)) {
      fn(static_cast<std::size_t>(store.dense(src)),
         static_cast<std::size_t>(store.dense(dst)));
    }
    return !cur.failed();
  };
  const auto give_up = [&out](UnknownReason why) {
    out.decision = Decision::Unknown;
    out.reason = why;
    out.num_bottom_sccs = 0;
    return out;
  };

  // Bounded streaming rounds. Each FB round finalises at least one SCC per
  // active partition, so 64 rounds cover any graph the Tarjan fallback
  // can't already swallow; trim passes are capped separately because a long
  // DAG chain peels only its endpoints per scan.
  constexpr int kMaxFbRounds = 64;
  constexpr int kMaxTrimPasses = 512;
  int fb_rounds = 0;

  while (active > 0) {
    // --- Trim: peel indeg==0 / outdeg==0 nodes as singleton SCCs. Degrees
    // count active, same-partition, non-self edges only. ---
    {
      obs::SpanScope span(tel.spans, obs::Phase::ExploreSccTrim, active);
      for (int pass = 0; pass < kMaxTrimPasses && active > 0; ++pass) {
        std::fill(indeg.begin(), indeg.end(), 0);
        std::fill(outdeg.begin(), outdeg.end(), 0);
        const bool io_ok = scan([&](std::size_t u, std::size_t v) {
          if (u == v || comp[u] >= 0 || comp[v] >= 0) return;
          if (part[u] != part[v]) return;
          ++outdeg[u];
          ++indeg[v];
        });
        if (!io_ok) return give_up(UnknownReason::MemoryCap);
        std::size_t removed = 0;
        for (std::size_t v = 0; v < n; ++v) {
          if (comp[v] < 0 && (indeg[v] == 0 || outdeg[v] == 0)) {
            comp[v] = next_scc++;
            ++removed;
          }
        }
        active -= removed;
        if (removed == 0) break;
      }
    }
    if (active == 0) break;

    // --- Tarjan fallback: if the active subgraph's CSR fits the resident
    // cap, load it and finish in memory. Cross-partition active edges are
    // included — SCCs never span partitions, so they are harmless. ---
    std::uint64_t active_edges = 0;
    if (!scan([&](std::size_t u, std::size_t v) {
          if (u != v && comp[u] < 0 && comp[v] < 0) ++active_edges;
        })) {
      return give_up(UnknownReason::MemoryCap);
    }
    const std::uint64_t csr_bytes =
        active_edges * sizeof(std::int32_t) +
        (static_cast<std::uint64_t>(active) + 1) * sizeof(std::uint32_t) +
        static_cast<std::uint64_t>(active) * 2 * sizeof(std::int32_t);
    if (csr_bytes <= resident_cap) {
      // Compact active nodes in dense order, build the CSR in two scans.
      std::vector<std::int32_t> subid(n, -1);
      std::vector<std::int32_t> nodes;
      nodes.reserve(active);
      for (std::size_t v = 0; v < n; ++v) {
        if (comp[v] < 0) {
          subid[v] = static_cast<std::int32_t>(nodes.size());
          nodes.push_back(static_cast<std::int32_t>(v));
        }
      }
      CsrGraph sub;
      std::vector<std::uint32_t>& off = sub.offsets;
      off.assign(nodes.size() + 1, 0);
      if (!scan([&](std::size_t u, std::size_t v) {
            if (u != v && comp[u] < 0 && comp[v] < 0) {
              ++off[static_cast<std::size_t>(subid[u]) + 1];
            }
          })) {
        return give_up(UnknownReason::MemoryCap);
      }
      for (std::size_t i = 1; i < off.size(); ++i) off[i] += off[i - 1];
      sub.targets.resize(active_edges);
      std::vector<std::uint32_t> cursor(off.begin(), off.end() - 1);
      if (!scan([&](std::size_t u, std::size_t v) {
            if (u != v && comp[u] < 0 && comp[v] < 0) {
              sub.targets[cursor[static_cast<std::size_t>(subid[u])]++] =
                  subid[v];
            }
          })) {
        return give_up(UnknownReason::MemoryCap);
      }
      const SccInfo info = compute_sccs(sub);
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        comp[static_cast<std::size_t>(nodes[i])] = next_scc + info.component[i];
      }
      next_scc += static_cast<std::int32_t>(info.count);
      active = 0;
      break;
    }

    if (++fb_rounds > kMaxFbRounds) return give_up(UnknownReason::MemoryCap);

    // --- One forward-backward round: per active partition, pivot = its
    // smallest dense node; propagate F (bit 0) along edges and B (bit 1)
    // against them to fixpoint via repeated scans; F∩B is the pivot's SCC;
    // survivors split into F-only / B-only / untouched partitions. ---
    {
      obs::SpanScope span(tel.spans, obs::Phase::ExploreSccFb, active);
      std::unordered_map<std::int32_t, std::int32_t> pivot;
      for (std::size_t v = 0; v < n; ++v) {
        if (comp[v] < 0) pivot.try_emplace(part[v], static_cast<std::int32_t>(v));
      }
      mark.assign(n, 0);
      for (const auto& [p, pv] : pivot) {
        mark[static_cast<std::size_t>(pv)] = 3;
      }
      bool changed = true;
      while (changed) {
        changed = false;
        const bool io_ok = scan([&](std::size_t u, std::size_t v) {
          if (u == v || comp[u] >= 0 || comp[v] >= 0) return;
          if (part[u] != part[v]) return;
          if ((mark[u] & 1) != 0 && (mark[v] & 1) == 0) {
            mark[v] |= 1;
            changed = true;
          }
          if ((mark[v] & 2) != 0 && (mark[u] & 2) == 0) {
            mark[u] |= 2;
            changed = true;
          }
        });
        if (!io_ok) return give_up(UnknownReason::MemoryCap);
      }
      // Finalise F∩B per partition; renumber the survivors. All ids are
      // assigned in dense-node order, so the refinement is deterministic.
      std::unordered_map<std::int32_t, std::int32_t> scc_of_part;
      std::unordered_map<std::int64_t, std::int32_t> new_part;
      std::int32_t next_part = 0;
      for (std::size_t v = 0; v < n; ++v) {
        if (comp[v] >= 0) continue;
        const std::int32_t p = part[v];
        const int m = mark[v] & 3;
        if (m == 3) {
          const auto [it, fresh] = scc_of_part.try_emplace(p, next_scc);
          if (fresh) ++next_scc;
          comp[v] = it->second;
          --active;
        } else {
          const std::int64_t key = static_cast<std::int64_t>(p) * 4 + m;
          const auto [it, fresh] = new_part.try_emplace(key, next_part);
          if (fresh) ++next_part;
          part[v] = it->second;
        }
      }
    }
  }

  // --- Bottomness + verdict aggregation, one final full scan. ---
  const auto num_sccs = static_cast<std::size_t>(next_scc);
  std::vector<std::uint8_t> has_out(num_sccs, 0);
  if (!scan([&](std::size_t u, std::size_t v) {
        if (comp[u] != comp[v]) has_out[static_cast<std::size_t>(comp[u])] = 1;
      })) {
    return give_up(UnknownReason::MemoryCap);
  }
  std::vector<std::uint8_t> all_acc(num_sccs, 1), all_rej(num_sccs, 1);
  for (std::size_t v = 0; v < n; ++v) {
    const auto s = static_cast<std::size_t>(comp[v]);
    if (has_out[s] != 0) continue;
    if (verdicts[v] != Verdict::Accept) all_acc[s] = 0;
    if (verdicts[v] != Verdict::Reject) all_rej[s] = 0;
  }
  bool any_accept = false, any_reject = false, any_mixed = false;
  for (std::size_t s = 0; s < num_sccs; ++s) {
    if (has_out[s] != 0) continue;
    ++out.num_bottom_sccs;
    if (all_acc[s] != 0) {
      any_accept = true;
    } else if (all_rej[s] != 0) {
      any_reject = true;
    } else {
      any_mixed = true;
    }
  }
  if (any_mixed || (any_accept && any_reject)) {
    out.decision = Decision::Inconsistent;
  } else if (any_accept) {
    out.decision = Decision::Accept;
  } else {
    out.decision = Decision::Reject;
  }
  out.reason = UnknownReason::None;
  return out;
}

}  // namespace dawn
