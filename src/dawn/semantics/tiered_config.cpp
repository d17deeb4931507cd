#include "dawn/semantics/tiered_config.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "dawn/util/check.hpp"
#include "dawn/util/spill_file.hpp"

namespace dawn {
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

}  // namespace dawn
