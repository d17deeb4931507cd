#include "dawn/semantics/tiered_config.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <type_traits>

#include "dawn/util/check.hpp"
#include "dawn/util/spill_file.hpp"

namespace dawn {

// append_block writes a block's pairs as they lie in memory, and the scan
// reads them back as interleaved src, dst words.
static_assert(sizeof(GidEdges::value_type) == 2 * sizeof(std::int64_t) &&
              std::is_standard_layout_v<GidEdges::value_type>);

EdgeSpool::EdgeSpool(const std::string& dir, int num_writers) {
  DAWN_CHECK(num_writers >= 1);
  writers_.resize(static_cast<std::size_t>(num_writers));
  for (Writer& w : writers_) {
    w.fd = open_unlinked(dir, "edges", &open_error_);
    if (w.fd < 0) return;
  }
}

EdgeSpool::~EdgeSpool() {
  for (Writer& w : writers_) {
    if (w.fd >= 0) ::close(w.fd);
  }
}

bool EdgeSpool::ok() const {
  return open_error_.empty() &&
         std::none_of(writers_.begin(), writers_.end(),
                      [](const Writer& w) { return w.write_errno != 0; });
}

std::string EdgeSpool::error() const {
  if (!open_error_.empty()) return open_error_;
  for (const Writer& w : writers_) {
    if (w.write_errno != 0) {
      return std::string("edge pwrite: ") + std::strerror(w.write_errno);
    }
  }
  return {};
}

void EdgeSpool::append_block(int writer, const GidEdges& block) {
  Writer& w = writers_[static_cast<std::size_t>(writer)];
  if (w.write_errno != 0 || block.empty()) return;
  const std::size_t bytes = block.size() * sizeof(GidEdges::value_type);
  if (!write_all(w.fd, block.data(), bytes, w.file_bytes)) {
    w.write_errno = errno != 0 ? errno : EIO;
    return;
  }
  w.file_bytes += bytes;
  w.edges += block.size();
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
