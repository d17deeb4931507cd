#include "dawn/semantics/tiered_config.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <type_traits>

#include "dawn/util/check.hpp"
#include "dawn/util/spill_file.hpp"

namespace dawn {

// append_block writes a block's pairs as they lie in memory, and scan()
// reads them back into pairs.
static_assert(sizeof(GidEdges::value_type) == 2 * sizeof(std::uint32_t) &&
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
  if (!write_all(w.fd, block.data(),
                 block.size() * sizeof(GidEdges::value_type),
                 w.edges * sizeof(GidEdges::value_type))) {
    w.write_errno = errno != 0 ? errno : EIO;
    return;
  }
  w.edges += block.size();
}

std::uint64_t EdgeSpool::num_edges() const {
  std::uint64_t total = 0;
  for (const Writer& w : writers_) total += w.edges;
  return total;
}

bool EdgeSpool::scan(
    int writer,
    const std::function<void(std::span<const GidEdges::value_type>)>& chunk)
    const {
  const Writer& w = writers_[static_cast<std::size_t>(writer)];
  // Whole pairs per read: 64 KiB or the file tail.
  constexpr std::size_t kChunkPairs = (std::size_t{64} << 10) /
                                      sizeof(GidEdges::value_type);
  GidEdges buf(static_cast<std::size_t>(
      std::min<std::uint64_t>(w.edges, kChunkPairs)));
  for (std::uint64_t at = 0; at < w.edges; at += buf.size()) {
    const auto pairs = static_cast<std::size_t>(
        std::min<std::uint64_t>(w.edges - at, buf.size()));
    if (!read_all(w.fd, buf.data(), pairs * sizeof(GidEdges::value_type),
                  at * sizeof(GidEdges::value_type))) {
      return false;
    }
    chunk(std::span(buf.data(), pairs));
  }
  return true;
}

}  // namespace dawn
