// Out-of-core edges: the edge spool of the explicit engine's spill mode and
// the bottom-SCC classification that reads it back. When its
// PackedConfigStore spills (packed_config.hpp, docs/ENGINE.md "The tiered
// store"), the engine (parallel_explore.hpp) hands every full edge block of
// an owner to that owner's EdgeSpool file instead of keeping it in RAM, and
// writes the tails after the last level. Each owner then sorts its own file
// into its rows of the reverse CSR, as it sorts its blocks in memory, and
// both modes share one classifier (scc.hpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "dawn/semantics/decision.hpp"
#include "dawn/semantics/scc.hpp"
#include "dawn/util/check.hpp"

namespace dawn {

// Per-writer append-only edge files: each writer appends whole blocks of
// 8-byte (target gid, source gid) pairs with one write (no locks, no buffer
// of its own), and scan() streams one writer's pairs back, once for each of
// build_reverse_csr's two passes.
class EdgeSpool {
 public:
  // The explicit engine's edge block in spill mode: 8192 pairs, 64 KiB per
  // write.
  static constexpr std::size_t kBlockPairs = 8192;

  EdgeSpool(const std::string& dir, int num_writers);
  ~EdgeSpool();

  EdgeSpool(const EdgeSpool&) = delete;
  EdgeSpool& operator=(const EdgeSpool&) = delete;

  // False once a file failed to open or an append failed; error() says
  // why. Call while no writer appends.
  bool ok() const;
  std::string error() const;

  int num_writers() const { return static_cast<int>(writers_.size()); }

  // Writer-exclusive (one thread per writer index): appends the block's
  // pairs to the writer's file with one write. A failed write marks the
  // writer failed, and later appends to it are dropped.
  void append_block(int writer, const GidEdges& block);

  // Call while no writer appends.
  std::uint64_t num_edges() const;
  std::uint64_t bytes() const {
    return num_edges() * sizeof(GidEdges::value_type);
  }

  // Reads the writer's pairs back in file order, calling chunk() on each
  // run of up to 64 KiB. False on a read error. Call while no writer
  // appends; scans of distinct writers may run concurrently.
  bool scan(int writer,
            const std::function<void(std::span<const GidEdges::value_type>)>&
                chunk) const;

 private:
  // One cache line each: owners append to their own writer concurrently.
  struct alignas(64) Writer {
    int fd = -1;
    std::uint64_t edges = 0;  // pairs in the file
    int write_errno = 0;  // nonzero once an append failed
  };

  std::vector<Writer> writers_;
  std::string open_error_;
};

// Bottom-SCC classification over the spooled edges, in spill mode: writer
// k's file holds the edges into the dense ids [bounds[k], bounds[k + 1]),
// and build_reverse_csr lets each owner sort its own file (scanned twice)
// into its rows of the reverse CSR on `pool`, mapping every gid endpoint
// through dense(gid). The shared classify_bottom_sccs_reverse then
// classifies it from the verdict bytes and the dense id of the initial
// configuration, `root`. The CSR must fit classify_cap at 4 bytes per edge
// plus 12 per node; a larger graph, or an edge-scan I/O failure, gives
// UnknownReason::MemoryCap. num_configs is verdicts.size() either way.
template <typename Pool, typename Dense>
ExploreOutcome classify_bottom_sccs_external(
    Pool& pool, const EdgeSpool& edges, std::span<const std::size_t> bounds,
    std::span<const std::uint8_t> verdicts, const Dense& dense,
    std::size_t root, std::size_t classify_cap) {
  const std::size_t n = verdicts.size();
  const std::uint64_t m = edges.num_edges();
  ExploreOutcome out;
  out.reason = UnknownReason::MemoryCap;
  out.num_configs = n;
  const std::uint64_t csr_bytes =
      m * sizeof(std::int32_t) + (n + 1) * sizeof(std::uint32_t) +
      n * 2 * sizeof(std::int32_t);
  if (csr_bytes > classify_cap ||
      m > std::numeric_limits<std::uint32_t>::max()) {
    return out;
  }
  const std::size_t owners = bounds.size() - 1;
  DAWN_CHECK_MSG(static_cast<int>(owners) == edges.num_writers() &&
                     bounds[owners] == n,
                 "a spool file per owner range");
  std::vector<std::uint8_t> scan_failed(owners, 0);
  CsrGraph graph;
  const bool built = build_reverse_csr(
      pool, bounds,
      [&](std::size_t k, bool, const auto& fn) {
        const bool read = edges.scan(
            static_cast<int>(k),
            [&](std::span<const GidEdges::value_type> chunk) {
              for (const auto& [dst, src] : chunk) fn(dst, src);
            });
        scan_failed[k] = read ? 0 : 1;
        return read;
      },
      dense, graph);
  if (std::find(scan_failed.begin(), scan_failed.end(), 1) !=
      scan_failed.end()) {
    return out;
  }
  DAWN_CHECK_MSG(built, "edge endpoint outside the dense range");
  const BottomClassification cls =
      classify_bottom_sccs_reverse(graph, verdicts, root);
  out.decision = cls.decision;
  out.reason = UnknownReason::None;
  out.num_bottom_sccs = cls.num_bottom_sccs;
  return out;
}

}  // namespace dawn
