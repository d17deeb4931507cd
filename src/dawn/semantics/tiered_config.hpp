// Out-of-core edges: the edge spool of the explicit engine's spill mode and
// the bottom-SCC classification that reads it back. When its
// PackedConfigStore spills (packed_config.hpp, docs/ENGINE.md "The tiered
// store"), the engine (parallel_explore.hpp) hands every full edge block of
// an owner to that owner's EdgeSpool file instead of keeping it in RAM, and
// writes the tails after the last level.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "dawn/semantics/decision.hpp"
#include "dawn/semantics/scc.hpp"
#include "dawn/util/check.hpp"

namespace dawn {

// Per-writer append-only edge files: each writer appends whole (src gid,
// dst gid) blocks with one write (no locks, no buffer of its own), and
// ScanCursor streams every edge back, once for each of build_csr's two
// counting-sort passes.
class EdgeSpool {
 public:
  // The explicit engine's edge block in spill mode: 8192 pairs, 128 KiB per
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

  // Writer-exclusive (one thread per writer index): appends the block's
  // pairs to the writer's file with one write. A failed write marks the
  // writer failed, and later appends to it are dropped.
  void append_block(int writer, const GidEdges& block);

  // Call while no writer appends.
  std::uint64_t num_edges() const;
  std::uint64_t bytes() const { return num_edges() * 2 * sizeof(std::int64_t); }

  class ScanCursor {
   public:
    explicit ScanCursor(const EdgeSpool& spool) : spool_(&spool) {}

    // Next edge in file order (writer files concatenated). False at the
    // end or on error (check failed()).
    bool next(std::int64_t* src, std::int64_t* dst);
    bool failed() const { return failed_; }

   private:
    const EdgeSpool* spool_;
    std::size_t file_ = 0;
    std::uint64_t file_pos_ = 0;  // bytes consumed of the current file
    std::vector<std::int64_t> buf_;
    std::size_t buf_pos_ = 0;
    bool failed_ = false;
  };

 private:
  friend class ScanCursor;

  // One cache line each: owners append to their own writer concurrently.
  struct alignas(64) Writer {
    int fd = -1;
    std::uint64_t file_bytes = 0;
    std::uint64_t edges = 0;
    int write_errno = 0;  // nonzero once an append failed
  };

  std::vector<Writer> writers_;
  std::string open_error_;
};

// Bottom-SCC classification over the spooled edges: build_csr scans the
// spool twice (out-degrees, then targets), mapping every gid endpoint
// through dense(gid), and the shared classify_bottom_sccs classifies the
// CSR; verdicts[i] is node i's verdict. The CSR must fit classify_cap at 4
// bytes per edge plus 12 per node; a larger graph, or an edge-scan I/O
// failure, gives UnknownReason::MemoryCap. num_configs is verdicts.size()
// either way.
template <typename Dense>
ExploreOutcome classify_bottom_sccs_external(
    const EdgeSpool& edges, const std::vector<Verdict>& verdicts,
    const Dense& dense, std::size_t classify_cap) {
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
  bool scan_failed = false;
  CsrGraph graph;
  const bool built = build_csr(
      n,
      [&](bool, const auto& fn) {
        EdgeSpool::ScanCursor cur(edges);
        std::int64_t src = 0;
        std::int64_t dst = 0;
        while (cur.next(&src, &dst)) fn(src, dst);
        scan_failed = cur.failed();
        return !scan_failed;
      },
      dense, graph);
  if (scan_failed) return out;
  DAWN_CHECK_MSG(built, "edge endpoint outside the dense range");
  const BottomClassification cls = classify_bottom_sccs(
      graph, [&](std::size_t i) { return verdicts[i]; });
  out.decision = cls.decision;
  out.reason = UnknownReason::None;
  out.num_bottom_sccs = cls.num_bottom_sccs;
  return out;
}

}  // namespace dawn
