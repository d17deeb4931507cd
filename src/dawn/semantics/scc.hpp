// SCC condensation and bottom-SCC classification, shared by the exact
// pseudo-stochastic deciders (explicit, counted-clique, counted-star).
//
// The decision rule (see explicit_space.hpp for the derivation from
// Lemma B.12's fairness argument): a pseudo-stochastic run ends up visiting
// exactly one reachable bottom SCC infinitely often, so the automaton
// accepts iff every reachable bottom SCC is uniformly accepting, rejects iff
// uniformly rejecting, and is inconsistent otherwise.
//
// One in-memory SCC engine: an iterative Tarjan over a flat CSR graph
// (CsrGraph below), for every graph size and worker count. The explicit
// engines build the CSR straight from their per-worker (src, dst) gid edge
// buffers by counting sort (build_csr); the tiered store's semi-external
// classifier (tiered_config.hpp) hands its in-memory remainder to the same
// Tarjan. The hand-rolled sequential deciders still build a
// vector<vector<int32>> adjacency; its overload below is a thin adapter
// that copies it into a CSR.
//
// A parallel trim + forward–backward (FB) pass used to run here for
// graphs of 2^15+ nodes at more than one worker, over a vector<vector>
// adjacency and its reverse. It was a net loss at the sizes we explore: on
// 40 of the repository benchmark's explore-table decides (3.52M
// configurations, 4-core AVX2 Xeon) the SCC pass took 3.2 s at 4 workers
// and 1.4 s at one (the old Tarjan), against 0.5 s for this Tarjan on the
// CSR at either count. A parallel SCC should come back only with a
// measured win on a benchmark workload.
//
// The component numbering is Tarjan's emission order, but every decider
// consumes only canonical quantities — the component PARTITION, `count`,
// `is_bottom` per component, and the classification — which are
// properties of the graph alone.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "dawn/automata/machine.hpp"
#include "dawn/semantics/decision.hpp"
#include "dawn/util/check.hpp"

namespace dawn {

// Compressed sparse rows: node v's successors are
// targets[offsets[v] .. offsets[v + 1]). Offsets are 32-bit; build_csr
// checks that the edge count fits.
struct CsrGraph {
  std::vector<std::uint32_t> offsets;  // num_nodes() + 1 entries, or none
  std::vector<std::int32_t> targets;

  std::size_t num_nodes() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
};

// One worker's recorded edges, as (source gid, target gid) pairs.
using GidEdges = std::vector<std::pair<std::int64_t, std::int64_t>>;

// Builds the CSR over `num_nodes` nodes from edge buffers in gid space by
// counting sort; dense(gid) maps a gid to its node id. Within a node,
// targets keep buffer order. Each buffer is released once copied. Returns
// false (with `out` unspecified) if dense() maps an endpoint outside
// [0, num_nodes).
template <typename Dense>
bool build_csr(std::size_t num_nodes, std::span<GidEdges> buffers,
               const Dense& dense, CsrGraph& out) {
  std::size_t num_edges = 0;
  for (const GidEdges& buf : buffers) num_edges += buf.size();
  DAWN_CHECK_MSG(num_edges <= std::numeric_limits<std::uint32_t>::max(),
                 "CSR offsets are 32-bit");
  // Out-degrees land one slot to the right, so the prefix sum leaves each
  // node's first edge at offsets[v].
  out.offsets.assign(num_nodes + 1, 0);
  for (const GidEdges& buf : buffers) {
    for (const auto& edge : buf) {
      const auto src = static_cast<std::size_t>(dense(edge.first));
      if (src >= num_nodes) return false;
      ++out.offsets[src + 1];
    }
  }
  for (std::size_t v = 0; v < num_nodes; ++v) {
    out.offsets[v + 1] += out.offsets[v];
  }
  std::vector<std::uint32_t> cursor(out.offsets.begin(),
                                    out.offsets.end() - 1);
  out.targets.resize(num_edges);
  for (GidEdges& buf : buffers) {
    for (const auto& edge : buf) {
      const auto dst = static_cast<std::size_t>(dense(edge.second));
      if (dst >= num_nodes) return false;
      const auto src = static_cast<std::size_t>(dense(edge.first));
      out.targets[cursor[src]++] = static_cast<std::int32_t>(dst);
    }
    GidEdges().swap(buf);
  }
  return true;
}

struct SccInfo {
  std::vector<std::int32_t> component;  // SCC id per node
  std::size_t count = 0;
  std::vector<bool> is_bottom;          // per SCC id
};

// Iterative Tarjan: an explicit DFS stack, so path-shaped graphs of any
// length cannot overflow the call stack.
SccInfo compute_sccs(const CsrGraph& graph);

struct BottomClassification {
  Decision decision = Decision::Unknown;
  std::size_t num_bottom_sccs = 0;
};

// `verdict_of(i)` must return the uniform verdict of configuration i
// (Accept / Reject, or Neutral for a mixed configuration). It is called
// only for configurations in bottom SCCs.
BottomClassification classify_bottom_sccs(
    const CsrGraph& graph,
    const std::function<Verdict(std::size_t)>& verdict_of);

// Adapter for callers that build a vector<vector<int32>> adjacency: copies
// it into a CSR and classifies that. `max_threads` is accepted for source
// compatibility and ignored — the SCC pass is single-threaded.
BottomClassification classify_bottom_sccs(
    const std::vector<std::vector<std::int32_t>>& adj,
    const std::function<Verdict(std::size_t)>& verdict_of,
    int max_threads = 1);

}  // namespace dawn
