// SCC condensation and bottom-SCC classification, shared by the exact
// pseudo-stochastic deciders (explicit, counted-clique, counted-star).
//
// The decision rule (see explicit_space.hpp for the derivation from
// Lemma B.12's fairness argument): a pseudo-stochastic run ends up visiting
// exactly one reachable bottom SCC infinitely often, so the automaton
// accepts iff every reachable bottom SCC is uniformly accepting, rejects iff
// uniformly rejecting, and is inconsistent otherwise.
//
// One SCC engine: an iterative Tarjan over a flat CSR graph (CsrGraph
// below), for every graph size and worker count. The explicit engines
// build the CSR straight from their (src, dst) gid edges by one counting
// sort (build_csr), whatever holds the edges: the per-worker buffers or
// the spill-mode edge spool (classify_bottom_sccs_external in
// tiered_config.hpp). The
// sequential explorer (sequential_explore.hpp) appends each configuration's
// successors to a CSR row as it expands it. The vector<vector<int32>>
// overload below is a thin adapter that copies an adjacency into a CSR; no
// decider uses it, but the repository benchmark's replay and the SCC tests
// do.
//
// A parallel trim + forward–backward pass used to run here; it lost to this
// Tarjan at every size we explore (docs/DECIDERS.md has the numbers), and
// a parallel SCC should come back only with a measured win.
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

// Builds the CSR over `num_nodes` nodes from edges in gid space by counting
// sort; dense(gid) maps a gid to its node id. The edges come from a source:
// edges(last, fn) calls fn(src gid, dst gid) for every edge, in the same
// order on both passes, and returns false if reading failed. On the second
// pass (`last` true) an in-memory source may release what it has read.
// Within a node, targets keep source order. Returns false (with `out`
// unspecified) if the source failed or dense() maps an endpoint outside
// [0, num_nodes).
template <typename EdgeSource, typename Dense>
bool build_csr(std::size_t num_nodes, EdgeSource&& edges, const Dense& dense,
               CsrGraph& out) {
  bool in_range = true;
  std::uint64_t num_edges = 0;
  // Out-degrees land one slot to the right, so the prefix sum leaves each
  // node's first edge at offsets[v].
  out.offsets.assign(num_nodes + 1, 0);
  if (!edges(false,
             [&](std::int64_t src, std::int64_t) {
               const auto u = static_cast<std::size_t>(dense(src));
               in_range = in_range && u < num_nodes;
               if (in_range) ++out.offsets[u + 1];
               ++num_edges;
             }) ||
      !in_range) {
    return false;
  }
  DAWN_CHECK_MSG(num_edges <= std::numeric_limits<std::uint32_t>::max(),
                 "CSR offsets are 32-bit");
  for (std::size_t v = 0; v < num_nodes; ++v) {
    out.offsets[v + 1] += out.offsets[v];
  }
  std::vector<std::uint32_t> cursor(out.offsets.begin(),
                                    out.offsets.end() - 1);
  out.targets.resize(num_edges);
  return edges(true,
               [&](std::int64_t src, std::int64_t dst) {
                 const auto v = static_cast<std::size_t>(dense(dst));
                 in_range = in_range && v < num_nodes;
                 if (!in_range) return;
                 const auto u = static_cast<std::size_t>(dense(src));
                 out.targets[cursor[u]++] = static_cast<std::int32_t>(v);
               }) &&
         in_range;
}

// The in-memory source: per-worker edge buffers, each released once its
// edges are scattered.
template <typename Dense>
bool build_csr(std::size_t num_nodes, std::span<GidEdges> buffers,
               const Dense& dense, CsrGraph& out) {
  return build_csr(
      num_nodes,
      [buffers](bool last, const auto& fn) {
        for (GidEdges& buf : buffers) {
          for (const auto& [src, dst] : buf) fn(src, dst);
          if (last) GidEdges().swap(buf);
        }
        return true;
      },
      dense, out);
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
