// SCC condensation and bottom-SCC classification, shared by the exact
// pseudo-stochastic deciders (explicit, counted-clique, counted-star).
//
// The decision rule (see explicit_space.hpp for the derivation from
// Lemma B.12's fairness argument): a pseudo-stochastic run ends up visiting
// exactly one reachable bottom SCC infinitely often, so the automaton
// accepts iff every reachable bottom SCC is uniformly accepting, rejects iff
// uniformly rejecting, and is inconsistent otherwise.
//
// Two classifiers share one iterative Tarjan (Pearce's
// one-word-per-node form, scc.cpp):
//
//  * classify_bottom_sccs runs it over a forward CSR (CsrGraph below). The
//    sequential explorer (sequential_explore.hpp) appends each
//    configuration's successors to a CSR row as it expands it. The
//    vector<vector<int32>> overload is a thin adapter that copies an
//    adjacency into a CSR; no decider uses it, but the repository
//    benchmark's replay and the SCC tests do.
//  * classify_bottom_sccs_reverse is the explicit engine's
//    (parallel_explore.hpp). Its input is the reverse CSR, which
//    build_reverse_csr builds from (target gid, source gid) pairs: each
//    owner counting-sorts the edges it recorded into its own rows, on the
//    engine's worker pool, in memory or from its spill-mode spool file
//    (tiered_config.hpp). A sink closure settles most configurations: a
//    configuration with no successor is a bottom SCC by itself, and one
//    backward BFS marks everything that reaches a sink, or, without sinks,
//    the initial configuration's SCC. Tarjan runs only on what is left.
//
// A parallel trim + forward–backward pass used to run here; it lost to
// Tarjan at every size we explore (docs/DECIDERS.md has the numbers), and
// a parallel SCC should come back only with a measured win.
//
// The component numbering is Tarjan's emission order, but every decider
// consumes only canonical quantities — the component PARTITION, `count`,
// `is_bottom` per component, and the classification — which are
// properties of the graph alone.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "dawn/automata/machine.hpp"
#include "dawn/semantics/decision.hpp"
#include "dawn/util/check.hpp"

namespace dawn {

// An allocator whose value-less construct() default-initialises, so
// resize() leaves trivial elements unwritten: build_reverse_csr's owners
// overwrite every target, and their scatter is the first touch.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

// Compressed sparse rows: node v's successors are
// targets[offsets[v] .. offsets[v + 1]). Offsets are 32-bit; the builders
// check that the edge count fits. A reverse CSR holds the transposed
// graph: its rows list predecessors.
struct CsrGraph {
  std::vector<std::uint32_t> offsets;  // num_nodes() + 1 entries, or none
  std::vector<std::int32_t, DefaultInitAllocator<std::int32_t>> targets;

  std::size_t num_nodes() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
};

// One owner's recorded edges, as (target gid, source gid) pairs with each
// gid narrowed to 32 bits: 8 bytes an edge.
using GidEdges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

// A configuration's verdict byte in the explicit engine: its Verdict in
// the low bits, and kSinkBit if it emitted no successor.
inline constexpr std::uint8_t kSinkBit = 0x80;

inline std::uint8_t verdict_byte(Verdict verdict, bool sink) {
  return static_cast<std::uint8_t>(static_cast<std::uint8_t>(verdict) |
                                   (sink ? kSinkBit : 0));
}

// Builds the reverse CSR of a graph whose edges are split over K owners:
// owner k holds exactly the edges whose target has a dense id in
// [bounds[k], bounds[k + 1]) (bounds has K + 1 entries; the last is the
// node count). edges(k, last, fn) calls fn(target gid, source gid) for
// each of owner k's edges, in the same order on both passes, and returns
// false if reading failed; on the second pass (`last` true) it may release
// what it has read. dense(gid) maps a gid to its node id.
//
// Each owner counts its in-degrees into its own rows, turns them into row
// starts after the edges of the owners before it, and scatters source ids
// into its own slice of `targets`, so pool.run() runs the owners on its
// workers without atomics. Within a row, predecessors keep the owner's
// order. Returns false (with `out` unspecified) if a source failed or an
// endpoint maps outside its range.
template <typename Pool, typename OwnerEdges, typename Dense>
bool build_reverse_csr(Pool& pool, std::span<const std::size_t> bounds,
                       OwnerEdges&& edges, const Dense& dense,
                       CsrGraph& out) {
  const std::size_t owners = bounds.size() - 1;
  const std::size_t n = bounds[owners];
  const auto on_owners = [&](const auto& task) {
    const auto workers = static_cast<std::size_t>(pool.num_workers());
    pool.run([&](int w) {
      for (auto k = static_cast<std::size_t>(w); k < owners; k += workers) {
        task(k, bounds[k], bounds[k + 1]);
      }
    });
  };
  // Owner k's rows are offsets[bounds[k] + 1 .. bounds[k + 1]]: the first
  // pass counts its targets' in-degrees there, the second turns them into
  // row starts, which the scatter advances to row ends. offsets[v + 1] then
  // ends row v and starts row v + 1, so no owner writes another's entries.
  out.offsets.assign(n + 1, 0);
  std::uint32_t* const row = out.offsets.data() + 1;
  std::vector<std::uint64_t> first_edge(owners + 1, 0);
  std::vector<std::uint8_t> ok(owners, 0);
  const auto all_ok = [&] {
    return std::find(ok.begin(), ok.end(), 0) == ok.end();
  };
  on_owners([&](std::size_t k, std::size_t begin, std::size_t end) {
    bool in_range = begin <= end && end <= n;
    ok[k] = edges(k, false,
                  [&](std::uint32_t dst, std::uint32_t) {
                    const auto v = static_cast<std::size_t>(dense(dst));
                    in_range = in_range && v >= begin && v < end;
                    if (in_range) ++row[v];
                    ++first_edge[k + 1];
                  }) &&
            in_range;
  });
  if (!all_ok()) return false;
  for (std::size_t k = 0; k < owners; ++k) {
    first_edge[k + 1] += first_edge[k];
  }
  DAWN_CHECK_MSG(
      first_edge[owners] <= std::numeric_limits<std::uint32_t>::max(),
      "CSR offsets are 32-bit");
  // Default-initialised: the scatter below writes every entry.
  out.targets.resize(first_edge[owners]);
  on_owners([&](std::size_t k, std::size_t begin, std::size_t end) {
    auto next = static_cast<std::uint32_t>(first_edge[k]);
    for (std::size_t v = begin; v < end; ++v) {
      const std::uint32_t degree = row[v];
      row[v] = next;
      next += degree;
    }
    const auto slice_end = static_cast<std::uint32_t>(first_edge[k + 1]);
    bool in_range = true;
    ok[k] = edges(k, true,
                  [&](std::uint32_t dst, std::uint32_t src) {
                    const auto v = static_cast<std::size_t>(dense(dst));
                    const auto u = static_cast<std::size_t>(dense(src));
                    in_range = in_range && v >= begin && v < end && u < n &&
                               row[v] < slice_end;
                    if (in_range) {
                      out.targets[row[v]++] = static_cast<std::int32_t>(u);
                    }
                  }) &&
            in_range;
  });
  return all_ok();
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

// Classifies the bottom SCCs of a graph given by its reverse CSR, in which
// `root` reaches every node (the explicit engine's initial
// configuration). verdicts[v] is node v's verdict byte (verdict_byte):
//  1. a sink (kSinkBit) is a bottom SCC of one node;
//  2. one backward BFS from every sink marks the nodes that reach one, and
//     none of them is bottom;
//  3. without sinks, the backward BFS runs from `root`: if it reaches all
//     n nodes the graph is one SCC, the only bottom one; otherwise nothing
//     it reached is bottom;
//  4. what is left is closed under successors, so Tarjan, run on the
//     reverse CSR restricted to it, finds the remaining bottom SCCs: a
//     component is bottom iff no node outside it has a member as a
//     predecessor.
BottomClassification classify_bottom_sccs_reverse(
    const CsrGraph& reverse, std::span<const std::uint8_t> verdicts,
    std::size_t root);

// Adapter for callers that build a vector<vector<int32>> adjacency: copies
// it into a CSR and classifies that. `max_threads` is accepted for source
// compatibility and ignored — the SCC pass is single-threaded.
BottomClassification classify_bottom_sccs(
    const std::vector<std::vector<std::int32_t>>& adj,
    const std::function<Verdict(std::size_t)>& verdict_of,
    int max_threads = 1);

}  // namespace dawn
