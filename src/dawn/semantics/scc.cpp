#include "dawn/semantics/scc.hpp"

#include <algorithm>

namespace dawn {

namespace {

// Iterative Tarjan in Pearce's one-word-per-node form ("A space-efficient
// algorithm for finding strongly connected components", IPL 2016): rindex
// is 0 for an unvisited node, the DFS index (lowered to the smallest index
// it reaches) while the node is live, and, once its component is emitted,
// a component value counting down from n - 1 that is never below a live
// index. So a finished node never lowers a live one, and one array read
// per edge does the work of Tarjan's index, lowlink and on-stack arrays.
// Components are renumbered to [0, count) in emission order. Returns
// count; `component` doubles as the rindex array.
std::size_t tarjan(const CsrGraph& g, std::vector<std::int32_t>& component) {
  const auto n = static_cast<std::int32_t>(g.num_nodes());
  std::vector<std::int32_t>& rindex = component;
  rindex.assign(static_cast<std::size_t>(n), 0);
  std::vector<std::int32_t> stack;  // live non-root nodes
  std::int32_t index = 1;
  std::int32_t c = n - 1;

  // The explicit call stack: a node, its next edge, and whether it is
  // still a candidate component root.
  struct Frame {
    std::int32_t v;
    std::uint32_t edge;
    bool root;
  };
  std::vector<Frame> call_stack;
  const auto visit = [&](std::int32_t v) {
    rindex[static_cast<std::size_t>(v)] = index++;
    call_stack.push_back({v, g.offsets[static_cast<std::size_t>(v)], true});
  };
  // v's DFS reached w (an edge or a finished child): inherit a lower index.
  const auto reach = [&](Frame& f, std::int32_t w) {
    auto& rv = rindex[static_cast<std::size_t>(f.v)];
    const std::int32_t rw = rindex[static_cast<std::size_t>(w)];
    if (rw < rv) {
      rv = rw;
      f.root = false;
    }
  };

  for (std::int32_t r = 0; r < n; ++r) {
    if (rindex[static_cast<std::size_t>(r)] != 0) continue;
    visit(r);
    while (!call_stack.empty()) {
      Frame& f = call_stack.back();
      const std::uint32_t end = g.offsets[static_cast<std::size_t>(f.v) + 1];
      bool descended = false;
      while (f.edge < end) {
        const std::int32_t w = g.targets[f.edge];
        if (rindex[static_cast<std::size_t>(w)] == 0) {
          visit(w);  // invalidates f; the edge is finished on return
          descended = true;
          break;
        }
        ++f.edge;
        reach(f, w);
      }
      if (descended) continue;
      const std::int32_t v = f.v;
      auto& rv = rindex[static_cast<std::size_t>(v)];
      if (f.root) {
        --index;
        while (!stack.empty() &&
               rv <= rindex[static_cast<std::size_t>(stack.back())]) {
          rindex[static_cast<std::size_t>(stack.back())] = c;
          stack.pop_back();
          --index;
        }
        rv = c--;
      } else {
        stack.push_back(v);
      }
      call_stack.pop_back();
      if (!call_stack.empty()) {
        Frame& parent = call_stack.back();
        ++parent.edge;
        reach(parent, v);
      }
    }
  }
  for (std::int32_t& x : rindex) x = n - 1 - x;
  return static_cast<std::size_t>(n - 1 - c);
}

}  // namespace

SccInfo compute_sccs(const CsrGraph& g) {
  SccInfo info;
  info.count = tarjan(g, info.component);
  // A component is bottom iff no edge leaves it.
  info.is_bottom.assign(info.count, true);
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const std::int32_t c = info.component[v];
    for (std::uint32_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      if (info.component[static_cast<std::size_t>(g.targets[e])] != c) {
        info.is_bottom[static_cast<std::size_t>(c)] = false;
        break;
      }
    }
  }
  return info;
}

BottomClassification classify_bottom_sccs(
    const CsrGraph& graph,
    const std::function<Verdict(std::size_t)>& verdict_of) {
  const SccInfo info = compute_sccs(graph);
  std::vector<std::uint8_t> all_acc(info.count, 1), all_rej(info.count, 1);
  for (std::size_t v = 0; v < graph.num_nodes(); ++v) {
    const auto s = static_cast<std::size_t>(info.component[v]);
    if (!info.is_bottom[s]) continue;
    const Verdict verdict = verdict_of(v);
    if (verdict != Verdict::Accept) all_acc[s] = 0;
    if (verdict != Verdict::Reject) all_rej[s] = 0;
  }
  BottomClassification out;
  bool any_accept = false, any_reject = false, any_mixed = false;
  for (std::size_t s = 0; s < info.count; ++s) {
    if (!info.is_bottom[s]) continue;
    ++out.num_bottom_sccs;
    if (all_acc[s]) {
      any_accept = true;
    } else if (all_rej[s]) {
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
  return out;
}

BottomClassification classify_bottom_sccs(
    const std::vector<std::vector<std::int32_t>>& adj,
    const std::function<Verdict(std::size_t)>& verdict_of,
    int /*max_threads*/) {
  CsrGraph graph;
  graph.offsets.reserve(adj.size() + 1);
  graph.offsets.push_back(0);
  for (const auto& succ : adj) {
    graph.targets.insert(graph.targets.end(), succ.begin(), succ.end());
    DAWN_CHECK_MSG(
        graph.targets.size() <= std::numeric_limits<std::uint32_t>::max(),
        "CSR offsets are 32-bit");
    graph.offsets.push_back(static_cast<std::uint32_t>(graph.targets.size()));
  }
  return classify_bottom_sccs(graph, verdict_of);
}

}  // namespace dawn
