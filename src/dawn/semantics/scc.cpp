#include "dawn/semantics/scc.hpp"

#include <algorithm>
#include <limits>

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
//
// The caller sets `component` to n entries, each 0 or kSettled: a settled
// node is never visited, and an edge to it is ignored (kSettled is above
// every index and component value, so it never lowers one), so Tarjan runs
// on the graph restricted to the other nodes. Settled entries stay
// kSettled.
constexpr std::int32_t kSettled = std::numeric_limits<std::int32_t>::max();

std::size_t tarjan(const CsrGraph& g, std::vector<std::int32_t>& component) {
  const auto n = static_cast<std::int32_t>(g.num_nodes());
  std::vector<std::int32_t>& rindex = component;
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
  for (std::int32_t& x : rindex) {
    if (x != kSettled) x = n - 1 - x;
  }
  return static_cast<std::size_t>(n - 1 - c);
}

// The bottom-SCC rule over bottom components, added one at a time with
// whether each is uniformly accepting or rejecting.
class BottomTally {
 public:
  void add(bool all_accept, bool all_reject) {
    ++num_bottom_sccs_;
    if (all_accept) {
      any_accept_ = true;
    } else if (all_reject) {
      any_reject_ = true;
    } else {
      any_mixed_ = true;
    }
  }

  BottomClassification result() const {
    BottomClassification out;
    out.num_bottom_sccs = num_bottom_sccs_;
    if (any_mixed_ || (any_accept_ && any_reject_)) {
      out.decision = Decision::Inconsistent;
    } else if (any_accept_) {
      out.decision = Decision::Accept;
    } else {
      out.decision = Decision::Reject;
    }
    return out;
  }

 private:
  std::size_t num_bottom_sccs_ = 0;
  bool any_accept_ = false;
  bool any_reject_ = false;
  bool any_mixed_ = false;
};

Verdict verdict_in(std::uint8_t byte) {
  return static_cast<Verdict>(byte & ~kSinkBit);
}

}  // namespace

SccInfo compute_sccs(const CsrGraph& g) {
  SccInfo info;
  info.component.assign(g.num_nodes(), 0);
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
  BottomTally tally;
  for (std::size_t s = 0; s < info.count; ++s) {
    if (info.is_bottom[s]) tally.add(all_acc[s] != 0, all_rej[s] != 0);
  }
  return tally.result();
}

BottomClassification classify_bottom_sccs_reverse(
    const CsrGraph& reverse, std::span<const std::uint8_t> verdicts,
    std::size_t root) {
  const std::size_t n = reverse.num_nodes();
  DAWN_CHECK_MSG(verdicts.size() == n && (n == 0 || root < n),
                 "a verdict per node and a root among them");
  BottomTally tally;
  if (n == 0) return tally.result();
  // kSettled once a step has classified the node; Tarjan's rindex on the
  // rest.
  std::vector<std::int32_t> mark(n, 0);
  // Reserved whole: growing by doubling would copy, and briefly hold, the
  // queue twice. Pages the BFS never reaches are never touched.
  std::vector<std::int32_t> queue;
  queue.reserve(n);
  // 1. Every sink is a bottom SCC of one node.
  for (std::size_t v = 0; v < n; ++v) {
    if ((verdicts[v] & kSinkBit) == 0) continue;
    mark[v] = kSettled;
    queue.push_back(static_cast<std::int32_t>(v));
    const Verdict verdict = verdict_in(verdicts[v]);
    tally.add(verdict == Verdict::Accept, verdict == Verdict::Reject);
  }
  // 2 and 3. The backward closure of the sinks, or of the root.
  const bool sinks = !queue.empty();
  if (!sinks) {
    mark[root] = kSettled;
    queue.push_back(static_cast<std::int32_t>(root));
  }
  // One thread: a level-synchronous BFS on the engine's pool measured
  // barely faster at 4 workers and slower at one. Loading a queued node's
  // row is the cache miss, so the loop prefetches rows a few nodes ahead.
  for (std::size_t head = 0; head < queue.size(); ++head) {
    if (head + 16 < queue.size()) {
      __builtin_prefetch(
          &reverse.offsets[static_cast<std::size_t>(queue[head + 16])]);
    }
    if (head + 8 < queue.size()) {
      __builtin_prefetch(reverse.targets.data() +
                         reverse.offsets[static_cast<std::size_t>(
                             queue[head + 8])]);
    }
    const auto v = static_cast<std::size_t>(queue[head]);
    for (std::uint32_t e = reverse.offsets[v]; e < reverse.offsets[v + 1];
         ++e) {
      const auto u = static_cast<std::size_t>(reverse.targets[e]);
      if (mark[u] == 0) {
        mark[u] = kSettled;
        queue.push_back(static_cast<std::int32_t>(u));
      }
    }
  }
  const std::size_t settled = queue.size();
  if (settled == n) {
    if (!sinks) {
      // One SCC, and so the only bottom one.
      bool all_accept = true, all_reject = true;
      for (const std::uint8_t byte : verdicts) {
        all_accept = all_accept && verdict_in(byte) == Verdict::Accept;
        all_reject = all_reject && verdict_in(byte) == Verdict::Reject;
      }
      tally.add(all_accept, all_reject);
    }
    return tally.result();
  }
  std::vector<std::int32_t>().swap(queue);
  // 4. Tarjan on the rest. The SCCs of a graph and of its reverse are the
  // same; a predecessor in another unsettled component has an edge out of
  // its own, which is then not bottom.
  const std::size_t count = tarjan(reverse, mark);
  std::vector<std::uint8_t> escapes(count, 0), all_acc(count, 1),
      all_rej(count, 1);
  for (std::size_t v = 0; v < n; ++v) {
    const std::int32_t c = mark[v];
    if (c == kSettled) continue;
    for (std::uint32_t e = reverse.offsets[v]; e < reverse.offsets[v + 1];
         ++e) {
      const std::int32_t cu =
          mark[static_cast<std::size_t>(reverse.targets[e])];
      if (cu != c && cu != kSettled) escapes[static_cast<std::size_t>(cu)] = 1;
    }
    const Verdict verdict = verdict_in(verdicts[v]);
    if (verdict != Verdict::Accept) all_acc[static_cast<std::size_t>(c)] = 0;
    if (verdict != Verdict::Reject) all_rej[static_cast<std::size_t>(c)] = 0;
  }
  for (std::size_t c = 0; c < count; ++c) {
    if (escapes[c] == 0) tally.add(all_acc[c] != 0, all_rej[c] != 0);
  }
  return tally.result();
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
