#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "dawn/graph/generators.hpp"
#include "dawn/protocols/exists_label.hpp"
#include "dawn/sched/scheduler.hpp"
#include "dawn/semantics/clique_counted.hpp"
#include "dawn/semantics/explicit_space.hpp"
#include "dawn/semantics/scc.hpp"
#include "dawn/semantics/simulate.hpp"
#include "dawn/semantics/star_counted.hpp"
#include "dawn/semantics/sync_run.hpp"

namespace dawn {
namespace {

// An inconsistent "machine": nodes flip between accept and reject forever.
std::shared_ptr<Machine> blinker() {
  FunctionMachine::Spec spec;
  spec.beta = 1;
  spec.num_labels = 1;
  spec.init = [](Label) { return State{0}; };
  spec.step = [](State s, const Neighbourhood&) {
    return static_cast<State>(1 - s);
  };
  spec.verdict = [](State s) {
    return s == 0 ? Verdict::Accept : Verdict::Reject;
  };
  return std::make_shared<FunctionMachine>(spec);
}

TEST(ExplicitDecider, FloodingOnVariousGraphs) {
  const auto m = make_exists_label(1, 2);
  for (const Graph& g :
       {make_cycle({0, 0, 1, 0}), make_line({0, 0, 0, 1}),
        make_star(0, {0, 1, 0}), make_clique({1, 0, 0})}) {
    EXPECT_EQ(decide_pseudo_stochastic(*m, g).decision, Decision::Accept);
  }
  for (const Graph& g :
       {make_cycle({0, 0, 0}), make_line({0, 0, 0, 0}),
        make_star(0, {0, 0})}) {
    EXPECT_EQ(decide_pseudo_stochastic(*m, g).decision, Decision::Reject);
  }
}

TEST(ExplicitDecider, ReportsInconsistency) {
  const Graph g = make_cycle({0, 0, 0});
  EXPECT_EQ(decide_pseudo_stochastic(*blinker(), g).decision,
            Decision::Inconsistent);
}

TEST(ExplicitDecider, BudgetYieldsUnknown) {
  const auto m = make_exists_label(1, 2);
  const Graph g = make_cycle({0, 0, 1, 0, 0, 0});
  ExploreBudget opts;
  opts.max_configs = 3;
  EXPECT_EQ(decide_pseudo_stochastic(*m, g, opts).decision, Decision::Unknown);
}

TEST(SyncDecider, AgreesWithExplicitOnFlooding) {
  const auto m = make_exists_label(1, 2);
  for (const Graph& g :
       {make_cycle({0, 1, 0, 0}), make_cycle({0, 0, 0, 0}),
        make_grid(3, 2, {0, 0, 0, 0, 1, 0})}) {
    const auto exact = decide_pseudo_stochastic(*m, g).decision;
    const auto sync = decide_synchronous(*m, g).decision;
    EXPECT_EQ(exact, sync);
  }
}

TEST(SyncDecider, FindsCycleOfBlinker) {
  const auto result = decide_synchronous(*blinker(), make_cycle({0, 0, 0}));
  EXPECT_EQ(result.decision, Decision::Inconsistent);
  EXPECT_EQ(result.cycle_length, 2u);
}

TEST(CliqueCounted, MatchesExplicitOnCliques) {
  const auto m = make_exists_label(1, 2);
  for (LabelCount L : {LabelCount{3, 0}, LabelCount{2, 1}, LabelCount{0, 4},
                       LabelCount{5, 2}}) {
    const Graph g = make_clique(labels_from_count(L));
    const auto explicit_d = decide_pseudo_stochastic(*m, g).decision;
    const auto counted_d = decide_clique_pseudo_stochastic(*m, L).decision;
    EXPECT_EQ(explicit_d, counted_d);
  }
}

TEST(CliqueCounted, ScalesToLargePopulations) {
  const auto m = make_exists_label(1, 2);
  const LabelCount L{500, 1};
  EXPECT_EQ(decide_clique_pseudo_stochastic(*m, L).decision, Decision::Accept);
}

TEST(CliqueCounted, SuccessorRemovesSelfFromView) {
  // One agent in state 1 on a 2-clique: its neighbourhood must not contain
  // itself. The flooding machine's lit agent would otherwise behave wrongly.
  const auto m = make_exists_label(1, 2);
  CountedConfig c{{0, 1}, {1, 1}};
  // Agent in state 0 sees the lit one: becomes lit.
  const CountedConfig next = counted_successor(*m, c, 0);
  EXPECT_EQ(next, (CountedConfig{{1, 2}}));
  // The lit agent sees only the dark one: stays lit.
  const CountedConfig same = counted_successor(*m, c, 1);
  EXPECT_EQ(same, c);
}

TEST(StarCounted, MatchesExplicitOnStars) {
  const auto m = make_exists_label(1, 2);
  struct Case {
    Label centre;
    std::vector<Label> leaves;
  };
  for (const auto& [centre, leaves] :
       {Case{0, {0, 0, 1}}, Case{1, {0, 0}}, Case{0, {0, 0, 0}}}) {
    const Graph g = make_star(centre, leaves);
    const auto explicit_d = decide_pseudo_stochastic(*m, g).decision;
    const auto star_d =
        decide_star_pseudo_stochastic(*m, centre, leaves).decision;
    EXPECT_EQ(explicit_d, star_d);
  }
}

TEST(StarCounted, StableRejectionClassification) {
  const auto m = make_exists_label(1, 2);
  // All-dark star: stably rejecting (nothing can ever light up).
  const StarConfig dark = initial_star_config(*m, 0, {0, 0, 0});
  EXPECT_EQ(is_stably_rejecting(*m, dark), std::make_optional(true));
  // A star with a lit leaf is not stably rejecting.
  const StarConfig lit = initial_star_config(*m, 0, {0, 1});
  EXPECT_EQ(is_stably_rejecting(*m, lit), std::make_optional(false));
  EXPECT_EQ(is_stably_accepting(*m, lit), std::make_optional(false));
  // Fully lit star is stably accepting.
  const StarConfig all = initial_star_config(*m, 1, {1, 1});
  EXPECT_EQ(is_stably_accepting(*m, all), std::make_optional(true));
}

TEST(Simulate, ConvergesUnderAllBatterySchedulers) {
  const auto m = make_exists_label(1, 2);
  const Graph g = make_grid(3, 3, {0, 0, 0, 0, 1, 0, 0, 0, 0});
  for (auto& sched : make_adversary_battery(5)) {
    SimulateOptions opts;
    opts.max_steps = 100'000;
    opts.stable_window = 2'000;
    const auto r = simulate(*m, g, *sched, opts);
    EXPECT_TRUE(r.converged) << sched->name();
    EXPECT_EQ(r.verdict, Verdict::Accept) << sched->name();
  }
}

// --- SCC engine against a brute-force oracle -------------------------------
//
// The oracle shares no code with scc.cpp: strongly connected = mutually
// reachable, with reachability from a BFS per node; a component is bottom
// iff everything its nodes reach reaches back.

using EdgeList = std::vector<std::pair<int, int>>;

struct RandomDigraph {
  int n = 0;
  EdgeList edges;
  std::vector<Verdict> verdicts;
};

// 0-300 nodes in up to four blocks that edges rarely cross (so the graph is
// often disconnected), ~10% isolated nodes, self-loops and duplicate edges.
// Verdicts are uniform per block with some noise, so bottom SCCs come out
// uniform as well as mixed.
RandomDigraph random_digraph(std::mt19937_64& rng) {
  RandomDigraph g;
  g.n = static_cast<int>(rng() % 301);
  if (g.n == 0) return g;
  const int blocks = 1 + static_cast<int>(rng() % 4);
  const auto block_of = [&](int v) { return v * blocks / g.n; };
  const auto pick = [&](int lo, int hi) {  // [lo, hi)
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo));
  };
  std::vector<bool> isolated(static_cast<std::size_t>(g.n));
  for (int v = 0; v < g.n; ++v) isolated[v] = rng() % 10 == 0;
  const auto max_edges = 3 * static_cast<std::uint64_t>(g.n);
  const int m = static_cast<int>(rng() % (max_edges + 1));
  for (int i = 0; i < m; ++i) {
    const int u = pick(0, g.n);
    int v;
    if (rng() % 20 == 0) {
      v = pick(0, g.n);  // crosses blocks
    } else if (rng() % 16 == 0) {
      v = u;  // self-loop
    } else {
      const int b = block_of(u);
      const int lo = (b * g.n + blocks - 1) / blocks;
      const int hi = ((b + 1) * g.n + blocks - 1) / blocks;
      v = pick(lo, hi);
    }
    if (isolated[u] || isolated[v]) continue;
    g.edges.emplace_back(u, v);
    if (rng() % 10 == 0) g.edges.emplace_back(u, v);  // duplicate
  }
  std::vector<Verdict> block_verdict(static_cast<std::size_t>(blocks));
  for (auto& bv : block_verdict) {
    bv = rng() % 2 == 0 ? Verdict::Accept : Verdict::Reject;
  }
  for (int v = 0; v < g.n; ++v) {
    g.verdicts.push_back(
        rng() % 8 == 0 ? static_cast<Verdict>(rng() % 3)
                       : block_verdict[static_cast<std::size_t>(block_of(v))]);
  }
  return g;
}

struct Oracle {
  std::vector<std::vector<char>> reach;  // reach[u][v]: v reachable from u

  bool same_scc(int u, int v) const { return reach[u][v] && reach[v][u]; }
  bool bottom(int v) const {
    for (std::size_t w = 0; w < reach.size(); ++w) {
      if (reach[v][w] && !reach[w][v]) return false;
    }
    return true;
  }
  bool representative(int v) const {  // smallest node of its SCC
    for (int u = 0; u < v; ++u) {
      if (same_scc(u, v)) return false;
    }
    return true;
  }
};

Oracle brute_force(int n, const EdgeList& edges) {
  std::vector<std::vector<int>> out(static_cast<std::size_t>(n));
  for (const auto& [u, v] : edges) out[u].push_back(v);
  Oracle o;
  o.reach.assign(n, std::vector<char>(n, 0));
  for (int s = 0; s < n; ++s) {
    std::vector<int> queue{s};
    o.reach[s][s] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (const int w : out[queue[head]]) {
        if (!o.reach[s][w]) {
          o.reach[s][w] = 1;
          queue.push_back(w);
        }
      }
    }
  }
  return o;
}

BottomClassification oracle_classification(
    const Oracle& o, const std::vector<Verdict>& verdict) {
  BottomClassification out;
  bool any_accept = false, any_reject = false, any_mixed = false;
  const int n = static_cast<int>(verdict.size());
  for (int r = 0; r < n; ++r) {
    if (!o.representative(r) || !o.bottom(r)) continue;
    ++out.num_bottom_sccs;
    std::set<Verdict> seen;
    for (int v = 0; v < n; ++v) {
      if (o.same_scc(r, v)) seen.insert(verdict[v]);
    }
    if (seen == std::set<Verdict>{Verdict::Accept}) {
      any_accept = true;
    } else if (seen == std::set<Verdict>{Verdict::Reject}) {
      any_reject = true;
    } else {
      any_mixed = true;
    }
  }
  if (any_mixed || (any_accept && any_reject)) {
    out.decision = Decision::Inconsistent;
  } else {
    out.decision = any_accept ? Decision::Accept : Decision::Reject;
  }
  return out;
}

// The edges split round-robin over three "worker" buffers in gid space
// (gid = 2 * node + 1), the shape the explicit engines hand to build_csr.
CsrGraph csr_from_gid_buffers(int n, const EdgeList& edges) {
  std::vector<GidEdges> buffers(3);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    buffers[i % 3].emplace_back(2 * std::int64_t{edges[i].first} + 1,
                                2 * std::int64_t{edges[i].second} + 1);
  }
  CsrGraph g;
  EXPECT_TRUE(build_csr(static_cast<std::size_t>(n),
                        std::span<GidEdges>(buffers),
                        [](std::int64_t gid) { return gid >> 1; }, g));
  for (const GidEdges& buf : buffers) EXPECT_EQ(buf.capacity(), 0u);
  return g;
}

TEST(Scc, BuildCsrKeepsBufferOrderWithinANode) {
  const EdgeList edges = {{2, 0}, {0, 1}, {2, 2}, {0, 1}, {2, 1}, {1, 0}};
  const CsrGraph g = csr_from_gid_buffers(4, edges);
  // Buffers hold edges {0,3}, {1,4}, {2,5}; each node's targets follow
  // buffer order, then position within the buffer.
  EXPECT_EQ(g.offsets, (std::vector<std::uint32_t>{0, 2, 3, 6, 6}));
  EXPECT_EQ(g.targets, (std::vector<std::int32_t>{1, 1, 0, 0, 1, 2}));
  EXPECT_EQ(g.num_nodes(), 4u);

  std::vector<GidEdges> bad(1);
  bad[0].emplace_back(0, 4);  // node 4 of 4
  CsrGraph out;
  EXPECT_FALSE(build_csr(4, std::span<GidEdges>(bad),
                         [](std::int64_t gid) { return gid; }, out));
  bad[0] = {{-1, 0}};
  EXPECT_FALSE(build_csr(4, std::span<GidEdges>(bad),
                         [](std::int64_t gid) { return gid; }, out));
}

TEST(Scc, MatchesBruteForceOracleOnRandomDigraphs) {
  std::mt19937_64 rng(20240613);
  std::size_t nontrivial = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const RandomDigraph rg = random_digraph(rng);
    const Oracle o = brute_force(rg.n, rg.edges);
    const CsrGraph g = csr_from_gid_buffers(rg.n, rg.edges);
    const SccInfo info = compute_sccs(g);
    ASSERT_EQ(info.component.size(), static_cast<std::size_t>(rg.n));
    std::size_t oracle_count = 0;
    for (int v = 0; v < rg.n; ++v) oracle_count += o.representative(v);
    ASSERT_EQ(info.count, oracle_count) << "trial " << trial;
    ASSERT_EQ(info.is_bottom.size(), info.count);
    for (int u = 0; u < rg.n; ++u) {
      const auto cu = static_cast<std::size_t>(info.component[u]);
      ASSERT_LT(cu, info.count);
      EXPECT_EQ(info.is_bottom[cu], o.bottom(u)) << "trial " << trial;
      for (int v = 0; v < rg.n; ++v) {
        ASSERT_EQ(info.component[u] == info.component[v], o.same_scc(u, v))
            << "trial " << trial << " nodes " << u << ", " << v;
      }
    }
    if (oracle_count > 1 && oracle_count < static_cast<std::size_t>(rg.n)) {
      ++nontrivial;
    }

    std::vector<std::size_t> asked;
    const BottomClassification cls =
        classify_bottom_sccs(g, [&](std::size_t i) {
          asked.push_back(i);
          return rg.verdicts[i];
        });
    const BottomClassification expected =
        oracle_classification(o, rg.verdicts);
    EXPECT_EQ(cls.decision, expected.decision) << "trial " << trial;
    EXPECT_EQ(cls.num_bottom_sccs, expected.num_bottom_sccs)
        << "trial " << trial;
    for (const std::size_t i : asked) {
      EXPECT_TRUE(o.bottom(static_cast<int>(i))) << "non-bottom node " << i;
    }

    // The vector<vector> adapter agrees with the CSR entry.
    std::vector<std::vector<std::int32_t>> adj(static_cast<std::size_t>(rg.n));
    for (const auto& [u, v] : rg.edges) adj[u].push_back(v);
    const BottomClassification via_adj = classify_bottom_sccs(
        adj, [&](std::size_t i) { return rg.verdicts[i]; });
    EXPECT_EQ(via_adj.decision, cls.decision) << "trial " << trial;
    EXPECT_EQ(via_adj.num_bottom_sccs, cls.num_bottom_sccs)
        << "trial " << trial;
  }
  EXPECT_GT(nontrivial, 100u);  // the generator mixes cycles and DAG parts
}

TEST(Scc, EmptyGraphHasNoBottomSccs) {
  for (const CsrGraph& g : {CsrGraph{}, CsrGraph{{0}, {}}}) {
    const SccInfo info = compute_sccs(g);
    EXPECT_EQ(info.count, 0u);
    const BottomClassification cls =
        classify_bottom_sccs(g, [](std::size_t) { return Verdict::Accept; });
    EXPECT_EQ(cls.num_bottom_sccs, 0u);
    EXPECT_EQ(cls.decision, Decision::Reject);
  }
}

// A million-node path and cycle: a recursive DFS would need a million
// frames; the iterative one must not care.
TEST(Scc, MillionNodePathAndCycleDoNotOverflowTheStack) {
  constexpr std::int32_t n = 1 << 20;
  CsrGraph path;
  path.offsets.resize(n + 1);
  for (std::int32_t v = 0; v <= n; ++v) {
    path.offsets[v] = static_cast<std::uint32_t>(std::min(v, n - 1));
  }
  for (std::int32_t v = 0; v + 1 < n; ++v) path.targets.push_back(v + 1);
  const SccInfo p = compute_sccs(path);
  EXPECT_EQ(p.count, static_cast<std::size_t>(n));
  std::size_t bottoms = 0;
  for (const bool b : p.is_bottom) bottoms += b;
  EXPECT_EQ(bottoms, 1u);
  EXPECT_TRUE(p.is_bottom[static_cast<std::size_t>(p.component[n - 1])]);
  const BottomClassification pc = classify_bottom_sccs(
      path, [&](std::size_t i) {
        return i + 1 == static_cast<std::size_t>(n) ? Verdict::Reject
                                                    : Verdict::Accept;
      });
  EXPECT_EQ(pc.decision, Decision::Reject);
  EXPECT_EQ(pc.num_bottom_sccs, 1u);

  CsrGraph cycle = path;
  cycle.offsets[n] = static_cast<std::uint32_t>(n);
  cycle.targets.push_back(0);
  const SccInfo c = compute_sccs(cycle);
  EXPECT_EQ(c.count, 1u);
  EXPECT_TRUE(c.is_bottom[0]);
  const BottomClassification cc = classify_bottom_sccs(
      cycle, [](std::size_t i) {
        return i == 0 ? Verdict::Reject : Verdict::Accept;
      });
  EXPECT_EQ(cc.decision, Decision::Inconsistent);
  EXPECT_EQ(cc.num_bottom_sccs, 1u);
}

}  // namespace
}  // namespace dawn
