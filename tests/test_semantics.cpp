#include <gtest/gtest.h>

#include <algorithm>
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
#include "dawn/semantics/trials.hpp"

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

// The forward CSR of an edge list, rows in edge-list order.
CsrGraph forward_csr(int n, const EdgeList& edges) {
  CsrGraph g;
  g.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges) ++g.offsets[static_cast<std::size_t>(u) + 1];
  for (int v = 0; v < n; ++v) g.offsets[v + 1] += g.offsets[v];
  std::vector<std::uint32_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
  g.targets.resize(edges.size());
  for (const auto& [u, v] : edges) g.targets[cursor[u]++] = v;
  return g;
}

// The reverse CSR as the explicit engine builds it. Node v has gid
// 2 * v + 1; the nodes split into pool.num_workers() contiguous owner
// ranges at random cuts, and each owner records the edges into its range,
// in edge-list order, as (target gid, source gid) blocks of 1-3 pairs.
CsrGraph reverse_csr_by_owners(WorkerPool& pool, int n, const EdgeList& edges,
                               std::mt19937_64& rng) {
  const auto owners = static_cast<std::size_t>(pool.num_workers());
  std::vector<std::size_t> bounds{0};
  for (std::size_t k = 1; k < owners; ++k) {
    bounds.push_back(static_cast<std::size_t>(rng() % (n + 1)));
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.push_back(static_cast<std::size_t>(n));
  const auto owner_of = [&](int v) {
    return static_cast<std::size_t>(
        std::upper_bound(bounds.begin(), bounds.end(),
                         static_cast<std::size_t>(v)) -
        bounds.begin() - 1);
  };
  std::vector<std::vector<GidEdges>> blocks(owners);
  for (const auto& [u, v] : edges) {
    auto& mine = blocks[owner_of(v)];
    if (mine.empty() || mine.back().size() > rng() % 3) mine.emplace_back();
    mine.back().emplace_back(2 * v + 1, 2 * u + 1);
  }
  CsrGraph g;
  EXPECT_TRUE(build_reverse_csr(
      pool, std::span<const std::size_t>(bounds),
      [&](std::size_t k, bool last, const auto& fn) {
        for (GidEdges& block : blocks[k]) {
          for (const auto& [dst, src] : block) fn(dst, src);
          if (last) GidEdges().swap(block);
        }
        return true;
      },
      [](std::int64_t gid) { return static_cast<std::int32_t>(gid >> 1); },
      g));
  for (const auto& mine : blocks) {
    for (const GidEdges& block : mine) EXPECT_EQ(block.capacity(), 0u);
  }
  return g;
}

// The reverse of forward_csr's graph, predecessors in edge-list order.
CsrGraph transpose(int n, const EdgeList& edges) {
  EdgeList reversed;
  for (const auto& [u, v] : edges) reversed.emplace_back(v, u);
  return forward_csr(n, reversed);
}

TEST(Scc, BuildCsrKeepsBufferOrderWithinANode) {
  // Two owners: nodes [0, 2) and [2, 4). Each node's predecessors follow
  // the order its owner recorded them in.
  const EdgeList edges = {{2, 0}, {0, 1}, {2, 2}, {0, 1}, {2, 1}, {1, 0}};
  WorkerPool pool(2);
  std::vector<GidEdges> blocks = {{{0, 2}, {1, 0}, {1, 0}, {1, 2}, {0, 1}},
                                  {{2, 2}}};
  const auto source = [&](std::size_t k, bool, const auto& fn) {
    for (const auto& [dst, src] : blocks[k]) fn(dst, src);
    return true;
  };
  const auto identity = [](std::int64_t gid) {
    return static_cast<std::int32_t>(gid);
  };
  const std::vector<std::size_t> owner_bounds = {0, 2, 4};
  const auto bounds = std::span<const std::size_t>(owner_bounds);
  CsrGraph g;
  ASSERT_TRUE(build_reverse_csr(pool, bounds, source, identity, g));
  EXPECT_EQ(g.offsets, (std::vector<std::uint32_t>{0, 2, 5, 6, 6}));
  EXPECT_EQ(g.targets, (std::vector<std::int32_t>{2, 1, 0, 0, 2, 2}));
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.targets, transpose(4, edges).targets);

  // A target outside its owner's range, a source outside [0, n), and a
  // failed read each fail the build.
  CsrGraph out;
  blocks = {{{0, 2}, {1, 0}, {1, 0}, {1, 2}, {2, 1}}, {{2, 2}}};
  EXPECT_FALSE(build_reverse_csr(pool, bounds, source, identity, out));
  blocks = {{{0, 2}, {1, 0}, {1, 0}, {1, 2}, {0, 4}}, {{2, 2}}};
  EXPECT_FALSE(build_reverse_csr(pool, bounds, source, identity, out));
  blocks = {{{0, 2}, {1, 0}, {1, 0}, {1, 2}, {0, 1}}, {{2, 2}}};
  EXPECT_FALSE(build_reverse_csr(
      pool, bounds,
      [&](std::size_t k, bool last, const auto& fn) {
        return source(k, last, fn) && k == 0;
      },
      identity, out));
}

// Rooted inputs for the engine's classifier, whose precondition is that
// node 0 reaches every node. Shape 0 adds an edge 0 -> v for each v that
// node 0 does not reach; shape 1 then gives every sink a self-loop, so no
// sink is left; shape 2 adds the cycle 0 -> 1 -> ... -> n-1 -> 0, so the
// graph is one SCC. Shape 3 ignores `g`: a transient root and a few
// transient nodes lead into 2-4 disjoint cycles of 2-6 nodes with chords,
// and nothing else — no sink and several non-singleton bottom SCCs.
RandomDigraph rooted_digraph(const RandomDigraph& g, int shape,
                             std::mt19937_64& rng) {
  RandomDigraph r = g;
  if (shape == 3) {
    r = {};
    const int cycles = 2 + static_cast<int>(rng() % 3);
    const int transient = 1 + static_cast<int>(rng() % 4);
    r.n = transient;
    std::vector<int> starts;
    for (int c = 0; c < cycles; ++c) {
      const int len = 2 + static_cast<int>(rng() % 5);
      starts.push_back(r.n);
      for (int i = 0; i < len; ++i) {
        r.edges.emplace_back(r.n + i, r.n + (i + 1) % len);
        if (rng() % 3 == 0) {
          r.edges.emplace_back(r.n + i, r.n + static_cast<int>(rng() % len));
        }
      }
      r.n += len;
    }
    for (int t = 0; t < transient; ++t) {
      if (t + 1 < transient) r.edges.emplace_back(t, t + 1);
      if (rng() % 2 == 0 && t > 0) r.edges.emplace_back(t, 0);
    }
    for (int c = 0; c < cycles; ++c) {
      r.edges.emplace_back(static_cast<int>(rng() % transient), starts[c]);
    }
    for (int v = 0; v < r.n; ++v) {
      r.verdicts.push_back(static_cast<Verdict>(rng() % 3 == 0 ? 1 : 0));
    }
    return r;
  }
  if (r.n == 0) return r;
  if (shape == 2) {
    for (int v = 0; v < r.n; ++v) r.edges.emplace_back(v, (v + 1) % r.n);
    return r;
  }
  const Oracle o = brute_force(r.n, r.edges);
  for (int v = 1; v < r.n; ++v) {
    if (!o.reach[0][v]) r.edges.emplace_back(0, v);
  }
  if (shape == 1) {
    std::vector<char> has_succ(static_cast<std::size_t>(r.n), 0);
    for (const auto& [u, v] : r.edges) has_succ[u] = 1;
    for (int v = 0; v < r.n; ++v) {
      if (!has_succ[v]) r.edges.emplace_back(v, v);
    }
  }
  return r;
}

TEST(Scc, MatchesBruteForceOracleOnRandomDigraphs) {
  std::mt19937_64 rng(20240613);
  std::mt19937_64 shape_rng(7);  // rooted shapes and owner cuts
  std::size_t nontrivial = 0;
  // The engine's classifier and owner sort, at 1, 2, 3 and 5 owners.
  std::vector<std::unique_ptr<WorkerPool>> pools;
  for (const int owners : {1, 2, 3, 5}) {
    pools.push_back(std::make_unique<WorkerPool>(owners));
  }
  std::size_t sink_closures = 0, one_scc = 0, self_loops = 0,
              transient_multi_bottom = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const RandomDigraph random = random_digraph(rng);
    // Trials past 300 are rooted only. Shapes and cuts draw from their own
    // generator, so the first 300 graphs are the same draws as ever.
    const bool rooted_only = trial >= 300;
    const RandomDigraph rg =
        rooted_only ? rooted_digraph(random, trial % 4, shape_rng) : random;
    const Oracle o = brute_force(rg.n, rg.edges);
    const CsrGraph g = forward_csr(rg.n, rg.edges);
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

    // The engine's classifier needs a root that reaches every node: give
    // each of the first 300 graphs one of the rooted shapes.
    const RandomDigraph rooted =
        rooted_only ? rg : rooted_digraph(rg, trial % 4, shape_rng);
    if (rooted.n == 0) continue;
    const Oracle ro = rooted_only ? o : brute_force(rooted.n, rooted.edges);
    const BottomClassification rooted_expected =
        oracle_classification(ro, rooted.verdicts);
    std::vector<char> has_succ(static_cast<std::size_t>(rooted.n), 0);
    bool self_loop = false;
    for (const auto& [u, v] : rooted.edges) {
      has_succ[u] = 1;
      self_loop = self_loop || u == v;
    }
    std::vector<std::uint8_t> bytes;
    std::size_t sinks = 0;
    for (int v = 0; v < rooted.n; ++v) {
      bytes.push_back(verdict_byte(rooted.verdicts[v], !has_succ[v]));
      sinks += has_succ[v] ? 0 : 1;
    }
    std::size_t sccs = 0, multi_node_bottoms = 0;
    for (int r = 0; r < rooted.n; ++r) {
      if (!ro.representative(r)) continue;
      ++sccs;
      if (!ro.bottom(r)) continue;
      for (int v = r + 1; v < rooted.n; ++v) {
        if (ro.same_scc(r, v)) {
          ++multi_node_bottoms;
          break;
        }
      }
    }
    sink_closures += sinks > 0 && sinks < static_cast<std::size_t>(rooted.n);
    one_scc += rooted.n > 1 && sccs == 1;
    self_loops += self_loop;
    transient_multi_bottom +=
        sinks == 0 && !ro.bottom(0) && multi_node_bottoms >= 2;
    const CsrGraph expected_reverse = transpose(rooted.n, rooted.edges);
    for (const auto& pool : pools) {
      const CsrGraph reverse =
          reverse_csr_by_owners(*pool, rooted.n, rooted.edges, shape_rng);
      ASSERT_EQ(reverse.offsets, expected_reverse.offsets)
          << "trial " << trial << " owners " << pool->num_workers();
      ASSERT_EQ(reverse.targets, expected_reverse.targets)
          << "trial " << trial << " owners " << pool->num_workers();
      const BottomClassification closure =
          classify_bottom_sccs_reverse(reverse, bytes, 0);
      EXPECT_EQ(closure.decision, rooted_expected.decision)
          << "trial " << trial << " owners " << pool->num_workers();
      EXPECT_EQ(closure.num_bottom_sccs, rooted_expected.num_bottom_sccs)
          << "trial " << trial << " owners " << pool->num_workers();
    }
  }
  EXPECT_GT(nontrivial, 100u);  // the generator mixes cycles and DAG parts
  // The rooted inputs reach every step of the closure classifier.
  EXPECT_GT(sink_closures, 50u);
  EXPECT_GT(one_scc, 50u);
  EXPECT_GT(self_loops, 50u);
  EXPECT_GT(transient_multi_bottom, 50u);
}

TEST(Scc, EmptyGraphHasNoBottomSccs) {
  for (const CsrGraph& g : {CsrGraph{}, CsrGraph{{0}, {}}}) {
    const SccInfo info = compute_sccs(g);
    EXPECT_EQ(info.count, 0u);
    const BottomClassification cls =
        classify_bottom_sccs(g, [](std::size_t) { return Verdict::Accept; });
    EXPECT_EQ(cls.num_bottom_sccs, 0u);
    EXPECT_EQ(cls.decision, Decision::Reject);
    const BottomClassification closure =
        classify_bottom_sccs_reverse(g, {}, 0);
    EXPECT_EQ(closure.num_bottom_sccs, 0u);
    EXPECT_EQ(closure.decision, Decision::Reject);
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

  // The closure classifier on the reverses: the path's last node is a sink
  // every node reaches (step 2); the cycle is one SCC (step 3); with a
  // self-loop in place of the sink, Tarjan runs on a million-node path
  // (step 4).
  EdgeList path_edges, cycle_edges, loop_edges;
  for (std::int32_t v = 0; v + 1 < n; ++v) path_edges.emplace_back(v, v + 1);
  cycle_edges = loop_edges = path_edges;
  cycle_edges.emplace_back(n - 1, 0);
  loop_edges.emplace_back(n - 1, n - 1);
  std::vector<std::uint8_t> bytes(n, verdict_byte(Verdict::Accept, false));
  bytes[n - 1] = verdict_byte(Verdict::Reject, true);
  const BottomClassification pr =
      classify_bottom_sccs_reverse(transpose(n, path_edges), bytes, 0);
  EXPECT_EQ(pr.decision, Decision::Reject);
  EXPECT_EQ(pr.num_bottom_sccs, 1u);
  bytes[n - 1] = verdict_byte(Verdict::Reject, false);
  const BottomClassification cr =
      classify_bottom_sccs_reverse(transpose(n, cycle_edges), bytes, 0);
  EXPECT_EQ(cr.decision, Decision::Inconsistent);
  EXPECT_EQ(cr.num_bottom_sccs, 1u);
  const BottomClassification lr =
      classify_bottom_sccs_reverse(transpose(n, loop_edges), bytes, 0);
  EXPECT_EQ(lr.decision, Decision::Reject);
  EXPECT_EQ(lr.num_bottom_sccs, 1u);
}

}  // namespace
}  // namespace dawn
