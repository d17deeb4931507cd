// Out-of-core exploration: the packed store's spill mode
// (semantics/packed_config), the edge spool and the spooled-edge
// classification (semantics/tiered_config), and the explicit engine's
// spill mode against its in-memory mode — intern/dedupe/value round-trips
// across spill boundaries, bit-identical outcomes and reports,
// thread-count-invariant spill accounting, exact caps, MemoryCap on
// starved budgets and oversized classifications, and the in-memory
// fallback when the spill dir is unusable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <memory>
#include <optional>
#include <vector>

#include "dawn/automata/config.hpp"
#include "dawn/automata/machine.hpp"
#include "dawn/graph/generators.hpp"
#include "dawn/obs/memory_ledger.hpp"
#include "dawn/semantics/decision.hpp"
#include "dawn/semantics/explicit_space.hpp"
#include "dawn/semantics/packed_config.hpp"
#include "dawn/semantics/parallel_explore.hpp"
#include "dawn/semantics/scc.hpp"
#include "dawn/semantics/tiered_config.hpp"
#include "dawn/semantics/trials.hpp"
#include "dawn/util/rng.hpp"

namespace dawn {
namespace {

Config random_config(int num_states, int nodes, Rng& rng) {
  Config c(static_cast<std::size_t>(nodes));
  for (auto& s : c) {
    s = static_cast<State>(rng.uniform(0, num_states - 1));
  }
  return c;
}

// Flood on a seeded cycle: 0 flips to 1 next to a 1. About n^2/2 reachable
// configurations, a single all-1 Accept bottom SCC.
std::shared_ptr<Machine> flood_machine() {
  FunctionMachine::Spec spec;
  spec.beta = 1;
  spec.num_labels = 2;
  spec.num_states = 2;
  spec.init = [](Label l) { return static_cast<State>(l == 1 ? 1 : 0); };
  spec.step = [](State s, const Neighbourhood& n) {
    if (s == 0 && n.count(1) > 0) return static_cast<State>(1);
    return s;
  };
  spec.verdict = [](State s) {
    return s == 1 ? Verdict::Accept : Verdict::Reject;
  };
  return std::make_shared<FunctionMachine>(spec);
}

// Every step toggles, so the whole 2^n space is one strongly connected
// component with mixed verdicts: the decision is Inconsistent.
std::shared_ptr<Machine> toggle_machine() {
  FunctionMachine::Spec spec;
  spec.beta = 1;
  spec.num_labels = 2;
  spec.num_states = 2;
  spec.init = [](Label l) { return static_cast<State>(l == 1 ? 1 : 0); };
  spec.step = [](State s, const Neighbourhood&) {
    return static_cast<State>(1 - s);
  };
  spec.verdict = [](State s) {
    return s == 0 ? Verdict::Accept : Verdict::Reject;
  };
  return std::make_shared<FunctionMachine>(spec);
}

Graph seeded_cycle(int n) {
  std::vector<Label> labels(static_cast<std::size_t>(n), 0);
  labels[0] = 1;
  return make_cycle(labels);
}

TEST(TieredStore, InternDedupesAndValueRoundTripsAcrossSpills) {
  const PackedCodec codec(5, 31);  // 3 bits x 31 nodes: word-straddling
  PackedConfigStore store(codec, ".", 1);  // any resident footprint is over
  ASSERT_TRUE(store.ok()) << store.error();

  Rng rng(2026);
  std::map<Config, std::int64_t> gids;
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 500; ++i) {
      const Config c = random_config(5, 31, rng);
      const auto r = store.intern(c);
      const auto [it, fresh] = gids.emplace(c, r.gid);
      EXPECT_EQ(r.fresh, fresh);
      EXPECT_EQ(it->second, r.gid);
    }
    // A "level boundary": everything hot goes to disk.
    ASSERT_TRUE(store.spill_to_budget()) << store.error();
  }
  EXPECT_EQ(store.size(), gids.size());
  EXPECT_GT(store.spill_events(), 0u);
  EXPECT_GT(store.spilled_bytes(), 0u);

  // Dedup and decode must keep working against fully spilled words.
  Config out;
  for (const auto& [config, gid] : gids) {
    const auto again = store.intern(config);
    EXPECT_FALSE(again.fresh);
    EXPECT_EQ(again.gid, gid);
    store.value(gid, out);
    EXPECT_EQ(out, config);
  }

  // dense() is a bijection onto [0, size) after finalize().
  store.finalize();
  std::vector<bool> seen(store.size(), false);
  for (const auto& [config, gid] : gids) {
    const auto d = static_cast<std::size_t>(store.dense(gid));
    ASSERT_LT(d, seen.size());
    EXPECT_FALSE(seen[d]);
    seen[d] = true;
  }
}

TEST(TieredStore, ZeroWordCodecNeverSpillsAndRoundTrips) {
  const PackedCodec codec(1, 8);  // |Q| = 1 packs to zero words
  PackedConfigStore store(codec, ".", 1);
  ASSERT_TRUE(store.ok()) << store.error();
  const Config c(8, 0);
  const auto first = store.intern(c);
  EXPECT_TRUE(first.fresh);
  EXPECT_FALSE(store.intern(c).fresh);
  // Nothing spillable: the call succeeds and writes nothing.
  ASSERT_TRUE(store.spill_to_budget());
  EXPECT_EQ(store.spilled_bytes(), 0u);
  Config out;
  store.value(first.gid, out);
  EXPECT_EQ(out, c);
}

TEST(TieredStore, UnusableSpillDirReportsNotOk) {
  const PackedCodec codec(2, 4);
  PackedConfigStore store(codec, "/nonexistent-dawn-spill-dir", 1024);
  EXPECT_FALSE(store.ok());
  EXPECT_FALSE(store.error().empty());
}

TEST(EdgeSpool, PerWriterAppendsScanBackInFileOrder) {
  EdgeSpool spool(".", 3);
  ASSERT_TRUE(spool.ok()) << spool.error();
  EXPECT_EQ(spool.num_writers(), 3);
  std::vector<GidEdges> expected(3);
  for (std::uint32_t w = 0; w < 3; ++w) {
    for (std::uint32_t i = 0; i < 10'000; ++i) {  // more than one engine block
      expected[w].emplace_back(w * 1'000'000 + i, i);
    }
  }
  // Each writer's edges in blocks of at most kBlockPairs, the writers'
  // blocks interleaved.
  for (std::size_t at = 0; at < 10'000; at += EdgeSpool::kBlockPairs) {
    const std::size_t len = std::min(EdgeSpool::kBlockPairs, 10'000 - at);
    for (std::size_t w = 0; w < 3; ++w) {
      const auto* first = expected[w].data() + at;
      spool.append_block(static_cast<int>(w), GidEdges(first, first + len));
    }
  }
  ASSERT_TRUE(spool.ok()) << spool.error();
  EXPECT_EQ(spool.num_edges(), 30'000u);
  EXPECT_EQ(spool.bytes(), 30'000u * 8);

  // Each writer's scan gives back its own pairs, in append order.
  for (int w = 0; w < 3; ++w) {
    GidEdges scanned;
    EXPECT_TRUE(spool.scan(w, [&](std::span<const GidEdges::value_type> c) {
      scanned.insert(scanned.end(), c.begin(), c.end());
    }));
    EXPECT_EQ(scanned, expected[static_cast<std::size_t>(w)]);
  }
}

using Adjacency = std::vector<std::vector<std::int32_t>>;

// Writes `adj` through a 3-writer EdgeSpool under scattered gids, as the
// engine does: the nodes split into three dense ranges at random cuts, and
// writer k holds the (target gid, source gid) pairs into range k. Then
// classifies the spool on a 3-worker pool, with node 0 as the root;
// dense() maps each gid back to its node.
ExploreOutcome classify_spooled(const Adjacency& adj,
                                const std::vector<Verdict>& verdicts,
                                std::size_t classify_cap, Rng& rng) {
  const auto n = static_cast<std::int64_t>(adj.size());
  std::vector<std::int64_t> gid(adj.size());
  std::map<std::int64_t, std::int32_t> node_of;
  for (std::size_t v = 0; v < adj.size(); ++v) {
    gid[v] = (static_cast<std::int64_t>(adj.size() - v) << 6) |
             static_cast<std::int64_t>(rng.uniform(0, 63));
    node_of[gid[v]] = static_cast<std::int32_t>(v);
  }
  std::vector<std::size_t> bounds = {
      0, static_cast<std::size_t>(rng.uniform(0, n)),
      static_cast<std::size_t>(rng.uniform(0, n)), adj.size()};
  std::sort(bounds.begin(), bounds.end());
  EdgeSpool spool(".", 3);
  EXPECT_TRUE(spool.ok()) << spool.error();
  std::vector<GidEdges> blocks(3);
  std::vector<std::uint8_t> bytes;
  for (std::size_t u = 0; u < adj.size(); ++u) {
    bytes.push_back(verdict_byte(verdicts[u], adj[u].empty()));
    for (const std::int32_t v : adj[u]) {
      const auto owner = static_cast<std::size_t>(
          std::upper_bound(bounds.begin(), bounds.end(),
                           static_cast<std::size_t>(v)) -
          bounds.begin() - 1);
      blocks[owner].emplace_back(
          static_cast<std::uint32_t>(gid[static_cast<std::size_t>(v)]),
          static_cast<std::uint32_t>(gid[u]));
    }
  }
  for (std::size_t w = 0; w < blocks.size(); ++w) {
    spool.append_block(static_cast<int>(w), blocks[w]);
  }
  EXPECT_TRUE(spool.ok()) << spool.error();
  WorkerPool pool(3);
  return classify_bottom_sccs_external(
      pool, spool, std::span<const std::size_t>(bounds), bytes,
      [&](std::int64_t g) { return node_of.at(g); }, 0, classify_cap);
}

// A sparse random digraph on n nodes (several sinks, so several bottom
// SCCs), plus a 2-cycle, self-loops and duplicate edges, and an edge from
// node 0 to every node it would not reach otherwise: the engine's
// classifier needs a root that reaches every node.
Adjacency random_digraph(std::size_t n, Rng& rng) {
  Adjacency adj(n);
  if (n == 0) return adj;
  const auto node = [&] {
    return static_cast<std::int32_t>(
        rng.uniform(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto edge = [&](std::int32_t u, std::int32_t v) {
    adj[static_cast<std::size_t>(u)].push_back(v);
  };
  for (auto e = rng.uniform(0, static_cast<std::int64_t>(n)); e > 0; --e) {
    edge(node(), node());
  }
  const std::int32_t a = node();
  const std::int32_t b = node();
  edge(a, b);
  edge(b, a);
  edge(a, b);  // duplicate
  for (int k = 0; k < 3; ++k) {
    const std::int32_t v = node();
    edge(v, v);
  }
  std::vector<char> reached(n, 0);
  std::vector<std::int32_t> queue = {0};
  reached[0] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const std::int32_t v : adj[static_cast<std::size_t>(queue[head])]) {
      if (reached[static_cast<std::size_t>(v)] == 0) {
        reached[static_cast<std::size_t>(v)] = 1;
        queue.push_back(v);
      }
    }
  }
  for (std::size_t v = 1; v < n; ++v) {
    if (reached[v] == 0) edge(0, static_cast<std::int32_t>(v));
  }
  return adj;
}

TEST(ExternalClassify, MatchesInMemoryClassificationOnSeededDigraphs) {
  Rng rng(2027);
  std::map<Decision, int> decisions;
  int multi_bottom = 0;
  for (int round = 0; round < 60; ++round) {
    // Round 0 is the empty graph.
    const auto n =
        static_cast<std::size_t>(round == 0 ? 0 : rng.uniform(1, 40));
    const Adjacency adj = random_digraph(n, rng);
    // Mostly uniform verdicts, so Accept and Reject decisions occur too.
    const auto mode = rng.uniform(0, 3);
    std::vector<Verdict> verdicts(n);
    for (auto& verdict : verdicts) {
      const auto draw = mode == 3 ? rng.uniform(0, 2) : mode;
      verdict = draw == 0   ? Verdict::Accept
                : draw == 1 ? Verdict::Reject
                            : Verdict::Neutral;
    }
    const BottomClassification expected = classify_bottom_sccs(
        adj, [&](std::size_t i) { return verdicts[i]; });
    const ExploreOutcome got =
        classify_spooled(adj, verdicts, 64u << 20, rng);
    EXPECT_EQ(got.reason, UnknownReason::None) << "round " << round;
    EXPECT_EQ(got.decision, expected.decision) << "round " << round;
    EXPECT_EQ(got.num_bottom_sccs, expected.num_bottom_sccs)
        << "round " << round;
    EXPECT_EQ(got.num_configs, n);
    ++decisions[expected.decision];
    if (expected.num_bottom_sccs >= 2) ++multi_bottom;
  }
  // The seeded family covers every decision and several bottom SCCs.
  EXPECT_GT(decisions[Decision::Accept], 0);
  EXPECT_GT(decisions[Decision::Reject], 0);
  EXPECT_GT(decisions[Decision::Inconsistent], 0);
  EXPECT_GT(multi_bottom, 0);
}

TEST(ExternalClassify, CapBelowTheCsrGivesMemoryCap) {
  // A 100-cycle: its CSR takes 4 bytes per edge plus 12 per node (+4).
  Adjacency adj(100);
  for (std::size_t v = 0; v < 100; ++v) {
    adj[v].push_back(static_cast<std::int32_t>((v + 1) % 100));
  }
  const std::vector<Verdict> verdicts(100, Verdict::Accept);
  const std::size_t csr_bytes = 100 * 4 + 100 * 12 + 4;
  Rng rng(5);
  const ExploreOutcome fits = classify_spooled(adj, verdicts, csr_bytes, rng);
  EXPECT_EQ(fits.decision, Decision::Accept);
  EXPECT_EQ(fits.num_bottom_sccs, 1u);
  const ExploreOutcome capped =
      classify_spooled(adj, verdicts, csr_bytes - 1, rng);
  EXPECT_EQ(capped.decision, Decision::Unknown);
  EXPECT_EQ(capped.reason, UnknownReason::MemoryCap);
  EXPECT_EQ(capped.num_bottom_sccs, 0u);
  EXPECT_EQ(capped.num_configs, 100u);
}

// A spill-forcing budget for a space of `configs` configurations,
// calibrated like the fuzz oracle: the packed words overflow it (so
// spilling happens) but the always-resident index fits (so the run
// completes instead of MemoryCap-ing).
ExploreBudget spill_budget(std::size_t configs, int threads) {
  ExploreBudget budget;
  budget.max_configs = 1'000'000;
  budget.max_threads = threads;
  budget.max_store_bytes = 5120 + 18 * configs;
  budget.spill_dir = ".";
  return budget;
}

// A flood whose flooded nodes blink between states 1 and 2 forever: the
// initial configuration is transient, no configuration is a sink, and the
// bottom SCC is every fully flooded configuration.
std::shared_ptr<Machine> blinking_flood_machine() {
  FunctionMachine::Spec spec;
  spec.beta = 1;
  spec.num_labels = 2;
  spec.num_states = 3;
  spec.init = [](Label l) { return static_cast<State>(l == 1 ? 1 : 0); };
  spec.step = [](State s, const Neighbourhood& n) {
    if (s == 0) {
      return static_cast<State>(n.count(1) + n.count(2) > 0 ? 1 : 0);
    }
    return static_cast<State>(3 - s);
  };
  spec.verdict = [](State s) {
    return s == 0 ? Verdict::Reject : Verdict::Accept;
  };
  return std::make_shared<FunctionMachine>(spec);
}

TEST(TieredEngine, MatchesInMemoryAndIsThreadCountInvariant) {
  // The engine's classifier settles the flood by its sink closure, the
  // toggle's one SCC by a backward search from the initial configuration,
  // and the blinking flood by Tarjan after that search.
  struct Case {
    const char* name;
    std::shared_ptr<Machine> machine;
    Graph graph;
    Decision decision;
  };
  const std::vector<Case> cases = {
      {"flood", flood_machine(), seeded_cycle(48),  // ~1.1k configs
       Decision::Accept},
      {"toggle", toggle_machine(), seeded_cycle(11), Decision::Inconsistent},
      {"blinking-flood", blinking_flood_machine(), seeded_cycle(9),
       Decision::Accept},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Machine& machine = *c.machine;
    const Graph& g = c.graph;
    ExploreBudget mem_budget;
    mem_budget.max_configs = 1'000'000;
    const ExplicitResult mem =
        decide_pseudo_stochastic_parallel(machine, g, mem_budget);
    ASSERT_EQ(mem.decision, c.decision);
    EXPECT_FALSE(mem.tiered_store);

    ExploreStats first_stats;
    std::optional<DecisionReport> first_report;
    // 3 and 5 owners split the 64 shards unevenly.
    for (const int threads : {1, 2, 3, 5, 8}) {
      SCOPED_TRACE(testing::Message() << threads << " workers");
      const ExploreBudget budget = spill_budget(mem.num_configs, threads);
      ExploreStats stats;
      const ExplicitResult tiered =
          decide_pseudo_stochastic_parallel(machine, g, budget, &stats);
      ASSERT_TRUE(tiered.tiered_store);
      EXPECT_TRUE(tiered.packed_store);
      EXPECT_EQ(tiered.decision, mem.decision);
      EXPECT_EQ(tiered.reason, mem.reason);
      EXPECT_EQ(tiered.num_configs, mem.num_configs);
      EXPECT_EQ(tiered.num_bottom_sccs, mem.num_bottom_sccs);
      EXPECT_GT(stats.spill_events, 0u);
      EXPECT_GT(stats.spill_arena_bytes, 0u);
      EXPECT_GT(stats.spill_edge_bytes, 0u);

      // The whole report, ledger included, through the facade.
      DecisionRequest req;
      req.method = DecideMethod::Explicit;
      req.budget = budget;
      const DecisionReport report = decide(machine, g, req);
      EXPECT_EQ(report.decision, mem.decision);
#ifndef DAWN_OBS_DISABLED  // -DDAWN_OBS=OFF compiles the ledger out
      EXPECT_GT(report.memory.get(obs::MemoryAccount::SpillEdgeBytes), 0u);
#endif
      if (!first_report) {
        first_stats = stats;
        first_report = report;
      } else {
        // Spill accounting is part of the determinism contract.
        EXPECT_EQ(stats.spill_events, first_stats.spill_events);
        EXPECT_EQ(stats.spill_arena_bytes, first_stats.spill_arena_bytes);
        EXPECT_EQ(stats.spill_edge_bytes, first_stats.spill_edge_bytes);
        EXPECT_EQ(stats.resident_bytes, first_stats.resident_bytes);
        EXPECT_EQ(stats.configs, first_stats.configs);
        EXPECT_EQ(stats.levels, first_stats.levels);
        EXPECT_TRUE(report == *first_report);
      }
    }
  }
}

TEST(TieredEngine, CappedRunReportsExactlyTheCap) {
  // The cap is checked in phase B, while owners intern; a spilling run
  // capped below its reachable count must clamp to the cap at any worker
  // count, like the in-memory engine.
  const auto machine = flood_machine();
  const Graph g = seeded_cycle(48);
  ExploreBudget mem_budget;
  mem_budget.max_configs = 1'000'000;
  const ExplicitResult mem =
      decide_pseudo_stochastic_parallel(*machine, g, mem_budget);
  ASSERT_EQ(mem.decision, Decision::Accept);
  const std::size_t cap = mem.num_configs / 2;

  std::optional<DecisionReport> first;
  for (const int threads : {1, 2, 5}) {
    SCOPED_TRACE(testing::Message() << threads << " workers");
    ExploreBudget budget = spill_budget(mem.num_configs, threads);
    budget.max_configs = cap;
    const ExplicitResult r =
        decide_pseudo_stochastic_parallel(*machine, g, budget);
    ASSERT_TRUE(r.tiered_store);
    EXPECT_EQ(r.decision, Decision::Unknown);
    EXPECT_EQ(r.reason, UnknownReason::ConfigCap);
    EXPECT_EQ(r.num_configs, cap);
    EXPECT_EQ(r.num_bottom_sccs, 0u);

    DecisionRequest req;
    req.method = DecideMethod::Explicit;
    req.budget = budget;
    const DecisionReport report = decide(*machine, g, req);
    EXPECT_EQ(report.unknown_reason, UnknownReason::ConfigCap);
    EXPECT_EQ(report.configs_explored, cap);
    if (!first) {
      first = report;
    } else {
      EXPECT_TRUE(report == *first);
    }
  }
}

TEST(TieredEngine, InconsistentSingleSccMatchesInMemory) {
  // 2^10 configs in one mixed-verdict SCC.
  const auto machine = toggle_machine();
  const Graph g = seeded_cycle(10);

  ExploreBudget mem_budget;
  mem_budget.max_configs = 1'000'000;
  const ExplicitResult mem =
      decide_pseudo_stochastic_parallel(*machine, g, mem_budget);
  ASSERT_EQ(mem.decision, Decision::Inconsistent);
  ASSERT_EQ(mem.num_bottom_sccs, 1u);

  const ExplicitResult tiered = decide_pseudo_stochastic_parallel(
      *machine, g, spill_budget(mem.num_configs, 2));
  ASSERT_TRUE(tiered.tiered_store);
  EXPECT_EQ(tiered.decision, mem.decision);
  EXPECT_EQ(tiered.num_configs, mem.num_configs);
  EXPECT_EQ(tiered.num_bottom_sccs, mem.num_bottom_sccs);
}

TEST(TieredEngine, StarvedBudgetAbortsWithMemoryCap) {
  const auto machine = flood_machine();
  const Graph g = seeded_cycle(64);
  ExploreBudget budget;
  budget.max_configs = 1'000'000;
  budget.max_store_bytes = 4096;  // under the index's own baseline
  budget.spill_dir = ".";
  const ExplicitResult r =
      decide_pseudo_stochastic_parallel(*machine, g, budget);
  ASSERT_TRUE(r.tiered_store);
  EXPECT_EQ(r.decision, Decision::Unknown);
  EXPECT_EQ(r.reason, UnknownReason::MemoryCap);
}

TEST(TieredEngine, UnusableSpillDirFallsBackToInMemory) {
  const auto machine = flood_machine();
  const Graph g = seeded_cycle(24);
  ExploreBudget budget;
  budget.max_configs = 1'000'000;
  budget.max_store_bytes = 1u << 20;
  budget.spill_dir = "/nonexistent-dawn-spill-dir";
  const ExplicitResult r =
      decide_pseudo_stochastic_parallel(*machine, g, budget);
  EXPECT_FALSE(r.tiered_store);
  EXPECT_EQ(r.decision, Decision::Accept);  // fallback still decides
}

}  // namespace
}  // namespace dawn
