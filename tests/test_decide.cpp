// The unified decider facade and the frontier-parallel exploration engine:
// differential tests against the sequential deciders, bit-identical
// determinism across thread counts, dispatch, budgets and UnknownReason.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dawn/extensions/broadcast.hpp"
#include "dawn/extensions/broadcast_engine.hpp"
#include "dawn/extensions/population_engine.hpp"
#include "dawn/graph/generators.hpp"
#include "dawn/obs/json.hpp"
#include "dawn/props/predicates.hpp"
#include "dawn/protocols/cutoff_construction.hpp"
#include "dawn/protocols/example46.hpp"
#include "dawn/protocols/exists_label.hpp"
#include "dawn/protocols/halting_flood.hpp"
#include "dawn/protocols/majority_bounded.hpp"
#include "dawn/protocols/parity_strong.hpp"
#include "dawn/protocols/pp_majority.hpp"
#include "dawn/protocols/pp_mod.hpp"
#include "dawn/protocols/threshold_daf.hpp"
#include "dawn/semantics/clique_counted.hpp"
#include "dawn/semantics/decision.hpp"
#include "dawn/semantics/explicit_space.hpp"
#include "dawn/semantics/parallel_explore.hpp"
#include "dawn/semantics/star_counted.hpp"
#include "dawn/util/rng.hpp"
#include "dawn/verify/verify.hpp"

namespace dawn {
namespace {

// The "flood retreats" bug: runs never stabilise, so the exact decider must
// answer Inconsistent on graphs where both labels are present.
std::shared_ptr<Machine> buggy_flooding() {
  FunctionMachine::Spec spec;
  spec.beta = 1;
  spec.num_labels = 2;
  spec.num_states = 2;
  spec.init = [](Label l) { return static_cast<State>(l); };
  spec.step = [](State s, const Neighbourhood& n) {
    if (s == 0 && n.count(1) > 0) return State{1};
    if (s == 1 && n.count(0) > 0) return State{0};
    return s;
  };
  spec.verdict = [](State s) {
    return s == 1 ? Verdict::Accept : Verdict::Reject;
  };
  return std::make_shared<FunctionMachine>(spec);
}

// Every node flips at every step, so the configuration graph is one SCC
// with no sink: the engine's classifier settles it by one backward search
// from the initial configuration.
std::shared_ptr<Machine> toggle() {
  FunctionMachine::Spec spec;
  spec.beta = 1;
  spec.num_labels = 2;
  spec.num_states = 2;
  spec.init = [](Label l) { return static_cast<State>(l); };
  spec.step = [](State s, const Neighbourhood&) {
    return static_cast<State>(1 - s);
  };
  spec.verdict = [](State s) {
    return s == 1 ? Verdict::Accept : Verdict::Reject;
  };
  return std::make_shared<FunctionMachine>(spec);
}

// A race with two kinds of end: a label-1 node (state 2) that steps before
// any neighbour has seen it stops in state 3; one that steps after a
// label-0 neighbour moved to state 1 blinks between states 4 and 5 forever.
// So some bottom SCCs are sinks and others are not, and the engine's
// classifier runs Tarjan after its sink closure.
std::shared_ptr<Machine> race_to_blink() {
  FunctionMachine::Spec spec;
  spec.beta = 1;
  spec.num_labels = 2;
  spec.num_states = 6;
  spec.init = [](Label l) { return static_cast<State>(l == 1 ? 2 : 0); };
  spec.step = [](State s, const Neighbourhood& n) {
    if (s == 0 && n.count(2) > 0) return State{1};
    if (s == 2) return static_cast<State>(n.count(1) > 0 ? 4 : 3);
    if (s == 4 || s == 5) return static_cast<State>(9 - s);
    return s;
  };
  spec.verdict = [](State s) {
    return s >= 4 ? Verdict::Reject : Verdict::Accept;
  };
  return std::make_shared<FunctionMachine>(spec);
}

std::vector<std::pair<std::string, std::shared_ptr<Machine>>> machines() {
  return {
      {"exists", make_exists_label(1, 2)},
      {"halting-flood", make_halting_flood(1, 2)},
      {"threshold-daf", make_threshold_daf(2, 0, 2)},
      {"mod-daf", make_mod_population_daf(2, 0, 0, 2)},
      {"cutoff1", make_cutoff1_automaton(pred_exists(1, 2))},
      {"buggy-flood", buggy_flooding()},
      {"toggle", toggle()},
      {"race-to-blink", race_to_blink()},
  };
}

std::vector<std::pair<std::string, Graph>> topologies() {
  Rng rng(7);
  const std::vector<Label> labels = {0, 1, 0, 0, 1, 0};
  return {
      {"clique", make_clique(labels)},
      {"cycle", make_cycle(labels)},
      {"line", make_line(labels)},
      {"star", make_star(labels.front(), {1, 0, 0, 1, 0})},
      {"grid", make_grid(2, 3, labels)},
      {"random", make_random_connected(labels, 3, rng)},
  };
}

TEST(ParallelExplicit, MatchesSequentialOnEveryTopology) {
  for (const auto& [mname, m] : machines()) {
    for (const auto& [gname, g] : topologies()) {
      const auto seq = decide_pseudo_stochastic(*m, g, {.max_configs = 500'000});
      const auto par = decide_pseudo_stochastic_parallel(
          *m, g, {.max_configs = 500'000, .max_threads = 8});
      ASSERT_NE(seq.decision, Decision::Unknown) << mname << "/" << gname;
      EXPECT_EQ(par.decision, seq.decision) << mname << "/" << gname;
      EXPECT_EQ(par.reason, seq.reason) << mname << "/" << gname;
      EXPECT_EQ(par.num_configs, seq.num_configs) << mname << "/" << gname;
      EXPECT_EQ(par.num_bottom_sccs, seq.num_bottom_sccs)
          << mname << "/" << gname;
    }
  }
}

TEST(ParallelExplicit, BuggyProtocolIsInconsistentInBothEngines) {
  const auto m = buggy_flooding();
  const Graph g = make_cycle({0, 1, 0, 0, 1});
  const auto seq = decide_pseudo_stochastic(*m, g);
  const auto par = decide_pseudo_stochastic_parallel(*m, g);
  EXPECT_EQ(seq.decision, Decision::Inconsistent);
  EXPECT_EQ(par.decision, Decision::Inconsistent);
  EXPECT_EQ(par.num_configs, seq.num_configs);
}

// Edges hold gids in 32 bits, which holds while each of the 64 shards has
// at most 2^26 configurations, and dense ids stay below INT32_MAX. The
// engine checks both at every level end and stops with MemoryCap past
// either; no test can explore 2^26 configurations, so the limits are
// checked here.
TEST(ParallelExplicit, EngineIdsFitThirtyTwoBits) {
  constexpr std::size_t kLocal = std::size_t{1} << 26;
  std::vector<std::size_t> occupancies(64, 0);
  occupancies[5] = kLocal;
  EXPECT_TRUE(fits_engine_ids(kLocal, occupancies, 6));
  occupancies[5] = kLocal + 1;
  EXPECT_FALSE(fits_engine_ids(kLocal + 1, occupancies, 6));
  std::fill(occupancies.begin(), occupancies.end(), kLocal / 2);
  const std::size_t int32_max = std::numeric_limits<std::int32_t>::max();
  EXPECT_TRUE(fits_engine_ids(int32_max - 1, occupancies, 6));
  EXPECT_FALSE(fits_engine_ids(int32_max, occupancies, 6));
}

TEST(ParallelExplicit, CapMatchesSequentialPredicate) {
  // The parallel engine must call "budget exhausted" on exactly the same
  // instances as the sequential one: reachable configs > max_configs.
  const auto m = make_exists_label(1, 2);
  const Graph g = make_cycle({0, 0, 1, 0, 0, 0});
  const auto full = decide_pseudo_stochastic(*m, g);
  ASSERT_NE(full.decision, Decision::Unknown);
  // Exactly at the reachable count: fits, both complete.
  for (int threads : {1, 8}) {
    const auto r = decide_pseudo_stochastic_parallel(
        *m, g, {.max_configs = full.num_configs, .max_threads = threads});
    EXPECT_EQ(r.decision, full.decision) << threads;
    EXPECT_EQ(r.reason, UnknownReason::None) << threads;
  }
  // One below: both must report the config cap.
  const auto seq = decide_pseudo_stochastic(
      *m, g, {.max_configs = full.num_configs - 1});
  EXPECT_EQ(seq.decision, Decision::Unknown);
  EXPECT_EQ(seq.reason, UnknownReason::ConfigCap);
  for (int threads : {1, 8}) {
    const auto r = decide_pseudo_stochastic_parallel(
        *m, g, {.max_configs = full.num_configs - 1, .max_threads = threads});
    EXPECT_EQ(r.decision, Decision::Unknown) << threads;
    EXPECT_EQ(r.reason, UnknownReason::ConfigCap) << threads;
  }
}

TEST(ParallelCounted, CliqueAndStarMatchSequential) {
  for (const auto& [mname, m] : machines()) {
    for (const LabelCount& L :
         std::vector<LabelCount>{{3, 2}, {5, 1}, {2, 6}, {4, 4}}) {
      const auto seq = decide_clique_pseudo_stochastic(*m, L);
      const auto par =
          decide_clique_pseudo_stochastic_parallel(*m, L, {.max_threads = 8});
      EXPECT_EQ(par.decision, seq.decision) << mname;
      EXPECT_EQ(par.num_configs, seq.num_configs) << mname;
      EXPECT_EQ(par.num_bottom_sccs, seq.num_bottom_sccs) << mname;

      std::vector<Label> leaves;
      for (Label l = 0; l < 2; ++l) {
        for (std::int64_t i = 0; i < L[static_cast<std::size_t>(l)]; ++i) {
          leaves.push_back(l);
        }
      }
      const auto sseq = decide_star_pseudo_stochastic(*m, 0, leaves);
      const auto spar = decide_star_pseudo_stochastic_parallel(
          *m, 0, leaves, {.max_threads = 8});
      EXPECT_EQ(spar.decision, sseq.decision) << mname;
      EXPECT_EQ(spar.num_configs, sseq.num_configs) << mname;
      EXPECT_EQ(spar.num_bottom_sccs, sseq.num_bottom_sccs) << mname;
    }
  }
}

TEST(Decide, ReportsAreBitIdenticalAcrossThreadCounts) {
  for (const auto& [mname, m] : machines()) {
    for (const auto& [gname, g] : topologies()) {
      for (std::size_t cap : {std::size_t{2'000'000}, std::size_t{10}}) {
        DecisionRequest req;
        req.budget = {.max_configs = cap, .max_threads = 1, .deadline_ms = 0};
        const DecisionReport one = decide(*m, g, req);
        // 3 and 5 workers split the 64 shards into uneven owner ranges.
        for (int threads : {2, 3, 5, 8}) {
          req.budget.max_threads = threads;
          const DecisionReport many = decide(*m, g, req);
          EXPECT_TRUE(many == one)
              << mname << "/" << gname << " cap=" << cap << " threads="
              << threads << ": " << to_string(many.decision) << "/"
              << to_string(many.unknown_reason) << " vs "
              << to_string(one.decision) << "/"
              << to_string(one.unknown_reason);
        }
      }
    }
  }
}

// Compiled machines intern states in thread-timing order, so their state
// ids, configuration hashes and shard split vary from run to run. Each
// decide gets a fresh machine: reusing one would warm its interner and
// hide a ledger that depends on how far workers overshot a cap.
TEST(Decide, CompiledReportsAreBitIdenticalAcrossThreadCounts) {
  struct Case {
    std::string name;
    std::function<std::shared_ptr<const Machine>()> build;
    Graph graph;
  };
  const std::vector<Label> half = {0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1};
  std::vector<Label> clique31(31, 1);
  std::fill_n(clique31.begin(), 15, 0);
  const std::vector<Case> cases = {
      {"majority-pp/clique31", [] { return make_majority_daf(0, 1, 2); },
       make_clique(clique31)},
      {"mod-pp/clique12",
       [] { return make_mod_population_daf(3, 1, 0, 2); }, make_clique(half)},
      {"mod-pp/star6",
       [] { return make_mod_population_daf(3, 1, 0, 2); },
       make_star(0, {1, 0, 1, 1, 1})},
      {"threshold:1:2/cycle7", [] { return make_threshold_daf(2, 1, 2); },
       make_cycle({0, 1, 0, 0, 1, 0, 0})},
      {"majority:2/cycle5",
       [] { return make_majority_bounded(2).machine; },
       make_cycle({0, 1, 1, 0, 1})},
      {"majority:2/line5",
       [] { return make_majority_bounded(2).machine; },
       make_line({1, 0, 1, 1, 0})},
      {"mod:0:2/cycle4",
       [] { return make_mod_counter_daf(2, 1, 0, 2).machine; },
       make_cycle({0, 1, 1, 1})},
  };
  for (const Case& c : cases) {
    const auto report = [&c](std::size_t cap, int threads) {
      DecisionRequest req;
      req.budget = {.max_configs = cap, .max_threads = threads,
                    .deadline_ms = 0};
      return decide(*c.build(), c.graph, req);
    };
    const DecisionReport full = report(2'000'000, 1);
    ASSERT_NE(full.decision, Decision::Unknown) << c.name;
    ASSERT_GT(full.memory.get(obs::MemoryAccount::InternerBytes), 0u)
        << c.name;
    for (std::size_t cap : {std::size_t{2'000'000}, std::size_t{20},
                            std::size_t{300}, std::size_t{6000}}) {
      const DecisionReport one = cap == 2'000'000 ? full : report(cap, 1);
      for (int threads : {2, 3, 5, 8}) {
        const DecisionReport many = report(cap, threads);
        EXPECT_TRUE(many == one)
            << c.name << " cap=" << cap << " threads=" << threads << ": "
            << many.memory.to_json().dump() << " vs "
            << one.memory.to_json().dump();
      }
    }
  }
}

TEST(Decide, AutoDispatchPicksTheCountedEngines) {
  const auto m = make_exists_label(1, 2);
  const auto on = [&](const Graph& g) { return decide(*m, g); };
  EXPECT_EQ(on(make_clique({0, 1, 0, 0})).method, DecideMethod::CountedClique);
  EXPECT_EQ(on(make_star(0, {1, 0, 0})).method, DecideMethod::CountedStar);
  EXPECT_EQ(on(make_cycle({0, 1, 0, 0})).method, DecideMethod::Explicit);
  EXPECT_EQ(on(make_line({0, 1, 0, 0})).method, DecideMethod::Explicit);
}

TEST(Decide, CountedEnginesAgreeWithExplicitOnTheirTopologies) {
  for (const auto& [mname, m] : machines()) {
    for (const Graph& g : {make_clique({0, 1, 0, 1, 0}),
                           make_star(0, {1, 0, 0, 1})}) {
      DecisionRequest exp;
      exp.method = DecideMethod::Explicit;
      const DecisionReport via_auto = decide(*m, g);
      const DecisionReport via_explicit = decide(*m, g, exp);
      EXPECT_NE(via_auto.method, DecideMethod::Explicit) << mname;
      EXPECT_EQ(via_auto.decision, via_explicit.decision) << mname;
    }
  }
}

TEST(Decide, SynchronousAndSimulateMethods) {
  const auto m = make_exists_label(1, 2);
  const Graph g = make_cycle({0, 0, 1, 0, 0});

  DecisionRequest sync;
  sync.method = DecideMethod::Synchronous;
  const DecisionReport s = decide(*m, g, sync);
  EXPECT_EQ(s.decision, Decision::Accept);
  EXPECT_TRUE(s.exact);
  EXPECT_EQ(s.method, DecideMethod::Synchronous);

  DecisionRequest sim;
  sim.method = DecideMethod::Simulate;
  const DecisionReport r = decide(*m, g, sim);
  EXPECT_EQ(r.decision, Decision::Accept);
  EXPECT_FALSE(r.exact);
  EXPECT_EQ(r.method, DecideMethod::Simulate);
}

TEST(Decide, ConfigCapIsReportedAsBudgetExhaustion) {
  const auto m = make_exists_label(1, 2);
  DecisionRequest req;
  req.budget = {.max_configs = 3, .max_threads = 4, .deadline_ms = 0};
  const DecisionReport r = decide(*m, make_cycle({0, 0, 1, 0, 0, 0}), req);
  EXPECT_EQ(r.decision, Decision::Unknown);
  EXPECT_EQ(r.unknown_reason, UnknownReason::ConfigCap);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_EQ(r.configs_explored, std::size_t{3});
}

TEST(Decide, DeadlineIsReportedAsBudgetExhaustion) {
  // A state space far too large for a 1 ms deadline.
  const auto m = make_threshold_daf(3, 0, 2);
  std::vector<Label> labels(18, 0);
  DecisionRequest req;
  req.method = DecideMethod::Explicit;
  req.budget = {.max_configs = 1'000'000'000, .max_threads = 2,
                .deadline_ms = 1};
  const DecisionReport r = decide(*m, make_cycle(labels), req);
  EXPECT_EQ(r.decision, Decision::Unknown);
  EXPECT_EQ(r.unknown_reason, UnknownReason::Deadline);
  EXPECT_TRUE(r.budget_exhausted);
}

// Declares |Q| = 2 but steps into state 2: a node in state 1 whose β = 2
// neighbourhood holds two 1s. The packed store cannot encode that state, so
// PackedCodec's check fires inside an exploration worker; decide() must
// rethrow it on the caller, whichever worker hit it, instead of aborting.
TEST(Decide, UndeclaredStateThrowsOnTheCallerAtEveryThreadCount) {
  FunctionMachine::Spec spec;
  spec.beta = 2;
  spec.num_labels = 2;
  spec.num_states = 2;
  spec.init = [](Label l) { return static_cast<State>(l); };
  spec.step = [](State s, const Neighbourhood& n) {
    if (s == 0 && n.count(1) > 0) return State{1};
    if (s == 1 && n.count(1) == 2) return State{2};  // undeclared
    return s;
  };
  spec.verdict = [](State s) {
    return s == 1 ? Verdict::Accept : Verdict::Reject;
  };
  const FunctionMachine m(spec);
  std::vector<Label> labels(16, 0);
  for (std::size_t i = 0; i < labels.size(); i += 5) labels[i] = 1;
  const Graph g = make_line(labels);
  DecisionRequest req;
  req.method = DecideMethod::Explicit;
  for (const int threads : {1, 2, 8}) {
    req.budget = {.max_configs = 2'000'000, .max_threads = threads};
    try {
      (void)decide(m, g, req);
      ADD_FAILURE() << "no exception at " << threads << " threads";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("num_states()"), std::string::npos)
          << e.what();
    }
  }
}

// Capped runs too (every topology here reaches more than 3 configurations):
// both sides clamp to the cap, so the cross-check compares their counts.
TEST(Decide, CrossCheckAgreesWithPlainRun) {
  for (const auto& [gname, g] : topologies()) {
    for (std::size_t cap : {std::size_t{2'000'000}, std::size_t{3}}) {
      DecisionRequest req;
      req.budget.max_configs = cap;
      const auto m = make_exists_label(1, 2);
      const DecisionReport plain = decide(*m, g, req);
      EXPECT_EQ(plain.unknown_reason == UnknownReason::ConfigCap, cap == 3)
          << gname;
      req.cross_check = true;
      req.budget.max_threads = 4;
      const DecisionReport checked = decide(*m, g, req);
      EXPECT_NE(checked.unknown_reason, UnknownReason::CrossCheck)
          << gname << " cap=" << cap;
      EXPECT_EQ(checked.decision, plain.decision) << gname << " cap=" << cap;
      EXPECT_EQ(checked.configs_explored, plain.configs_explored)
          << gname << " cap=" << cap;
    }
  }
}

TEST(Verify, CappedInstancesAreSeparatedFromCounterexamples) {
  const auto m = make_exists_label(1, 2);
  VerifyOptions opts;
  opts.count_bound = 3;
  opts.budget = {.max_configs = 6, .max_threads = 1, .deadline_ms = 0};
  const auto report = verify_machine(*m, pred_exists(1, 2), opts);
  EXPECT_FALSE(report.capped.empty());
  EXPECT_TRUE(report.failures.empty()) << report.summary();
  EXPECT_FALSE(report.complete);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("capped"), std::string::npos);
  for (const auto& c : report.capped) {
    EXPECT_EQ(c.reason, UnknownReason::ConfigCap);
  }
}

TEST(Verify, FactoryOverloadMatchesSharedMachine) {
  VerifyOptions seq_opts;
  seq_opts.count_bound = 3;
  seq_opts.instance_threads = 1;
  VerifyOptions par_opts = seq_opts;
  par_opts.instance_threads = 8;

  const auto shared = make_exists_label(1, 2);
  const auto a = verify_machine(*shared, pred_exists(1, 2), seq_opts);
  const auto b = verify_machine(
      [] { return std::shared_ptr<const Machine>(make_exists_label(1, 2)); },
      pred_exists(1, 2), par_opts);
  EXPECT_EQ(a.instances, b.instances);
  EXPECT_EQ(a.failures.size(), b.failures.size());
  EXPECT_EQ(a.capped.size(), b.capped.size());
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
}

TEST(Verify, TinyBudgetCapsTheCliqueSweep) {
  const auto m = make_exists_label(1, 2);
  VerifyOptions opts;
  opts.count_bound = 3;
  opts.budget.max_configs = 2;
  const auto report = verify_machine_on_cliques(*m, pred_exists(1, 2), opts);
  EXPECT_FALSE(report.complete);
  EXPECT_FALSE(report.capped.empty());
}

// The sequential reference deciders, all on semantics/sequential_explore.hpp.

// A machine stepping s -> (s + 1) % k whatever it sees, the same machine as
// an overlay without broadcasts, and a population protocol with
// δ(a, b) = ((a + 1) % 4, b): every agent cycles on its own, so n agents
// reach k^n configurations (C(n + k - 1, k - 1) counted), far more than the
// budgets below let any decider explore.
std::shared_ptr<Machine> cycling_machine(int k) {
  FunctionMachine::Spec spec;
  spec.num_states = k;
  spec.init = [](Label) { return State{0}; };
  spec.step = [k](State s, const Neighbourhood&) {
    return static_cast<State>((s + 1) % k);
  };
  spec.verdict = [](State s) {
    return s == 0 ? Verdict::Accept : Verdict::Reject;
  };
  return std::make_shared<FunctionMachine>(spec);
}

std::shared_ptr<BroadcastOverlay> cycling_overlay(int k) {
  SimpleBroadcastOverlay::Spec spec;
  spec.machine = cycling_machine(k);
  return std::make_shared<SimpleBroadcastOverlay>(std::move(spec));
}

GraphPopulationProtocol cycling_protocol() {
  GraphPopulationProtocol p;
  p.num_states = 4;
  p.init = [](Label) { return State{0}; };
  p.delta = [](State a, State b) {
    return std::pair<State, State>{static_cast<State>((a + 1) % 4), b};
  };
  p.verdict = [](State s) {
    return s == 0 ? Verdict::Accept : Verdict::Reject;
  };
  return p;
}

ExploreOutcome outcome_of(const ExplicitResult& r) {
  return {r.decision, r.reason, r.num_configs, r.num_bottom_sccs};
}

struct SequentialCase {
  std::string name;
  std::function<ExploreOutcome(const ExploreBudget&)> decide;
};

// Every sequential decider on a cycling instance.
std::vector<SequentialCase> sequential_deciders() {
  const auto machine4 = cycling_machine(4);
  const auto machine8 = cycling_machine(8);
  const auto overlay4 = cycling_overlay(4);
  const auto overlay8 = cycling_overlay(8);
  const auto protocol = cycling_protocol();
  const Graph cycle12 = make_cycle(std::vector<Label>(12, 0));
  const Graph cycle8 = make_cycle(std::vector<Label>(8, 0));
  return {
      {"explicit",
       [=](const ExploreBudget& b) {
         return outcome_of(decide_pseudo_stochastic(*machine4, cycle12, b));
       }},
      {"liberal",
       [=](const ExploreBudget& b) {
         return outcome_of(
             decide_pseudo_stochastic_liberal(*machine4, cycle12, b));
       }},
      {"clique",
       [=](const ExploreBudget& b) {
         return decide_clique_pseudo_stochastic(*machine8, {60}, b);
       }},
      {"star",
       [=](const ExploreBudget& b) {
         return decide_star_pseudo_stochastic(
             *machine8, 0, std::vector<Label>(60, 0), b);
       }},
      {"population",
       [=](const ExploreBudget& b) {
         return decide_population(protocol, cycle12, b);
       }},
      {"population-counted",
       [=](const ExploreBudget& b) {
         return decide_population_counted(protocol, {200}, b);
       }},
      {"overlay-strong",
       [=](const ExploreBudget& b) {
         return decide_overlay_strong(*overlay4, cycle12, b);
       }},
      {"overlay-strong-counted",
       [=](const ExploreBudget& b) {
         return decide_overlay_strong_counted(*overlay8, {60}, b);
       }},
      {"overlay-weak",
       [=](const ExploreBudget& b) {
         return decide_overlay_weak(*overlay8, cycle8, b);
       }},
  };
}

// A capped run reports exactly the cap, as DecisionReport promises, from
// every sequential decider and from decide() on the liberal backend.
TEST(SequentialDeciders, CappedRunsReportExactlyTheCap) {
  for (const SequentialCase& c : sequential_deciders()) {
    const ExploreOutcome r = c.decide({.max_configs = 100});
    EXPECT_EQ(r.decision, Decision::Unknown) << c.name;
    EXPECT_EQ(r.reason, UnknownReason::ConfigCap) << c.name;
    EXPECT_EQ(r.num_configs, 100u) << c.name;
    EXPECT_EQ(r.num_bottom_sccs, 0u) << c.name;
  }

  DecisionRequest req;
  req.method = DecideMethod::ExplicitLiberal;
  req.budget.max_configs = 5;
  const DecisionReport r =
      decide(*make_exists_label(1, 2), make_cycle({0, 0, 1, 0, 1, 1}), req);
  EXPECT_EQ(r.unknown_reason, UnknownReason::ConfigCap);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_EQ(r.configs_explored, 5u);
}

// Every sequential decider stops at the deadline rather than running on to
// the cap (a deadline-blind population or overlay decider needs 0.3–1.4 s
// on a 4-core Xeon to reach it here).
TEST(SequentialDeciders, DeadlineStopsEveryDecider) {
  for (const SequentialCase& c : sequential_deciders()) {
    const auto start = std::chrono::steady_clock::now();
    const ExploreOutcome r =
        c.decide({.max_configs = 300'000, .deadline_ms = 20});
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_EQ(r.decision, Decision::Unknown) << c.name;
    EXPECT_EQ(r.reason, UnknownReason::Deadline) << c.name;
    EXPECT_LT(r.num_configs, 300'000u) << c.name;
    EXPECT_LT(elapsed, std::chrono::seconds(5)) << c.name;
  }
}

// Decisions and reachable-set sizes of the population, overlay and liberal
// deciders, which the differential tests do not pin. Each value was
// measured on the standalone BFS loops these deciders ran before sharing
// sequential_explore.hpp.
TEST(SequentialDeciders, FoldedDecidersKeepTheirReachableSets) {
  const auto maj = make_majority_protocol(0, 1, 2);
  const auto mod = make_mod_population_protocol(3, 1, 0, 2);
  const auto ex46 = make_example46_overlay();
  const Graph cycle10 = make_cycle({0, 1, 0, 1, 0, 0, 1, 0, 1, 0});
  const Graph cycle6 = make_cycle({0, 0, 1, 0, 1, 1});
  struct Pinned {
    std::string name;
    std::function<ExploreOutcome()> decide;
    Decision decision;
    std::size_t configs;
  };
  const std::vector<Pinned> table = {
      {"population majority cycle10",
       [&] { return decide_population(maj, cycle10); },
       Decision::Inconsistent, 841},
      {"population mod cycle10",
       [&] { return decide_population(mod, cycle10); },
       Decision::Inconsistent, 76'962},
      {"population-counted mod {12,10}",
       [&] { return decide_population_counted(mod, {12, 10}); },
       Decision::Reject, 17'307},
      {"population-counted majority {30,27}",
       [&] { return decide_population_counted(maj, {30, 27}); },
       Decision::Accept, 783},
      {"overlay-strong example46",
       [&] { return decide_overlay_strong(*ex46, cycle6); },
       Decision::Inconsistent, 24},
      {"overlay-weak example46",
       [&] { return decide_overlay_weak(*ex46, cycle6); },
       Decision::Inconsistent, 142},
      {"overlay-weak threshold",
       [&] {
         return decide_overlay_weak(*make_threshold_overlay(2, 0, 2), cycle6);
       },
       Decision::Accept, 28},
      {"overlay-strong-counted threshold {12,10}",
       [&] {
         return decide_overlay_strong_counted(*make_threshold_overlay(3, 0, 2),
                                              {12, 10});
       },
       Decision::Accept, 4},
      {"liberal threshold-daf cycle4",
       [&] {
         return outcome_of(decide_pseudo_stochastic_liberal(
             *make_threshold_daf(2, 0, 2), make_cycle({0, 1, 0, 1})));
       },
       Decision::Accept, 1'245},
  };
  for (const Pinned& p : table) {
    const ExploreOutcome r = p.decide();
    EXPECT_EQ(r.decision, p.decision) << p.name;
    EXPECT_EQ(r.reason, UnknownReason::None) << p.name;
    EXPECT_EQ(r.num_configs, p.configs) << p.name;
  }
}

TEST(ParallelExplicit, StatsAreReported) {
  const auto m = make_exists_label(1, 2);
  const Graph g = make_cycle({0, 0, 1, 0, 0, 0, 0, 0});
  ExploreStats stats;
  const auto r = decide_pseudo_stochastic_parallel(
      *m, g, {.max_configs = 2'000'000, .max_threads = 4}, &stats);
  ASSERT_NE(r.decision, Decision::Unknown);
  EXPECT_EQ(stats.configs, r.num_configs);
  EXPECT_GT(stats.edges, 0u);
  EXPECT_GT(stats.levels, 0u);
  EXPECT_GE(stats.threads, 1);
  EXPECT_GT(stats.shard_peak, 0u);
  EXPECT_GT(stats.frontier_peak, 0u);
}

}  // namespace
}  // namespace dawn
