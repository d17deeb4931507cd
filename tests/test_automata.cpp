#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dawn/automata/combinators.hpp"
#include "dawn/automata/memoized.hpp"
#include "dawn/automata/config.hpp"
#include "dawn/automata/machine.hpp"
#include "dawn/automata/neighbourhood.hpp"
#include "dawn/automata/run.hpp"
#include "dawn/protocols/threshold_daf.hpp"
#include "dawn/semantics/explicit_space.hpp"
#include "dawn/graph/generators.hpp"

namespace dawn {
namespace {

// A machine that counts (up to β) the neighbours in state 0 and stores the
// count as its own state. Handy for probing neighbourhood semantics.
std::shared_ptr<Machine> counter_machine(int beta) {
  FunctionMachine::Spec spec;
  spec.beta = beta;
  spec.num_labels = 2;
  spec.init = [](Label l) { return static_cast<State>(l == 0 ? 0 : 100); };
  spec.step = [](State, const Neighbourhood& n) {
    return static_cast<State>(200 + n.count(0));
  };
  spec.verdict = [](State) { return Verdict::Neutral; };
  return std::make_shared<FunctionMachine>(spec);
}

TEST(Neighbourhood, CountsCappedAtBeta) {
  const Graph g = make_star(1, {0, 0, 0, 0});  // centre label 1, 4 leaves 0
  const auto m = counter_machine(2);
  const Config c0 = initial_config(*m, g);
  const auto n = Neighbourhood::of(g, c0, 0, 2);
  EXPECT_EQ(n.count(0), 2);  // 4 leaves, capped at β = 2
  EXPECT_EQ(n.count(100), 0);
}

TEST(Neighbourhood, ExactBelowBeta) {
  const Graph g = make_star(1, {0, 0, 0});
  const auto m = counter_machine(5);
  const Config c0 = initial_config(*m, g);
  const auto n = Neighbourhood::of(g, c0, 0, 5);
  EXPECT_EQ(n.count(0), 3);
}

TEST(Neighbourhood, FromCountsAndQueries) {
  const std::pair<State, int> counts[] = {{3, 1}, {7, 5}};
  const auto n = Neighbourhood::from_counts(counts, 2);
  EXPECT_EQ(n.count(7), 2);  // capped
  EXPECT_EQ(n.count(3), 1);
  EXPECT_TRUE(n.any([](State s) { return s == 3; }));
  EXPECT_FALSE(n.any([](State s) { return s == 4; }));
  EXPECT_EQ(n.sum([](State) { return true; }), 3);
}

TEST(Neighbourhood, SortedCountsBuilderMatchesFromCounts) {
  // Rebuilt in place from sorted (state, count) pairs, with and without an
  // observer among them, it equals from_counts on the same counts.
  const std::pair<State, std::int64_t> counts[] = {{0, 1}, {2, 4}, {5, 2}};
  Neighbourhood nb = Neighbourhood::from_counts(
      std::vector<std::pair<State, int>>{{8, 1}, {9, 1}}, 1);
  Neighbourhood::from_sorted_counts_into(counts, 3, nb);
  const std::pair<State, int> all[] = {{0, 1}, {2, 4}, {5, 2}};
  EXPECT_EQ(nb, Neighbourhood::from_counts(all, 3));
  Neighbourhood::from_sorted_counts_into(counts, 3, nb, 0);
  const std::pair<State, int> without_0[] = {{2, 4}, {5, 2}};
  EXPECT_EQ(nb, Neighbourhood::from_counts(without_0, 3));
  Neighbourhood::from_sorted_counts_into(counts, 3, nb, 5);
  const std::pair<State, int> one_5_left[] = {{0, 1}, {2, 4}, {5, 1}};
  EXPECT_EQ(nb, Neighbourhood::from_counts(one_5_left, 3));
  // The observer must be among the counted agents, and states must rise.
  EXPECT_THROW(Neighbourhood::from_sorted_counts_into(counts, 3, nb, 1),
               std::logic_error);
  const std::pair<State, std::int64_t> unsorted[] = {{2, 1}, {1, 1}};
  EXPECT_THROW(Neighbourhood::from_sorted_counts_into(unsorted, 3, nb),
               std::logic_error);
}

TEST(Neighbourhood, NonCountingSeesOnlyPresence) {
  const std::pair<State, int> counts[] = {{1, 9}};
  const auto n = Neighbourhood::from_counts(counts, 1);
  EXPECT_EQ(n.count(1), 1);
}

TEST(Config, InitialUsesLabels) {
  const Graph g = make_line({0, 1, 0});
  const auto m = counter_machine(1);
  const Config c = initial_config(*m, g);
  EXPECT_EQ(c, (Config{0, 100, 0}));
}

TEST(Config, SimultaneousEvaluation) {
  // Both nodes of an edge step at once and see the OLD configuration.
  FunctionMachine::Spec spec;
  spec.beta = 1;
  spec.num_labels = 1;
  spec.init = [](Label) { return State{0}; };
  spec.step = [](State s, const Neighbourhood& n) {
    // Copy the neighbour's parity + 1.
    return static_cast<State>((n.entries().empty() ? s : n.entries()[0].first) +
                              1);
  };
  spec.verdict = [](State) { return Verdict::Neutral; };
  FunctionMachine m(spec);
  const Graph g = make_line({0, 0});
  Config c{0, 5};
  const Selection both{0, 1};
  const Config next = successor(m, g, c, both);
  EXPECT_EQ(next, (Config{6, 1}));  // each saw the other's old state
}

TEST(Config, IdleNodesKeepState) {
  const auto m = counter_machine(1);
  const Graph g = make_line({0, 0, 0});
  const Config c0 = initial_config(*m, g);
  const Selection only1{1};
  const Config next = successor(*m, g, c0, only1);
  EXPECT_EQ(next[0], c0[0]);
  EXPECT_EQ(next[2], c0[2]);
  EXPECT_NE(next[1], c0[1]);
}

TEST(Consensus, DetectsUniformVerdicts) {
  FunctionMachine::Spec spec;
  spec.beta = 1;
  spec.num_labels = 2;
  spec.init = [](Label l) { return static_cast<State>(l); };
  spec.step = [](State s, const Neighbourhood&) { return s; };
  spec.verdict = [](State s) {
    return s == 0 ? Verdict::Accept : Verdict::Reject;
  };
  FunctionMachine m(spec);
  const Graph acc = make_cycle({0, 0, 0});
  const Graph mix = make_cycle({0, 1, 0});
  EXPECT_EQ(consensus(m, initial_config(m, acc)), Verdict::Accept);
  EXPECT_EQ(consensus(m, initial_config(m, mix)), Verdict::Neutral);
  EXPECT_TRUE(is_accepting(m, initial_config(m, acc)));
  EXPECT_FALSE(is_rejecting(m, initial_config(m, acc)));
}

TEST(Run, TracksConsensusHolding) {
  FunctionMachine::Spec spec;
  spec.beta = 1;
  spec.num_labels = 1;
  spec.init = [](Label) { return State{0}; };
  spec.step = [](State s, const Neighbourhood&) {
    return static_cast<State>(s + 1);  // always moves
  };
  spec.verdict = [](State s) {
    return s >= 2 ? Verdict::Accept : Verdict::Neutral;
  };
  FunctionMachine m(spec);
  const Graph g = make_cycle({0, 0, 0});
  ::dawn::Run run(m, g);  // qualified: gtest has a private Test::Run
  const Selection all{0, 1, 2};
  run.apply(all);  // states 1
  EXPECT_EQ(run.current_consensus(), Verdict::Neutral);
  run.apply(all);  // states 2: accepting
  run.apply(all);
  run.apply(all);
  EXPECT_EQ(run.current_consensus(), Verdict::Accept);
  EXPECT_EQ(run.consensus_held_for(), 2u);
  EXPECT_EQ(run.steps(), 4u);
}

TEST(Combinators, ProjectNeighbourhoodMergesSaturatedCounts) {
  // Two states mapping to the same image: counts merge and saturate.
  const std::pair<State, int> counts[] = {{10, 2}, {11, 2}};
  const auto n = Neighbourhood::from_counts(counts, 3);
  const auto projected =
      project_neighbourhood(n, [](State) { return State{5}; });
  EXPECT_EQ(projected.count(5), 3);  // 2 + 2 capped at β = 3
}

TEST(Combinators, TaggedMachineKeepsTagUntouched) {
  auto inner = counter_machine(2);
  TaggedMachine::Spec spec;
  spec.inner = inner;
  spec.num_labels = 2;
  spec.init = [](Label l) {
    return std::make_pair(State{0}, static_cast<State>(l + 50));
  };
  TaggedMachine m(spec);
  const Graph g = make_line({0, 1, 0});
  Config c = initial_config(m, g);
  const Selection all{0, 1, 2};
  const Config next = successor(m, g, c, all);
  for (NodeId v = 0; v < 3; ++v) {
    const auto [in, tag] = m.unpack(next[static_cast<std::size_t>(v)]);
    EXPECT_EQ(tag, g.label(v) + 50);  // tag preserved
    EXPECT_GE(in, 200);               // inner stepped
  }
}

TEST(Combinators, TaggedMachineProjectsInnerNeighbourhood) {
  // Two neighbours with equal inner state but different tags must be seen
  // as TWO inner-state neighbours by the inner machine.
  auto inner = counter_machine(2);
  TaggedMachine::Spec spec;
  spec.inner = inner;
  spec.num_labels = 2;
  spec.init = [](Label l) {
    return std::make_pair(State{0}, static_cast<State>(l));
  };
  TaggedMachine m(spec);
  const Graph g = make_star(1, {0, 1});  // centre + 2 leaves w/ different tags
  Config c = initial_config(m, g);
  // Wait: star labels — centre has label 1 → tag 1, leaves labels 0,1.
  const Selection centre{0};
  const Config next = successor(m, g, c, centre);
  const auto [in, tag] = m.unpack(next[0]);
  EXPECT_EQ(in, 202);  // centre saw 2 neighbours in inner state 0
  EXPECT_EQ(tag, 1);
}

TEST(Combinators, RememberLastTracksCommitted) {
  // Inner machine: states 0 (committed) and 1 (intermediate, committed()->0).
  struct Flip : Machine {
    int beta() const override { return 1; }
    int num_labels() const override { return 1; }
    State init(Label) const override { return 0; }
    State step(State s, const Neighbourhood&) const override {
      return s == 0 ? 1 : 2;  // 0 -> 1 (intermediate) -> 2 (committed)
    }
    Verdict verdict(State s) const override {
      return s == 2 ? Verdict::Accept : Verdict::Reject;
    }
    State committed(State s) const override { return s == 1 ? 0 : s; }
  };
  auto inner = std::make_shared<Flip>();
  RememberLastMachine m(inner);
  const Graph g = make_cycle({0, 0, 0});
  Config c = initial_config(m, g);
  EXPECT_EQ(m.last_of(c[0]), 0);
  const Selection n0{0};
  c = successor(m, g, c, n0);
  EXPECT_EQ(m.current_of(c[0]), 1);
  EXPECT_EQ(m.last_of(c[0]), 0);  // intermediate: last unchanged
  EXPECT_EQ(m.verdict(c[0]), Verdict::Reject);
  c = successor(m, g, c, n0);
  EXPECT_EQ(m.current_of(c[0]), 2);
  EXPECT_EQ(m.last_of(c[0]), 2);  // committed: last updated
  EXPECT_EQ(m.verdict(c[0]), Verdict::Accept);
}

TEST(Memoized, CachesAndAgreesWithInner) {
  auto inner = counter_machine(2);
  MemoizedMachine memo(inner);
  const Graph g = make_star(1, {0, 0, 0});
  const Config c0 = initial_config(memo, g);
  const auto n = Neighbourhood::of(g, c0, 0, 2);
  const State a = memo.step(c0[0], n);
  const State b = memo.step(c0[0], n);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, inner->step(c0[0], n));
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.verdict(a), inner->verdict(a));
}

TEST(Memoized, DistinguishesNeighbourhoods) {
  auto inner = counter_machine(2);
  MemoizedMachine memo(inner);
  const std::pair<State, int> one[] = {{0, 1}};
  const std::pair<State, int> two[] = {{0, 2}};
  const State a = memo.step(0, Neighbourhood::from_counts(one, 2));
  const State b = memo.step(0, Neighbourhood::from_counts(two, 2));
  EXPECT_EQ(a, 201);
  EXPECT_EQ(b, 202);
}

TEST(Combinators, RememberLastIsLemma44OnCompiledMachines) {
  // Lemma 4.4's P'': wrapping a compiled simulation so verdicts come from
  // the last committed state decides the same property. (Our compiled
  // machines carry committed projections already; the wrapper must agree.)
  const auto compiled = make_threshold_daf(2, 0, 2);
  const auto wrapped = std::make_shared<RememberLastMachine>(compiled);
  for (const Graph& g : {make_cycle({0, 0, 1}), make_cycle({0, 1, 1})}) {
    const auto a = decide_pseudo_stochastic(*compiled, g,
                                            {.max_configs = 4'000'000});
    const auto b = decide_pseudo_stochastic(*wrapped, g,
                                            {.max_configs = 8'000'000});
    ASSERT_NE(b.decision, Decision::Unknown);
    EXPECT_EQ(a.decision, b.decision) << g.to_dot();
  }
}

TEST(Combinators, NegateSwapsVerdicts) {
  FunctionMachine::Spec spec;
  spec.beta = 1;
  spec.num_labels = 1;
  spec.init = [](Label) { return State{0}; };
  spec.step = [](State s, const Neighbourhood&) { return s; };
  spec.verdict = [](State) { return Verdict::Accept; };
  auto m = negate(std::make_shared<FunctionMachine>(spec));
  EXPECT_EQ(m->verdict(0), Verdict::Reject);
}

}  // namespace
}  // namespace dawn
