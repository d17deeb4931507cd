// Symmetry reduction (semantics/symmetry): detected group shapes per graph
// family, automorphism validity, canonical-form invariants, and — the part
// that matters — reduced explorations deciding exactly like the unreduced
// reference while storing several times fewer configurations.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dawn/graph/generators.hpp"
#include "dawn/protocols/exists_label.hpp"
#include "dawn/protocols/halting_flood.hpp"
#include "dawn/protocols/threshold_daf.hpp"
#include "dawn/semantics/decision.hpp"
#include "dawn/semantics/explicit_space.hpp"
#include "dawn/semantics/parallel_explore.hpp"
#include "dawn/semantics/symmetry.hpp"
#include "dawn/util/rng.hpp"

namespace dawn {
namespace {

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

// Steps unconditionally (never silent), ignoring neighbours: from a uniform
// initial configuration the reachable space is the full 3^n product — the
// worst case for the plain engine and the best case for orbit reduction.
std::shared_ptr<Machine> ticker() {
  FunctionMachine::Spec spec;
  spec.beta = 1;
  spec.num_labels = 2;
  spec.num_states = 3;
  spec.init = [](Label) { return State{0}; };
  spec.step = [](State s, const Neighbourhood&) {
    return static_cast<State>((s + 1) % 3);
  };
  spec.verdict = [](State s) {
    return s == 0 ? Verdict::Accept : Verdict::Reject;
  };
  return std::make_shared<FunctionMachine>(spec);
}

std::vector<std::pair<std::string, std::shared_ptr<Machine>>> machines() {
  return {
      {"exists", make_exists_label(1, 2)},
      {"halting-flood", make_halting_flood(1, 2)},
      {"threshold-daf", make_threshold_daf(2, 0, 2)},
      {"buggy-flood", buggy_flooding()},
  };
}

Config apply_perm(const std::vector<NodeId>& perm, const Config& c) {
  Config out(c.size());
  for (std::size_t v = 0; v < c.size(); ++v) {
    out[static_cast<std::size_t>(perm[v])] = c[v];
  }
  return out;
}

TEST(SymmetryDetect, UniformCliqueIsOneSortableClass) {
  const SymmetryGroup grp = compute_symmetry(make_clique({0, 0, 0, 0, 0}));
  ASSERT_EQ(grp.sortable_classes.size(), 1u);
  EXPECT_EQ(grp.sortable_classes[0].size(), 5u);
  EXPECT_TRUE(grp.permutations.empty());
  validate_symmetry_group(make_clique({0, 0, 0, 0, 0}), grp);
}

TEST(SymmetryDetect, LabelledCliqueSplitsByLabel) {
  const Graph g = make_clique({0, 1, 0, 1, 0});
  const SymmetryGroup grp = compute_symmetry(g);
  ASSERT_EQ(grp.sortable_classes.size(), 2u);
  std::size_t total = 0;
  for (const auto& cls : grp.sortable_classes) total += cls.size();
  EXPECT_EQ(total, 5u);
  validate_symmetry_group(g, grp);
}

TEST(SymmetryDetect, StarLeavesAreInterchangeable) {
  const Graph g = make_star(1, {0, 0, 0, 0});
  const SymmetryGroup grp = compute_symmetry(g);
  ASSERT_EQ(grp.sortable_classes.size(), 1u);
  EXPECT_EQ(grp.sortable_classes[0].size(), 4u);  // leaves, not the hub
  for (const NodeId v : grp.sortable_classes[0]) EXPECT_NE(v, 0);
  validate_symmetry_group(g, grp);
}

TEST(SymmetryDetect, UniformCycleGetsTheDihedralGroup) {
  const Graph g = make_cycle(std::vector<Label>(6, 0));
  const SymmetryGroup grp = compute_symmetry(g);
  EXPECT_TRUE(grp.sortable_classes.empty());
  // Dihedral group of order 2n, identity omitted from the list.
  ASSERT_EQ(grp.permutations.size(), 11u);
  for (const auto& perm : grp.permutations) {
    EXPECT_TRUE(is_automorphism(g, perm));
  }
  validate_symmetry_group(g, grp);
}

TEST(SymmetryDetect, LabelledCycleKeepsOnlyLabelPreservingElements) {
  // Labels 0,1,0,1,...: rotations by even offsets and half the reflections
  // survive — group order n (so n-1 non-identity elements on n=6).
  const Graph g = make_cycle({0, 1, 0, 1, 0, 1});
  const SymmetryGroup grp = compute_symmetry(g);
  EXPECT_TRUE(grp.sortable_classes.empty());
  EXPECT_EQ(grp.permutations.size(), 5u);
  validate_symmetry_group(g, grp);
}

TEST(SymmetryDetect, PalindromicLineGetsItsReflection) {
  const Graph g = make_line({0, 1, 2, 1, 0});
  const SymmetryGroup grp = compute_symmetry(g);
  ASSERT_EQ(grp.permutations.size(), 1u);
  EXPECT_TRUE(is_automorphism(g, grp.permutations[0]));
  // Non-palindromic labels: no symmetry at all.
  EXPECT_TRUE(compute_symmetry(make_line({0, 1, 2, 0, 0})).trivial());
}

TEST(SymmetryDetect, AsymmetricGraphIsTrivial) {
  Rng rng(3);
  const Graph g = make_random_connected({0, 1, 2, 3, 4, 5}, 3, rng);
  // Distinct labels kill every candidate automorphism.
  EXPECT_TRUE(compute_symmetry(g).trivial());
}

TEST(SymmetryGrid, ClosedFormGroupsAreAutomorphisms) {
  for (const bool torus : {false, true}) {
    const int w = 3, h = 3;
    const std::vector<Label> labels(static_cast<std::size_t>(w * h), 0);
    const Graph g = make_grid(w, h, labels, torus);
    const SymmetryGroup grp = grid_symmetry(w, h, torus, labels);
    EXPECT_FALSE(grp.trivial());
    for (const auto& perm : grp.permutations) {
      EXPECT_TRUE(is_automorphism(g, perm)) << "torus=" << torus;
    }
    validate_symmetry_group(g, grp);
    // Square uniform grid: the full dihedral group of the square (order 8);
    // the torus adds the 9 translations (order 72). Identity omitted.
    EXPECT_EQ(grp.permutations.size(), torus ? 71u : 7u);
  }
}

TEST(SymmetryGrid, RectangularGridSkipsTransposes) {
  const std::vector<Label> labels(6, 0);
  const Graph g = make_grid(3, 2, labels);
  const SymmetryGroup grp = grid_symmetry(3, 2, false, labels);
  EXPECT_EQ(grp.permutations.size(), 3u);  // flips only: order-4 group
  for (const auto& perm : grp.permutations) {
    EXPECT_TRUE(is_automorphism(g, perm));
  }
}

TEST(SymmetryCanon, IdempotentInvariantAndInOrbit) {
  Rng rng(5);
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"clique", make_clique({0, 0, 0, 0, 0})},
      {"cycle", make_cycle(std::vector<Label>(6, 0))},
      {"line", make_line({0, 1, 1, 0})},
      {"star", make_star(1, {0, 0, 0})},
  };
  for (const auto& [name, g] : graphs) {
    const SymmetryGroup grp = compute_symmetry(g);
    ASSERT_FALSE(grp.trivial()) << name;
    CanonScratch scratch;
    for (int trial = 0; trial < 100; ++trial) {
      Config c(static_cast<std::size_t>(g.n()));
      for (auto& s : c) s = static_cast<State>(rng.uniform(0, 3));
      const Config original = c;
      canonicalize(grp, c, scratch);
      // Idempotent.
      Config again = c;
      canonicalize(grp, again, scratch);
      EXPECT_EQ(again, c) << name;
      // Invariant across the orbit: canonicalising any permuted image of
      // the original lands on the same representative.
      if (!grp.permutations.empty()) {
        for (const auto& perm : grp.permutations) {
          Config image = apply_perm(perm, original);
          canonicalize(grp, image, scratch);
          EXPECT_EQ(image, c) << name;
        }
        // And the representative is a member of the orbit: it is either the
        // original or one of its images.
        bool in_orbit = c == original;
        for (const auto& perm : grp.permutations) {
          if (apply_perm(perm, original) == c) in_orbit = true;
        }
        EXPECT_TRUE(in_orbit) << name;
      } else {
        // Sortable classes: same multiset per class, sorted within.
        for (const auto& cls : grp.sortable_classes) {
          for (std::size_t i = 1; i < cls.size(); ++i) {
            EXPECT_LE(c[static_cast<std::size_t>(cls[i - 1])],
                      c[static_cast<std::size_t>(cls[i])])
                << name;
          }
        }
      }
    }
  }
}

TEST(SymmetryReduce, DecisionMatchesUnreducedEverywhere) {
  Rng rng(9);
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"clique", make_clique({0, 1, 0, 0, 1, 0})},
      {"cycle", make_cycle({0, 1, 0, 0, 1, 0})},
      {"uniform-cycle", make_cycle(std::vector<Label>(7, 0))},
      {"line", make_line({0, 1, 1, 0})},
      {"star", make_star(0, {1, 0, 0, 1, 0})},
      {"grid", make_grid(2, 3, {0, 1, 0, 0, 1, 0})},
      {"random", make_random_connected({0, 1, 0, 0, 1, 0}, 3, rng)},
  };
  for (const auto& [mname, m] : machines()) {
    for (const auto& [gname, g] : graphs) {
      const ExplicitResult plain = decide_pseudo_stochastic_parallel(
          *m, g, {.max_configs = 500'000, .max_threads = 2});
      ASSERT_NE(plain.decision, Decision::Unknown) << mname << "/" << gname;
      const ExplicitResult reduced = decide_pseudo_stochastic_parallel(
          *m, g,
          {.max_configs = 500'000, .max_threads = 2, .use_symmetry = true});
      EXPECT_EQ(reduced.decision, plain.decision) << mname << "/" << gname;
      EXPECT_LE(reduced.num_configs, plain.num_configs)
          << mname << "/" << gname;
      if (!reduced.symmetry_reduced) {
        EXPECT_EQ(reduced.num_configs, plain.num_configs)
            << mname << "/" << gname;
      }
    }
  }
}

TEST(SymmetryReduce, UniformCycleShrinksAtLeastFourfold) {
  const auto m = ticker();
  const Graph g = make_cycle(std::vector<Label>(9, 0));
  const ExplicitResult plain =
      decide_pseudo_stochastic_parallel(*m, g, {.max_configs = 500'000});
  ASSERT_NE(plain.decision, Decision::Unknown);
  const ExplicitResult reduced = decide_pseudo_stochastic_parallel(
      *m, g, {.max_configs = 500'000, .use_symmetry = true});
  ASSERT_TRUE(reduced.symmetry_reduced);
  EXPECT_EQ(reduced.decision, plain.decision);
  EXPECT_GE(plain.num_configs, 4 * reduced.num_configs)
      << "plain=" << plain.num_configs << " reduced=" << reduced.num_configs;
}

TEST(SymmetryReduce, UniformCliqueShrinksAtLeastFourfold) {
  const auto m = ticker();
  const Graph g = make_clique(std::vector<Label>(8, 0));
  const ExplicitResult plain =
      decide_pseudo_stochastic_parallel(*m, g, {.max_configs = 500'000});
  ASSERT_NE(plain.decision, Decision::Unknown);
  const ExplicitResult reduced = decide_pseudo_stochastic_parallel(
      *m, g, {.max_configs = 500'000, .use_symmetry = true});
  ASSERT_TRUE(reduced.symmetry_reduced);
  EXPECT_EQ(reduced.decision, plain.decision);
  EXPECT_GE(plain.num_configs, 4 * reduced.num_configs);
}

TEST(SymmetryReduce, GridOverrideGroupIsValidatedAndUsed) {
  const auto m = make_exists_label(1, 2);
  const std::vector<Label> labels = {0, 0, 0, 0, 1, 0, 0, 0, 0};
  const Graph g = make_grid(3, 3, labels);
  const SymmetryGroup grp = grid_symmetry(3, 3, false, labels);
  ASSERT_FALSE(grp.trivial());  // the centre 1 is fixed by every motion
  const ExplicitResult plain =
      decide_pseudo_stochastic_parallel(*m, g, {.max_configs = 500'000});
  const ExplicitResult reduced = decide_pseudo_stochastic_parallel(
      *m, g, {.max_configs = 500'000, .use_symmetry = true}, nullptr, &grp);
  ASSERT_TRUE(reduced.symmetry_reduced);
  EXPECT_EQ(reduced.decision, plain.decision);
  EXPECT_LE(reduced.num_configs, plain.num_configs);
}

TEST(SymmetryReduce, ReducedReportsAreThreadCountInvariant) {
  const auto m = ticker();
  const Graph g = make_cycle(std::vector<Label>(8, 0));
  ExploreBudget base = {.max_configs = 500'000, .max_threads = 1,
                        .use_symmetry = true};
  const ExplicitResult one = decide_pseudo_stochastic_parallel(*m, g, base);
  for (const int threads : {2, 8}) {
    ExploreBudget b = base;
    b.max_threads = threads;
    const ExplicitResult r = decide_pseudo_stochastic_parallel(*m, g, b);
    EXPECT_EQ(r.decision, one.decision) << threads;
    EXPECT_EQ(r.reason, one.reason) << threads;
    EXPECT_EQ(r.num_configs, one.num_configs) << threads;
    EXPECT_EQ(r.num_bottom_sccs, one.num_bottom_sccs) << threads;
  }
}

TEST(SymmetryReduce, FacadeReportsFlagsAndSurvivesCrossCheck) {
  const auto m = ticker();
  const Graph g = make_cycle(std::vector<Label>(7, 0));
  DecisionRequest req;
  req.method = DecideMethod::Explicit;  // Auto would route cliques elsewhere
  req.budget = {.max_configs = 500'000, .max_threads = 2,
                .use_symmetry = true};
  req.cross_check = true;
  const DecisionReport r = decide(*m, g, req);
  EXPECT_NE(r.unknown_reason, UnknownReason::CrossCheck);
  EXPECT_TRUE(r.symmetry_reduced);
  EXPECT_TRUE(r.packed_store);
  DecisionRequest plain_req = req;
  plain_req.budget.use_symmetry = false;
  const DecisionReport plain = decide(*m, g, plain_req);
  EXPECT_FALSE(plain.symmetry_reduced);
  EXPECT_TRUE(plain.packed_store);
  EXPECT_EQ(r.decision, plain.decision);
}

}  // namespace
}  // namespace dawn
