// Counted-configuration semantics on star graphs.
//
// Stars are the graph family of the Lemma 3.5 cutoff argument: a
// configuration is determined by the centre's state plus the number of
// leaves in each state, because every leaf sees exactly the centre and the
// centre sees exactly the leaves. Under exclusive selection the counted
// dynamics below is the quotient of the explicit dynamics by leaf
// permutation.
//
// Besides the usual bottom-SCC decider this module exposes the *stable
// rejection / stable acceptance* tests that the proof manipulates: C is
// stably rejecting iff every configuration reachable from C is rejecting.
// The symbolic WSTS engine (symbolic/) computes the same classification by
// backward reachability; the two are cross-checked in the tests.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "dawn/automata/machine.hpp"
#include "dawn/graph/graph.hpp"
#include "dawn/semantics/budget.hpp"
#include "dawn/semantics/decision.hpp"

namespace dawn {

struct StarConfig {
  State centre = 0;
  // Sorted (state, count) pairs with count >= 1.
  std::vector<std::pair<State, std::int64_t>> leaves;

  bool operator==(const StarConfig&) const = default;
};

struct StarConfigHash {
  std::size_t operator()(const StarConfig& c) const;
};

// Initial configuration of the star with the given centre/leaf labels.
StarConfig initial_star_config(const Machine& machine, Label centre,
                               const std::vector<Label>& leaves);

// Verdict of the configuration (Neutral if mixed).
Verdict star_consensus(const Machine& machine, const StarConfig& config);

// Decides the machine on the star under pseudo-stochastic fairness.
ExploreOutcome decide_star_pseudo_stochastic(const Machine& machine,
                                             Label centre,
                                             const std::vector<Label>& leaves,
                                             const ExploreBudget& opts = {});

struct ExploreStats;

// Frontier-parallel sharded variant (semantics/parallel_explore.hpp); same
// contract as decide_pseudo_stochastic_parallel in explicit_space.hpp.
ExploreOutcome decide_star_pseudo_stochastic_parallel(
    const Machine& machine, Label centre, const std::vector<Label>& leaves,
    const ExploreBudget& b = {}, ExploreStats* stats = nullptr);

// C is stably rejecting iff every configuration reachable from C is
// rejecting (the proof's key notion). Returns nullopt on budget exhaustion.
std::optional<bool> is_stably_rejecting(const Machine& machine,
                                        const StarConfig& config,
                                        std::size_t max_configs = 2'000'000);
std::optional<bool> is_stably_accepting(const Machine& machine,
                                        const StarConfig& config,
                                        std::size_t max_configs = 2'000'000);

}  // namespace dawn
