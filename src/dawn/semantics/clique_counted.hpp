// Counted-configuration semantics on cliques.
//
// On a clique, a configuration is determined up to isomorphism by the number
// of agents in each state — the observation behind the paper's NL upper
// bound for DAF (Lemma 5.1: "a configuration ... can be stored using
// logarithmic space"). For labelling properties φ we have φ(G) = φ(Ĝ) for
// the clique Ĝ with the same label count, so deciding on cliques decides the
// labelling property.
//
// This decider mirrors explicit_space.hpp (bottom-SCC classification of the
// reachable counted-configuration graph under exclusive selection) but
// scales to populations of hundreds of agents when the reachable state
// support stays small — the regime of all the paper's protocols.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "dawn/automata/machine.hpp"
#include "dawn/graph/graph.hpp"
#include "dawn/semantics/budget.hpp"
#include "dawn/semantics/decision.hpp"
#include "dawn/util/hash.hpp"

namespace dawn {

// Sorted (state, count) pairs with count >= 1.
using CountedConfig = std::vector<std::pair<State, std::int64_t>>;

struct CountedConfigHash {
  std::size_t operator()(const CountedConfig& c) const {
    std::size_t seed = c.size();
    for (auto [q, n] : c) {
      hash_combine(seed, static_cast<std::uint64_t>(q));
      hash_combine(seed, static_cast<std::uint64_t>(n));
    }
    return seed;
  }
};

// Adds `delta` agents in state `q`, keeping the pairs sorted and dropping
// a pair whose count reaches 0. Checks that no count goes negative.
void add_count(CountedConfig& c, State q, std::int64_t delta);

// The initial counted configuration for the clique with label count `L`.
CountedConfig initial_counted_config(const Machine& machine,
                                     const LabelCount& L);

// Writes into `out`, reusing its storage, the configuration `c` with one
// agent moved from state `from` (listed in `c`) to state `to` != `from`.
void move_agent_into(const CountedConfig& c, State from, State to,
                     CountedConfig& out);

// One exclusive step: an agent in state `q` (count must be >= 1) evaluates δ
// against the remaining agents, with `nb` as scratch. If its state changes,
// writes the successor into `out` and returns true; a silent step returns
// false and leaves `out` as it was. Neither allocates once their storage
// has grown to the configuration's size.
bool counted_successor_into(const Machine& machine,
                            const CountedConfig& config, State q,
                            Neighbourhood& nb, CountedConfig& out);

// counted_successor_into as a value: the successor counted configuration,
// or a copy of `config` when the step is silent.
CountedConfig counted_successor(const Machine& machine,
                                const CountedConfig& config, State q);

// Decides the machine on the clique with label count `L` under
// pseudo-stochastic fairness.
ExploreOutcome decide_clique_pseudo_stochastic(const Machine& machine,
                                               const LabelCount& L,
                                               const ExploreBudget& opts = {});

struct ExploreStats;

// Frontier-parallel sharded variant (semantics/parallel_explore.hpp); same
// contract as decide_pseudo_stochastic_parallel in explicit_space.hpp:
// thread-count-invariant results, capped counts clamped to the budget,
// non-thread-safe machines clamped to one worker.
ExploreOutcome decide_clique_pseudo_stochastic_parallel(
    const Machine& machine, const LabelCount& L, const ExploreBudget& b = {},
    ExploreStats* stats = nullptr);

}  // namespace dawn
