// Direct execution and exact decision of graph population protocols.
//
// The abstract semantics (Definition B.19): selections are ordered pairs of
// adjacent nodes; fairness is pseudo-stochastic. Exact decision is again
// bottom-SCC classification of the reachable configuration graph, either
// explicit (arbitrary graphs) or counted (cliques — the classic population
// protocol setting, where any two agents may interact).
#pragma once

#include <cstdint>

#include "dawn/extensions/population.hpp"
#include "dawn/graph/graph.hpp"
#include "dawn/semantics/clique_counted.hpp"
#include "dawn/semantics/decision.hpp"
#include "dawn/util/rng.hpp"

namespace dawn {

// Both exact deciders run on semantics/sequential_explore.hpp: one thread,
// max_configs and deadline_ms honoured, a capped count clamped to the cap.

// Exact decision on an explicit graph.
ExploreOutcome decide_population(const GraphPopulationProtocol& p,
                                 const Graph& g, const ExploreBudget& o = {});

// Exact decision on the clique with label count L (counted configurations).
ExploreOutcome decide_population_counted(const GraphPopulationProtocol& p,
                                         const LabelCount& L,
                                         const ExploreBudget& o = {});

struct PopulationSimOptions {
  std::uint64_t max_steps = 500'000;
  std::uint64_t stable_window = 20'000;
};

struct PopulationSimResult {
  bool converged = false;
  Verdict verdict = Verdict::Neutral;
  std::uint64_t total_steps = 0;
};

// Randomised fair execution: uniformly random ordered adjacent pair each
// step (statistical proxy for pseudo-stochastic fairness).
PopulationSimResult simulate_population(const GraphPopulationProtocol& p,
                                        const Graph& g, Rng& rng,
                                        const PopulationSimOptions& o = {});

}  // namespace dawn
