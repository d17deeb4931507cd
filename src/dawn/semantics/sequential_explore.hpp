// The sequential explorer behind every reference decider.
//
// Each exact decider applies one rule (explicit_space.hpp derives it from
// Lemma B.12): a pseudo-stochastic run ends in a bottom SCC of the
// reachable configuration graph, whatever the selections are — exclusive,
// liberal, rendez-vous pairs (Definition B.19) or weak broadcasts
// (Definition 4.5). explore_sequential() is that rule written once, on the
// calling thread; a decider supplies only its successor function and its
// verdict. The frontier-parallel engine (parallel_explore.hpp) applies the
// same rule with the same expander shape, and the deciders built here are
// the references it is checked against.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "dawn/semantics/budget.hpp"
#include "dawn/semantics/decision.hpp"
#include "dawn/semantics/scc.hpp"
#include "dawn/util/check.hpp"
#include "dawn/util/interner.hpp"

namespace dawn {

// Explores the configuration graph from `initial` breadth-first and
// classifies its bottom SCCs.
//
//  * expand(config, emit) calls emit(succ) once per successor of `config`
//    (duplicates allowed, silent self-steps skipped), as the parallel
//    engine's expanders do. `config` and `succ` are only borrowed: the
//    explorer copies what it keeps.
//  * verdict_of(config) returns the configuration's uniform verdict
//    (Neutral if mixed). It is called only for configurations in bottom
//    SCCs.
//
// The budget is read the way the parallel engine reads it: more than
// budget.max_configs reachable configurations give Unknown/ConfigCap with
// num_configs == budget.max_configs, and an expired budget.deadline_ms
// gives Unknown/Deadline with the count reached, clamped to the cap.
// budget.max_threads is ignored.
template <typename ConfigT, typename Hash, typename Expand, typename VerdictOf>
ExploreOutcome explore_sequential(const ConfigT& initial, Expand&& expand,
                                  VerdictOf&& verdict_of,
                                  const ExploreBudget& budget) {
  Interner<ConfigT, Hash> configs;
  // BFS expands configurations in id order, so configuration `head`'s
  // successors are the CSR row appended while expanding it.
  CsrGraph graph;
  const DeadlineClock deadline(budget);
  ExploreOutcome out;

  configs.id(initial);
  for (std::size_t head = 0; head < configs.size(); ++head) {
    const bool capped = configs.size() > budget.max_configs;
    if (capped || deadline.expired()) {
      out.reason = capped ? UnknownReason::ConfigCap : UnknownReason::Deadline;
      out.num_configs = std::min(configs.size(), budget.max_configs);
      return out;
    }
    graph.offsets.push_back(static_cast<std::uint32_t>(graph.targets.size()));
    // Interned values never move, so `current` outlives the inserts below.
    const ConfigT& current = configs.value(static_cast<std::int32_t>(head));
    expand(current, [&](const ConfigT& next) {
      graph.targets.push_back(configs.id(next));
    });
    DAWN_CHECK_MSG(
        graph.targets.size() <= std::numeric_limits<std::uint32_t>::max(),
        "CSR offsets are 32-bit");
  }
  graph.offsets.push_back(static_cast<std::uint32_t>(graph.targets.size()));

  const BottomClassification cls =
      classify_bottom_sccs(graph, [&](std::size_t i) {
        return verdict_of(configs.value(static_cast<std::int32_t>(i)));
      });
  out.decision = cls.decision;
  out.num_configs = configs.size();
  out.num_bottom_sccs = cls.num_bottom_sccs;
  return out;
}

}  // namespace dawn
