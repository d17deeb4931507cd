// Exact pseudo-stochastic semantics by explicit-state exploration.
//
// On a finite configuration space, a pseudo-stochastic run visits infinitely
// often exactly the configurations of one *bottom* SCC of the reachability
// graph (the argument of Lemma B.12: every configuration reachable
// infinitely often is reached infinitely often, so the infinitely-visited
// set is closed under successors and mutually reachable). Hence:
//
//   * the automaton accepts G   iff every reachable bottom SCC is uniformly
//     accepting,
//   * rejects G                 iff every reachable bottom SCC is uniformly
//     rejecting,
//   * violates consistency      otherwise (some fair run does not stabilise
//     to the same consensus as the others).
//
// Exploration uses exclusive selection (one node per step); by the main
// result of [16] (Esparza & Reiter, CONCUR 2020) the selection mode does not
// affect the decision power, and all of the paper's constructions are stated
// for exclusive selection.
#pragma once

#include <cstddef>

#include "dawn/automata/machine.hpp"
#include "dawn/graph/graph.hpp"
#include "dawn/semantics/budget.hpp"
#include "dawn/semantics/decision.hpp"

namespace dawn {

struct ExplicitResult {
  Decision decision = Decision::Unknown;
  // Why decision == Unknown (budget cap vs deadline); None otherwise. Capped
  // runs used to be indistinguishable from genuine unknowns.
  UnknownReason reason = UnknownReason::None;
  std::size_t num_configs = 0;   // configurations explored
  std::size_t num_bottom_sccs = 0;
  // Whether the parallel engine interned canonical orbit representatives
  // (budget.use_symmetry and the graph had a nontrivial automorphism group)
  // and whether the bit-packed store was used (exactly when the machine
  // advertises num_states()). When symmetry_reduced is set,
  // num_configs / num_bottom_sccs count orbits, not raw configurations —
  // the decision is unchanged (docs/SYMMETRY.md). Always false for the
  // sequential decider.
  bool symmetry_reduced = false;
  bool packed_store = false;
  // Whether the engine ran in spill mode, out of core on the packed store
  // (budget.max_store_bytes > 0, budget.spill_dir set, and the spill file
  // opened). When the spill dir is unusable the engine warns and runs in
  // memory instead, leaving this false. tiered_store implies packed_store.
  bool tiered_store = false;
};

ExplicitResult decide_pseudo_stochastic(const Machine& machine, const Graph& g,
                                        const ExploreBudget& opts = {});

struct ExploreStats;
struct SymmetryGroup;

// The frontier-parallel sharded engine (semantics/parallel_explore.hpp) on
// the same exclusive-selection semantics. The result is bit-identical for
// every budget.max_threads, and matches decide_pseudo_stochastic exactly on
// every run that does not hit the deadline: capped runs of both report
// Unknown/ConfigCap with num_configs clamped to the cap. The sequential
// decider above stays as the differential reference. Machines without
// parallel_step_safe() are clamped to one worker.
//
// The engine interns into the bit-packed store (semantics/packed_config.hpp)
// whenever the machine advertises num_states(), and into the vector store
// otherwise; the packed store in spill mode takes it out of core (see
// ExploreBudget::max_store_bytes). budget.use_symmetry opts into
// orbit-canonical interning (semantics/symmetry.hpp). With symmetry on, the
// engine quotients the configuration graph: the decision still matches the
// sequential reference, but num_configs / num_bottom_sccs count orbits.
// `symmetry` overrides the detected group (e.g. the closed-form
// grid_symmetry(); validated before use); nullptr means compute_symmetry(g).
ExplicitResult decide_pseudo_stochastic_parallel(
    const Machine& machine, const Graph& g, const ExploreBudget& b = {},
    ExploreStats* stats = nullptr, const SymmetryGroup* symmetry = nullptr);

// The same decision under LIBERAL selection: every nonempty subset of nodes
// is a permitted selection, evaluated simultaneously. Exponential in |V| per
// configuration — for tiny graphs only. By [16] the decision power is
// selection-independent; this decider lets the repository check that
// theorem empirically on concrete automata (consistent automata must get
// the same verdict from both deciders).
ExplicitResult decide_pseudo_stochastic_liberal(const Machine& machine,
                                                const Graph& g,
                                                const ExploreBudget& o = {});

}  // namespace dawn
