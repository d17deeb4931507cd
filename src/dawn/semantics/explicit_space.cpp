#include "dawn/semantics/explicit_space.hpp"

#include <cstdint>
#include <cstdio>
#include <optional>
#include <vector>

#include "dawn/automata/config.hpp"
#include "dawn/semantics/explicit_expand.hpp"
#include "dawn/semantics/packed_config.hpp"
#include "dawn/semantics/parallel_explore.hpp"
#include "dawn/semantics/sequential_explore.hpp"
#include "dawn/semantics/symmetry.hpp"
#include "dawn/util/check.hpp"
#include "dawn/util/hash.hpp"

namespace dawn {
namespace {

ExplicitResult explicit_result(const ExploreOutcome& out) {
  return {out.decision, out.reason, out.num_configs, out.num_bottom_sccs};
}

}  // namespace

ExplicitResult decide_pseudo_stochastic(const Machine& machine, const Graph& g,
                                        const ExploreBudget& budget) {
  // Its own successor loop rather than ExplicitExpander, so that the
  // explore-par differential compares two enumerations. Silent self-steps
  // are not edges: a frozen configuration is then a singleton bottom SCC,
  // which the classification treats as "stays here forever" — exactly its
  // behaviour under any schedule.
  Neighbourhood nb;
  Config next;
  const auto expand = [&](const Config& current, auto&& emit) {
    next = current;
    for (NodeId v = 0; v < g.n(); ++v) {
      const auto vu = static_cast<std::size_t>(v);
      Neighbourhood::of_into(g, current, v, machine.beta(), nb);
      const State s = machine.step(current[vu], nb);
      if (s == current[vu]) continue;  // silent
      next[vu] = s;
      emit(next);
      next[vu] = current[vu];
    }
  };
  return explicit_result(explore_sequential<Config, VectorHash<State>>(
      initial_config(machine, g), expand,
      [&](const Config& c) { return consensus(machine, c); }, budget));
}

ExplicitResult decide_pseudo_stochastic_parallel(const Machine& machine,
                                                 const Graph& g,
                                                 const ExploreBudget& budget,
                                                 ExploreStats* stats,
                                                 const SymmetryGroup* symmetry) {
  ExploreBudget clamped = budget;
  clamped.max_threads = explore_threads(machine, budget);

  // Resolve the symmetry group: a caller-supplied override (validated — it
  // typically comes from closed-form knowledge like grid_symmetry()) or the
  // group detected from the graph. A trivial group degrades to the plain
  // unreduced exploration.
  SymmetryGroup detected;
  const SymmetryGroup* grp = nullptr;
  if (budget.use_symmetry) {
    if (symmetry != nullptr) {
      validate_symmetry_group(g, *symmetry);
      grp = symmetry;
    } else {
      detected = compute_symmetry(g);
      grp = &detected;
    }
    if (grp->trivial()) grp = nullptr;
  }

  // The store follows the machine: any machine that advertises |Q| packs
  // (PackedCodec needs the bound up front); lazily-interning ones, the
  // paper's compiled constructions among them, use the vector store. The
  // packed store spills, and the engine runs out of core, only when the
  // budget names both a byte cap and a spill directory.
  const std::optional<int> nstates = machine.num_states();
  const bool packed = nstates.has_value();

  const auto explore = [&](auto& store) {
    return with_explicit_expander(
        machine, g, grp,
        [&](const Config& initial, auto& make_expander, auto& verdict_of) {
          return explore_and_classify_in(store, initial, make_expander,
                                         verdict_of, clamped, stats);
        });
  };

  ExploreOutcome out;
  bool tiered_ran = false;
  if (packed) {
    PackedConfigStore store(PackedCodec(*nstates, g.n()), budget.spill_dir,
                            budget.max_store_bytes);
    if (!store.ok()) {
      // An unusable spill dir degrades to the in-memory engine rather than
      // failing the decision; the report's tiered_store flag stays false so
      // callers can tell.
      std::fprintf(stderr,
                   "dawn: tiered store unavailable (%s); in-memory fallback\n",
                   store.error().c_str());
    }
    tiered_ran = store.spills();
    out = explore(store);
  } else {
    ShardedConfigStore<Config, VectorHash<State>> store;
    out = explore(store);
  }

  ExplicitResult result = explicit_result(out);
  result.symmetry_reduced = grp != nullptr;
  result.packed_store = packed;
  result.tiered_store = tiered_ran;
  return result;
}

ExplicitResult decide_pseudo_stochastic_liberal(const Machine& machine,
                                                const Graph& g,
                                                const ExploreBudget& budget) {
  DAWN_CHECK_MSG(g.n() <= 12, "liberal selection enumerates 2^n subsets");
  const auto n = static_cast<std::uint32_t>(g.n());
  std::vector<NodeId> selection;
  Config next;
  const auto expand = [&](const Config& current, auto&& emit) {
    for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
      selection.clear();
      for (std::uint32_t v = 0; v < n; ++v) {
        if (mask & (1u << v)) selection.push_back(static_cast<NodeId>(v));
      }
      successor_into(machine, g, current, selection, next);
      if (next != current) emit(next);
    }
  };
  return explicit_result(explore_sequential<Config, VectorHash<State>>(
      initial_config(machine, g), expand,
      [&](const Config& c) { return consensus(machine, c); }, budget));
}

}  // namespace dawn
