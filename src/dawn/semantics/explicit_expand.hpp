// Per-worker successor generators for the explicit-state engine: exclusive
// selection, one emitted successor per node whose step is not silent, in
// node order. The parallel decider (semantics/explicit_space.cpp) explores
// through with_explicit_expander.
#pragma once

#include <utility>

#include "dawn/automata/config.hpp"
#include "dawn/automata/machine.hpp"
#include "dawn/graph/graph.hpp"
#include "dawn/obs/span_log.hpp"
#include "dawn/semantics/symmetry.hpp"

namespace dawn {

// Exclusive selection, silent steps skipped, scratch reused across calls.
struct ExplicitExpander {
  const Machine& machine;
  const Graph& g;
  Neighbourhood nb;
  Config scratch;

  template <typename Emit>
  void operator()(const Config& current, Emit&& emit) {
    scratch = current;
    for (NodeId v = 0; v < g.n(); ++v) {
      const auto vu = static_cast<std::size_t>(v);
      Neighbourhood::of_into(g, current, v, machine.beta(), nb);
      const State s = machine.step(current[vu], nb);
      if (s == current[vu]) continue;  // silent
      scratch[vu] = s;
      emit(scratch);
      scratch[vu] = current[vu];
    }
  }
};

// ExplicitExpander followed by orbit canonicalisation: every emitted
// successor is mapped to its orbit's canonical representative, so the engine
// explores the quotient of the configuration graph by the symmetry group.
// Edges between orbits are preserved (an automorphism commutes with the step
// relation — symmetry.hpp); orbit-internal moves become self-loops, which
// the bottom-SCC classification already ignores.
struct CanonExplicitExpander {
  const Machine& machine;
  const Graph& g;
  const SymmetryGroup& grp;
  Neighbourhood nb = {};
  Config scratch = {};
  Config emit_buf = {};
  CanonScratch canon = {};

  template <typename Emit>
  void operator()(const Config& current, Emit&& emit) {
    // One span per expansion (not per successor): canonicalisation is the
    // dominant cost of the quotient engine, and per-successor spans would
    // flood the bounded per-thread buffers.
    obs::SpanScope span(obs::spans(), obs::Phase::Canonicalize);
    scratch = current;
    for (NodeId v = 0; v < g.n(); ++v) {
      const auto vu = static_cast<std::size_t>(v);
      Neighbourhood::of_into(g, current, v, machine.beta(), nb);
      const State s = machine.step(current[vu], nb);
      if (s == current[vu]) continue;  // silent
      scratch[vu] = s;
      emit_buf = scratch;
      canonicalize(grp, emit_buf, canon);
      emit(emit_buf);
      span.add_items(1);
      scratch[vu] = current[vu];
    }
  }
};

// Calls fn(initial, make_expander, verdict_of) with the explicit engine's
// initial configuration, per-worker expander factory and verdict function
// for `machine` on `g`, all canonicalised under `grp` when it is non-null,
// and returns what fn returns.
template <typename Fn>
decltype(auto) with_explicit_expander(const Machine& machine, const Graph& g,
                                      const SymmetryGroup* grp, Fn&& fn) {
  Config initial = initial_config(machine, g);
  auto verdict_of = [&machine](const Config& c) {
    return consensus(machine, c);
  };
  if (grp != nullptr) {
    CanonScratch scratch;
    canonicalize(*grp, initial, scratch);
    auto make_expander = [&machine, &g, grp](int) {
      return CanonExplicitExpander{machine, g, *grp};
    };
    return fn(std::as_const(initial), make_expander, verdict_of);
  }
  auto make_expander = [&machine, &g](int) {
    return ExplicitExpander{machine, g, Neighbourhood{}, Config{}};
  };
  return fn(std::as_const(initial), make_expander, verdict_of);
}

}  // namespace dawn
