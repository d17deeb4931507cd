// Direct execution of the abstract weak-broadcast semantics (Definition 4.5)
// and exact deciders for broadcast overlays.
//
// Two semantics are provided:
//
//  * `BroadcastRun` — the generalised-protocol semantics: schedules are
//    sequences of (n, v) neighbourhood selections and (b, S) broadcast
//    selections with S an independent set; when several agents broadcast at
//    once, each receiver gets the signal of a scheduler-chosen initiator.
//    This is the reference model the compiled machine (Lemma 4.7) simulates,
//    and what the Figure 2 trace bench executes.
//
//  * strong (singleton-broadcast) deciders — the semantics of *strong
//    broadcast protocols* (Section 4.1: only one agent broadcasts at a
//    time, 𝓘 = {{v}}): exact bottom-SCC decision over explicit
//    configurations on an arbitrary graph, or over counted configurations on
//    a clique (the scalable path for labelling predicates; Blondin-Esparza-
//    Jaax broadcast consensus protocols are exactly this model).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "dawn/extensions/broadcast.hpp"
#include "dawn/graph/graph.hpp"
#include "dawn/semantics/clique_counted.hpp"
#include "dawn/semantics/decision.hpp"
#include "dawn/util/rng.hpp"

namespace dawn {

class BroadcastRun {
 public:
  BroadcastRun(const BroadcastOverlay& overlay, const Graph& g);

  const std::vector<State>& config() const { return config_; }
  const BroadcastOverlay& overlay() const { return overlay_; }

  // (n, {v}): v executes a neighbourhood transition unless it is
  // broadcast-initiating (Definition 4.5 removes initiators from
  // neighbourhood selections). Returns true if the configuration changed.
  bool apply_neighbourhood(NodeId v);

  // (b, S): the initiators among S (S must be an independent set) broadcast
  // simultaneously; every other node receives the response of
  // `receiver_from(node)` which must be an element of S ∩ initiators.
  // If `receiver_from` is null, each receiver picks uniformly via `rng`.
  // Returns false (no-op) when S contains no initiator.
  bool apply_broadcast(const std::vector<NodeId>& selection, Rng& rng,
                       const std::function<NodeId(NodeId)>& receiver_from = {});

  // Convenience: broadcast with a maximal independent subset of the current
  // initiators, random receivers. Returns false if there is no initiator.
  bool apply_broadcast_all(Rng& rng);

  std::vector<NodeId> current_initiators() const;

  Verdict consensus() const;

 private:
  const BroadcastOverlay& overlay_;
  const Graph& graph_;
  std::vector<State> config_;
};

struct OverlaySimOptions {
  std::uint64_t max_steps = 200'000;
  std::uint64_t stable_window = 5'000;
  double broadcast_probability = 0.2;
};

struct OverlaySimResult {
  bool converged = false;
  Verdict verdict = Verdict::Neutral;
  std::uint64_t total_steps = 0;
  std::uint64_t broadcasts_executed = 0;
};

// Randomised fair execution of the abstract weak-broadcast semantics
// (statistical proxy for pseudo-stochastic fairness at the overlay level).
OverlaySimResult simulate_overlay_random(const BroadcastOverlay& overlay,
                                         const Graph& g, Rng& rng,
                                         const OverlaySimOptions& opts = {});

// The exact overlay deciders below run on semantics/sequential_explore.hpp:
// one thread, max_configs and deadline_ms honoured, a capped count clamped
// to the cap.

// Exact decision of the overlay under strong (singleton) broadcasts plus
// exclusive neighbourhood steps, on an explicit graph.
ExploreOutcome decide_overlay_strong(const BroadcastOverlay& overlay,
                                     const Graph& g,
                                     const ExploreBudget& o = {});

// Same, on the clique with label count L, using counted configurations.
ExploreOutcome decide_overlay_strong_counted(const BroadcastOverlay& overlay,
                                             const LabelCount& L,
                                             const ExploreBudget& o = {});

// Exact decision under the FULL weak-broadcast semantics of Definition 4.5:
// selections are all nonempty independent sets of initiators (every subset
// is a scheduler option), broadcasting simultaneously, with every possible
// receiver assignment explored, plus exclusive neighbourhood steps.
// Exponential per configuration — tiny graphs only. This is the reference
// against which the singleton-broadcast deciders and the compiled machine
// are selection-independence-checked.
ExploreOutcome decide_overlay_weak(const BroadcastOverlay& overlay,
                                   const Graph& g,
                                   const ExploreBudget& o = {});

}  // namespace dawn
