// The unified decider facade: one entry point over every backend.
#include "dawn/semantics/decision.hpp"

#include "dawn/obs/telemetry.hpp"
#include "dawn/sched/scheduler.hpp"
#include "dawn/semantics/budget.hpp"
#include "dawn/semantics/clique_counted.hpp"
#include "dawn/semantics/explicit_space.hpp"
#include "dawn/semantics/parallel_explore.hpp"
#include "dawn/semantics/simulate.hpp"
#include "dawn/semantics/star_counted.hpp"
#include "dawn/semantics/sync_run.hpp"
#include "dawn/util/check.hpp"

namespace dawn {
namespace {

bool is_clique(const Graph& g) {
  for (NodeId v = 0; v < g.n(); ++v) {
    if (g.degree(v) != g.n() - 1) return false;
  }
  return true;
}

// The unique hub adjacent to every other node, all of which are leaves; -1
// if the graph is not a star. Cliques are dispatched before stars, so the
// degenerate overlaps (K2, the 3-path) resolve to the cheaper counted
// backend either way.
NodeId star_hub(const Graph& g) {
  NodeId hub = -1;
  for (NodeId v = 0; v < g.n(); ++v) {
    if (g.degree(v) == g.n() - 1) {
      if (hub >= 0) return -1;
      hub = v;
    } else if (g.degree(v) != 1) {
      return -1;
    }
  }
  return hub;
}

// Fills the report's interner account from machine.footprint(): every
// state the machine's lazily-interning layers hold, at a nominal cost per
// state. The count is cumulative per machine instance, so it includes
// states that earlier decides on the same instance interned. A report with
// budget_exhausted set leaves the account empty, like the store, frontier
// and edge accounts: workers overshoot a cap by a schedule-dependent amount
// and intern different states. Call after setting budget_exhausted. Plain
// machines report no layers and leave it empty too.
void account_interner_bytes(const Machine& machine, DecisionReport& report) {
  if (report.budget_exhausted) return;
  // A nominal per-state cost (value slot + index slots), like the stores'
  // bytes().
  constexpr std::size_t kBytesPerInternedState = 64;
  std::vector<LayerFootprint> layers;
  machine.footprint(layers);
  std::size_t states = 0;
  for (const auto& layer : layers) states += layer.interned_states;
  if (states > 0) {
    report.memory.set_max(obs::MemoryAccount::InternerBytes,
                          states * kBytesPerInternedState);
  }
}

DecideMethod resolve_auto(const Graph& g) {
  // Counted semantics quotient the configuration space by node symmetry, so
  // prefer them whenever the topology allows; everything else goes to the
  // sharded explicit engine.
  if (is_clique(g)) return DecideMethod::CountedClique;
  if (star_hub(g) >= 0) return DecideMethod::CountedStar;
  return DecideMethod::Explicit;
}

// Differential agreement between the parallel engine and its sequential
// reference. Both clamp a capped count to the cap, so completed and capped
// runs must agree on everything; deadline runs stop wherever the clock
// caught them and agree on (decision, reason) only.
template <typename ParResult, typename SeqResult>
bool agrees(const ParResult& par, const SeqResult& seq) {
  if (par.decision != seq.decision || par.reason != seq.reason) return false;
  if (par.reason == UnknownReason::Deadline) return true;
  return par.num_configs == seq.num_configs &&
         par.num_bottom_sccs == seq.num_bottom_sccs;
}

template <typename Result>
void fill(DecisionReport& report, const Result& r) {
  report.decision = r.decision;
  report.unknown_reason = r.reason;
  report.configs_explored = r.num_configs;
  report.num_bottom_sccs = r.num_bottom_sccs;
}

void flag_cross_check_failure(DecisionReport& report) {
  report.decision = Decision::Unknown;
  report.unknown_reason = UnknownReason::CrossCheck;
}

}  // namespace

DecisionReport decide(const Machine& machine, const Graph& g,
                      const DecisionRequest& request) {
  DecideMethod method = request.method;
  if (method == DecideMethod::Auto) method = resolve_auto(g);

  DecisionReport report;
  report.method = method;

  // Route the backends' memory accounting into this report's ledger,
  // unconditionally: the ledger is part of the report, so it must be filled
  // identically whether or not external telemetry (spans, heartbeats) is
  // attached. Spans/progress pass through from the caller's ambient bundle.
  obs::Telemetry tel = obs::telemetry();
  tel.ledger = &report.memory;
  const obs::TelemetryScope telemetry_scope(tel);
  const obs::SpanScope decide_span(tel.spans, obs::Phase::DecideTotal);

  switch (method) {
    case DecideMethod::Auto:
      DAWN_CHECK_MSG(false, "Auto resolves before dispatch");
      break;

    case DecideMethod::Explicit: {
      const ExplicitResult r =
          decide_pseudo_stochastic_parallel(machine, g, request.budget);
      fill(report, r);
      report.symmetry_reduced = r.symmetry_reduced;
      report.packed_store = r.packed_store;
      if (request.cross_check) {
        const ExplicitResult seq =
            decide_pseudo_stochastic(machine, g, request.budget);
        // A symmetry-reduced run counts orbits, so only the decision (and
        // Unknown reason) is comparable against the unreduced sequential
        // reference; unreduced runs must match counts too.
        const bool agree =
            r.symmetry_reduced
                ? (r.decision == seq.decision && r.reason == seq.reason)
                : agrees(r, seq);
        if (!agree) flag_cross_check_failure(report);
      }
      break;
    }

    case DecideMethod::ExplicitLiberal: {
      fill(report, decide_pseudo_stochastic_liberal(machine, g,
                                                    request.budget));
      break;
    }

    case DecideMethod::CountedClique: {
      DAWN_CHECK_MSG(is_clique(g), "CountedClique needs a clique input");
      const LabelCount L = g.label_count(machine.num_labels());
      const ExploreOutcome r =
          decide_clique_pseudo_stochastic_parallel(machine, L, request.budget);
      fill(report, r);
      if (request.cross_check &&
          !agrees(r, decide_clique_pseudo_stochastic(machine, L,
                                                     request.budget))) {
        flag_cross_check_failure(report);
      }
      break;
    }

    case DecideMethod::CountedStar: {
      const NodeId hub = star_hub(g);
      DAWN_CHECK_MSG(hub >= 0, "CountedStar needs a star input");
      std::vector<Label> leaves;
      leaves.reserve(static_cast<std::size_t>(g.n()) - 1);
      for (NodeId v = 0; v < g.n(); ++v) {
        if (v != hub) leaves.push_back(g.label(v));
      }
      const ExploreOutcome r = decide_star_pseudo_stochastic_parallel(
          machine, g.label(hub), leaves, request.budget);
      fill(report, r);
      if (request.cross_check &&
          !agrees(r, decide_star_pseudo_stochastic(machine, g.label(hub),
                                                   leaves, request.budget))) {
        flag_cross_check_failure(report);
      }
      break;
    }

    case DecideMethod::Synchronous: {
      const SyncResult r = decide_synchronous(machine, g, request.budget);
      report.decision = r.decision;
      report.unknown_reason = r.reason;
      if (r.decision != Decision::Unknown) {
        report.configs_explored = r.prefix_length + r.cycle_length;
      } else if (r.reason == UnknownReason::StepCap) {
        // Clamped like the explicit engines' capped counts.
        report.configs_explored = request.budget.max_configs;
      }
      break;
    }

    case DecideMethod::Simulate: {
      RandomExclusiveScheduler scheduler(request.sim_seed);
      SimulateOptions opts;
      opts.max_steps = request.sim_max_steps;
      opts.stable_window = request.sim_stable_window;
      const SimulateResult r = simulate(machine, g, scheduler, opts);
      report.exact = false;
      report.configs_explored = static_cast<std::size_t>(r.total_steps);
      if (r.converged && r.verdict == Verdict::Accept) {
        report.decision = Decision::Accept;
      } else if (r.converged && r.verdict == Verdict::Reject) {
        report.decision = Decision::Reject;
      } else {
        report.decision = Decision::Unknown;
        report.unknown_reason = UnknownReason::Inconclusive;
      }
      break;
    }
  }

  report.budget_exhausted = is_exhaustion(report.unknown_reason);
  account_interner_bytes(machine, report);
  return report;
}

}  // namespace dawn
