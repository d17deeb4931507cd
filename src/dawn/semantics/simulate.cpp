#include "dawn/semantics/simulate.hpp"

#include <optional>

#include "dawn/automata/run.hpp"
#include "dawn/obs/span_log.hpp"
#include "dawn/util/check.hpp"

namespace dawn {

namespace {

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::Accept: return "accept";
    case Verdict::Reject: return "reject";
    case Verdict::Neutral: return "neutral";
  }
  return "?";
}

}  // namespace

SimulateResult simulate(const Machine& machine, const Graph& g,
                        Scheduler& scheduler, const SimulateOptions& opts) {
  SimulateScratch scratch;
  return simulate(machine, g, scheduler, opts, scratch);
}

SimulateResult simulate(const Machine& machine, const Graph& g,
                        Scheduler& scheduler, const SimulateOptions& opts,
                        SimulateScratch& scratch) {
  Run run(machine, g, opts.engine, std::move(scratch.run));
  SimulateResult result;
  // Install the sink for the whole run so cold-path events (interner
  // inserts, scheduler probes, engine stage timers) land in the result too.
  // The inner loop itself never touches the sink — counters are harvested
  // from the Run's plain members below.
  std::optional<obs::MetricsScope> scope;
  if (opts.collect_metrics) scope.emplace(result.metrics);
  obs::TraceLog* const trace = opts.trace;
  {
    obs::SpanScope span(obs::spans(), obs::Phase::SimulateRun);
    if (trace != nullptr) {
      trace->run_start(static_cast<std::size_t>(g.n()),
                       opts.engine == StepEngine::Incremental ? "incremental"
                                                              : "full_copy");
    }
    Verdict traced_consensus = run.current_consensus();
    // Reused across steps (select_into is allocation-free) and, through the
    // scratch, across trials.
    Selection& sel = scratch.selection;
    while (run.steps() < opts.max_steps) {
      scheduler.select_into(g, machine, run.config(), run.steps(), sel);
      DAWN_CHECK_MSG(!sel.empty(),
                     "scheduler returned an empty selection (a no-op step "
                     "that would silently burn max_steps)");
      run.apply(sel);
      if (trace != nullptr) {
        trace->step(run.steps(), sel, run.last_step_commits());
        const Verdict now = run.current_consensus();
        if (now != traced_consensus) {
          if (now == Verdict::Neutral) {
            trace->consensus_lost(run.steps());
          } else {
            trace->consensus(run.steps(), verdict_name(now));
          }
          traced_consensus = now;
        }
      }
      if (run.current_consensus() != Verdict::Neutral &&
          run.consensus_held_for() >= opts.stable_window) {
        result.converged = true;
        break;
      }
    }
  }
  result.verdict = run.current_consensus();
  // One meaning for both branches: the step the final consensus was
  // established at; steps() when the run ended Neutral (consensus_held_for
  // is 0 there, so the formula degenerates correctly).
  result.convergence_step = run.steps() - run.consensus_held_for();
  result.total_steps = run.steps();
  if (trace != nullptr) {
    trace->run_end(run.steps(), result.converged, verdict_name(result.verdict));
  }
  if (opts.collect_metrics) {
    obs::RunMetrics& m = result.metrics;
    m.add(obs::Counter::SimRuns);
    m.add(obs::Counter::SimSteps, run.steps());
    m.add(obs::Counter::SimActivations, run.activations());
    m.add(obs::Counter::SimCommits, run.commits());
    if (result.converged) m.add(obs::Counter::SimConverged);
    m.add(obs::Counter::ConsensusEstablished, run.consensus_established());
    m.add(obs::Counter::ConsensusLost, run.consensus_lost());
    m.gauge_max(obs::Gauge::MaxSelectionSize, run.max_selection_size());
  }
  scratch.run = std::move(run).release_scratch();
  return result;
}

}  // namespace dawn
