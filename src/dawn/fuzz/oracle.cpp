#include "dawn/fuzz/oracle.hpp"

#include <sstream>

#include "dawn/automata/run.hpp"
#include "dawn/sched/replay.hpp"
#include "dawn/sched/scheduler.hpp"
#include "dawn/semantics/clique_counted.hpp"
#include "dawn/semantics/decision.hpp"
#include "dawn/semantics/explicit_space.hpp"
#include "dawn/semantics/batched_trials.hpp"
#include "dawn/semantics/simulate.hpp"
#include "dawn/semantics/star_counted.hpp"
#include "dawn/semantics/sync_run.hpp"
#include "dawn/semantics/trials.hpp"

namespace dawn::fuzz {
namespace {

// Budgets chosen so a smoke run (a few hundred cases) stays in seconds:
// the decider pairs only fire on small state spaces, and the run-based
// pairs are linear in the schedule length.
constexpr std::size_t kSpaceCap = 60'000;     // |Q|^n bound for decider pairs
constexpr std::size_t kConfigBudget = 120'000;
constexpr std::uint64_t kSyncStepCap = 20'000;
constexpr std::uint64_t kSimSteps = 2'000;
constexpr std::uint64_t kSimWindow = 200;

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::Accept: return "accept";
    case Verdict::Reject: return "reject";
    case Verdict::Neutral: return "neutral";
  }
  return "?";
}

// Saturating |Q|^n, used to keep the explicit decider off huge spaces.
std::size_t space_size(const FuzzCase& c) {
  std::size_t space = 1;
  for (int i = 0; i < c.graph.n(); ++i) {
    if (space > kSpaceCap) return kSpaceCap + 1;
    space *= static_cast<std::size_t>(c.machine.num_states);
  }
  return space;
}

bool small_space(const FuzzCase& c) { return space_size(c) <= kSpaceCap; }

bool is_clique_graph(const Graph& g) {
  if (g.n() < 2) return false;
  for (NodeId v = 0; v < g.n(); ++v) {
    if (g.degree(v) != g.n() - 1) return false;
  }
  return true;
}

// The unique hub adjacent to every other node, all leaves; -1 otherwise.
NodeId star_hub(const Graph& g) {
  if (g.n() < 2) return -1;
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

ExploreBudget sequential_budget() {
  return {.max_configs = kConfigBudget, .max_threads = 1, .deadline_ms = 0};
}

// -------------------------------------------------------------------------
// step-engine: FullCopy vs Incremental, lock-step over the schedule (two
// cycles, so the wrap-around of a replayed window is exercised too).

std::optional<std::string> check_step_engine(const FuzzCase& c) {
  const auto machine = build_machine(c.machine);
  Run incremental(*machine, c.graph, StepEngine::Incremental);
  Run reference(*machine, c.graph, StepEngine::FullCopy);
  const std::size_t len = c.schedule.size();
  for (std::size_t t = 0; t < 2 * len; ++t) {
    const Selection& sel = c.schedule[t % len];
    incremental.apply(sel);
    reference.apply(sel);
    const auto diverged = [&](const char* what) {
      std::ostringstream out;
      out << "engines diverged at step " << t << " (" << what << ")";
      return out.str();
    };
    if (incremental.config() != reference.config()) return diverged("config");
    if (incremental.current_consensus() != reference.current_consensus()) {
      return diverged("consensus");
    }
    if (incremental.consensus_held_for() != reference.consensus_held_for()) {
      return diverged("consensus_held_for");
    }
    if (incremental.last_change_step() != reference.last_change_step()) {
      return diverged("last_change_step");
    }
    if (incremental.commits() != reference.commits()) {
      return diverged("commits");
    }
    if (incremental.last_step_commits() != reference.last_step_commits()) {
      return diverged("last_step_commits");
    }
  }
  return std::nullopt;
}

// -------------------------------------------------------------------------
// record-replay: a run recorded through sched/replay must re-execute
// bit-identically from its recording alone.

std::optional<std::string> check_record_replay(const FuzzCase& c) {
  const auto machine = build_machine(c.machine);
  SimulateOptions opts;
  opts.max_steps = kSimSteps;
  opts.stable_window = kSimWindow;
  auto inner = std::make_shared<RandomExclusiveScheduler>(c.machine.seed);
  RecordingScheduler recorder(inner);
  const SimulateResult original = simulate(*machine, c.graph, recorder, opts);
  ReplayScheduler replay(recorder.recording());
  const SimulateResult replayed = simulate(*machine, c.graph, replay, opts);
  if (original == replayed) return std::nullopt;
  std::ostringstream out;
  out << "replayed run differs: original(converged=" << original.converged
      << ", verdict=" << verdict_name(original.verdict)
      << ", steps=" << original.total_steps << ") replay(converged="
      << replayed.converged << ", verdict=" << verdict_name(replayed.verdict)
      << ", steps=" << replayed.total_steps << ")";
  return out.str();
}

// -------------------------------------------------------------------------
// sync-replay: decide_synchronous detects the limit cycle with its own
// stepping loop (successor via Neighbourhood::of_into, hash-map cycle
// detection). Re-derive the classification through the Run engine driven by
// the replayed synchronous schedule: after prefix_length steps the run must
// be on the cycle, the cycle must close after cycle_length more steps, and
// the per-configuration consensus over one traversal must reproduce the
// decision.

std::optional<std::string> check_sync_replay(const FuzzCase& c) {
  const auto machine = build_machine(c.machine);
  const SyncResult sync = decide_synchronous(*machine, c.graph, kSyncStepCap);
  if (sync.decision == Decision::Unknown) return std::nullopt;  // capped
  Selection everyone;
  for (NodeId v = 0; v < c.graph.n(); ++v) everyone.push_back(v);
  Run run(*machine, c.graph, StepEngine::Incremental);
  for (std::uint64_t t = 0; t < sync.prefix_length; ++t) run.apply(everyone);
  const Config at_cycle_entry = run.config();
  bool all_accepting = true;
  bool all_rejecting = true;
  for (std::uint64_t i = 0; i < sync.cycle_length; ++i) {
    const Verdict v = run.current_consensus();
    if (v != Verdict::Accept) all_accepting = false;
    if (v != Verdict::Reject) all_rejecting = false;
    run.apply(everyone);
  }
  if (run.config() != at_cycle_entry) {
    std::ostringstream out;
    out << "synchronous cycle did not close under Run: prefix="
        << sync.prefix_length << " cycle=" << sync.cycle_length;
    return out.str();
  }
  const Decision replayed = all_accepting    ? Decision::Accept
                            : all_rejecting ? Decision::Reject
                                            : Decision::Inconsistent;
  if (replayed == sync.decision) return std::nullopt;
  std::ostringstream out;
  out << "cycle classification differs: decide_synchronous="
      << to_string(sync.decision) << " replayed-run=" << to_string(replayed)
      << " (prefix=" << sync.prefix_length << ", cycle=" << sync.cycle_length
      << ")";
  return out.str();
}

// -------------------------------------------------------------------------
// explore-par: the sequential explicit decider vs the frontier-parallel
// sharded engine at 1, 2 and 8 threads. Fuzz machines advertise |Q|, so the
// parallel side runs on the packed store and this pair is also the
// vector-vs-packed differential. Both sides clamp a capped count to the
// cap, so completed and capped runs must agree on everything; deadline runs
// on (decision, reason) only.

std::optional<std::string> check_explore_par(const FuzzCase& c) {
  const auto machine = build_machine(c.machine);
  const ExplicitResult seq =
      decide_pseudo_stochastic(*machine, c.graph, sequential_budget());
  for (const int threads : {1, 2, 8}) {
    ExploreBudget budget = sequential_budget();
    budget.max_threads = threads;
    const ExplicitResult par =
        decide_pseudo_stochastic_parallel(*machine, c.graph, budget);
    std::ostringstream out;
    out << "parallel(" << threads << " threads) vs sequential: ";
    if (par.decision != seq.decision || par.reason != seq.reason) {
      out << "decision " << to_string(par.decision) << "/"
          << to_string(par.reason) << " vs " << to_string(seq.decision) << "/"
          << to_string(seq.reason);
      return out.str();
    }
    if (seq.reason == UnknownReason::Deadline) continue;  // counts may differ
    if (par.num_configs != seq.num_configs) {
      out << "num_configs " << par.num_configs << " vs " << seq.num_configs;
      return out.str();
    }
    if (par.num_bottom_sccs != seq.num_bottom_sccs) {
      out << "num_bottom_sccs " << par.num_bottom_sccs << " vs "
          << seq.num_bottom_sccs;
      return out.str();
    }
  }
  return std::nullopt;
}

// -------------------------------------------------------------------------
// canonical-vs-plain: the plain parallel explicit engine vs the same engine
// with symmetry reduction enabled; both sides run on the packed store, which
// fuzz machines always engage. The reduced run explores a
// quotient, so counts are only ordered (orbits <= configurations) but the
// decision must be identical; both runs use the same budget, and a capped
// side makes the case incomparable (the quotient can finish where the plain
// space caps out).

std::optional<std::string> check_canonical_vs_plain(const FuzzCase& c) {
  const auto machine = build_machine(c.machine);
  const ExplicitResult plain =
      decide_pseudo_stochastic_parallel(*machine, c.graph, sequential_budget());
  ExploreBudget reduced_budget = sequential_budget();
  reduced_budget.max_threads = 2;
  reduced_budget.use_symmetry = true;
  const ExplicitResult reduced =
      decide_pseudo_stochastic_parallel(*machine, c.graph, reduced_budget);
  if (!plain.packed_store || !reduced.packed_store) {
    return std::string("fuzz machines advertise num_states(); the packed "
                       "store should always engage");
  }
  if (plain.decision == Decision::Unknown ||
      reduced.decision == Decision::Unknown) {
    return std::nullopt;  // one side capped: not comparable
  }
  std::ostringstream out;
  if (reduced.decision != plain.decision) {
    out << "plain=" << to_string(plain.decision)
        << " canonical=" << to_string(reduced.decision)
        << (reduced.symmetry_reduced ? " (reduced)" : " (group trivial)");
    return out.str();
  }
  if (reduced.num_configs > plain.num_configs) {
    out << "quotient larger than the full space: canonical="
        << reduced.num_configs << " plain=" << plain.num_configs;
    return out.str();
  }
  if (!reduced.symmetry_reduced && reduced.num_configs != plain.num_configs) {
    out << "trivial group but counts differ: canonical=" << reduced.num_configs
        << " plain=" << plain.num_configs;
    return out.str();
  }
  return std::nullopt;
}

// -------------------------------------------------------------------------
// tiered-vs-inmemory: the parallel explicit engine in memory vs the same
// engine in spill mode (the packed store spilling, edges spooled to disk).
// Both run one level loop, so this pair pins the store modes against each
// other; explore-par stays the independent reference. The byte budget is
// calibrated from the in-memory run's config count so the tiered side is
// forced through its spill path on any nontrivial case while its
// always-resident index still fits (the packed words dominate the budget,
// the index alone does not).
// Completed runs must agree on everything; a tiered MemoryCap (the case's
// index outgrew even the calibrated budget) makes the case incomparable.

std::optional<std::string> check_tiered_vs_inmemory(const FuzzCase& c) {
  const auto machine = build_machine(c.machine);
  const ExplicitResult mem =
      decide_pseudo_stochastic_parallel(*machine, c.graph, sequential_budget());
  if (mem.decision == Decision::Unknown) {
    return std::nullopt;  // capped: no count to calibrate the byte budget on
  }
  ExploreBudget tiered_budget = sequential_budget();
  tiered_budget.max_threads = 2;
  tiered_budget.max_store_bytes = 5120 + 18 * mem.num_configs;
  tiered_budget.spill_dir = "/tmp";
  const ExplicitResult tiered =
      decide_pseudo_stochastic_parallel(*machine, c.graph, tiered_budget);
  if (!tiered.tiered_store) {
    return std::string("tiered store did not engage (spill dir unusable?)");
  }
  if (tiered.decision == Decision::Unknown &&
      tiered.reason == UnknownReason::MemoryCap) {
    return std::nullopt;  // resident index over budget: incomparable
  }
  std::ostringstream out;
  out << "tiered vs in-memory: ";
  if (tiered.decision != mem.decision || tiered.reason != mem.reason) {
    out << "decision " << to_string(tiered.decision) << "/"
        << to_string(tiered.reason) << " vs " << to_string(mem.decision)
        << "/" << to_string(mem.reason);
    return out.str();
  }
  if (tiered.num_configs != mem.num_configs) {
    out << "num_configs " << tiered.num_configs << " vs " << mem.num_configs;
    return out.str();
  }
  if (tiered.num_bottom_sccs != mem.num_bottom_sccs) {
    out << "num_bottom_sccs " << tiered.num_bottom_sccs << " vs "
        << mem.num_bottom_sccs;
    return out.str();
  }
  return std::nullopt;
}

// -------------------------------------------------------------------------
// clique-counted / star-counted: the explicit decider on the concrete graph
// vs the counted-configuration quotient. The spaces (and budgets) differ,
// so only decisions are comparable, and only when both sides completed.

std::optional<std::string> check_clique_counted(const FuzzCase& c) {
  const auto machine = build_machine(c.machine);
  const ExplicitResult ex =
      decide_pseudo_stochastic(*machine, c.graph, sequential_budget());
  const LabelCount L = c.graph.label_count(c.machine.num_labels);
  const ExploreOutcome counted =
      decide_clique_pseudo_stochastic(*machine, L, sequential_budget());
  if (ex.decision == Decision::Unknown ||
      counted.decision == Decision::Unknown) {
    return std::nullopt;  // one side capped: not comparable
  }
  if (ex.decision == counted.decision) return std::nullopt;
  std::ostringstream out;
  out << "explicit=" << to_string(ex.decision)
      << " counted-clique=" << to_string(counted.decision);
  return out.str();
}

std::optional<std::string> check_star_counted(const FuzzCase& c) {
  const auto machine = build_machine(c.machine);
  const NodeId hub = star_hub(c.graph);
  std::vector<Label> leaves;
  for (NodeId v = 0; v < c.graph.n(); ++v) {
    if (v != hub) leaves.push_back(c.graph.label(v));
  }
  const ExplicitResult ex =
      decide_pseudo_stochastic(*machine, c.graph, sequential_budget());
  const ExploreOutcome counted = decide_star_pseudo_stochastic(
      *machine, c.graph.label(hub), leaves, sequential_budget());
  if (ex.decision == Decision::Unknown ||
      counted.decision == Decision::Unknown) {
    return std::nullopt;
  }
  if (ex.decision == counted.decision) return std::nullopt;
  std::ostringstream out;
  out << "explicit=" << to_string(ex.decision)
      << " counted-star=" << to_string(counted.decision);
  return out.str();
}

// -------------------------------------------------------------------------
// auto-crosscheck: the facade's built-in differential pin (parallel engine
// vs its sequential reference, on whichever backend Auto picks) must never
// fire.

std::optional<std::string> check_auto_crosscheck(const FuzzCase& c) {
  const auto machine = build_machine(c.machine);
  DecisionRequest req;
  req.method = DecideMethod::Auto;
  req.budget = {.max_configs = kConfigBudget, .max_threads = 2,
                .deadline_ms = 0};
  req.cross_check = true;
  const DecisionReport r = decide(*machine, c.graph, req);
  if (r.unknown_reason != UnknownReason::CrossCheck) return std::nullopt;
  return "decide(Auto, cross_check) reported a parallel/sequential mismatch "
         "via " +
         to_string(r.method);
}

// -------------------------------------------------------------------------
// scalar-vs-batched: the per-trial scalar runner vs the SoA batched trial
// engine, across every lockstep scheduler family. Fuzz machines are pure
// enumerable FunctionMachines, so they must always qualify — a nullopt from
// the batched path is itself a divergence.

std::optional<std::string> check_scalar_vs_batched(const FuzzCase& c) {
  const MachineFactory machine = [&c] { return build_machine(c.machine); };
  struct Family {
    const char* name;
    SchedulerFactory factory;
  };
  std::vector<Family> families;
  families.push_back({"exclusive", [](std::uint64_t seed) {
                        return std::make_unique<RandomExclusiveScheduler>(seed);
                      }});
  families.push_back({"round-robin", [](std::uint64_t) {
                        return std::make_unique<RoundRobinScheduler>();
                      }});
  families.push_back({"synchronous", [](std::uint64_t) {
                        return std::make_unique<SynchronousScheduler>();
                      }});
  if (c.graph.n() >= 2) {
    // Starvation requires a non-victim to rotate through.
    families.push_back({"starvation", [](std::uint64_t) {
                          return std::make_unique<StarvationScheduler>(0, 4);
                        }});
  }
  TrialOptions opts;
  opts.num_trials = 12;
  opts.num_threads = 1;
  opts.base_seed = c.machine.seed;
  opts.batch_width = 8;  // 12 trials -> one full block, one partial
  opts.sim.max_steps = kSimSteps;
  opts.sim.stable_window = kSimWindow;
  opts.sim.collect_metrics = true;
  for (const auto& family : families) {
    auto scalar_opts = opts;
    scalar_opts.batch = TrialBatch::Off;
    const auto scalar = run_trials(machine, c.graph, family.factory,
                                   scalar_opts);
    const auto batched =
        try_run_trials_batched(machine, c.graph, family.factory, opts);
    if (!batched.has_value()) {
      return family.name +
             std::string(": fuzz machine failed to qualify for batching: ") +
             batched_trials_disqualifier(machine, c.graph, family.factory,
                                         opts);
    }
    for (std::size_t i = 0; i < scalar.size(); ++i) {
      const SimulateResult& s = scalar[i].result;
      const SimulateResult& b = (*batched)[i].result;
      if (s.converged != b.converged || s.verdict != b.verdict ||
          s.convergence_step != b.convergence_step ||
          s.total_steps != b.total_steps ||
          !s.metrics.deterministic_equal(b.metrics)) {
        std::ostringstream out;
        out << family.name << " trial " << i << ": scalar(converged="
            << s.converged << ", verdict=" << verdict_name(s.verdict)
            << ", conv_step=" << s.convergence_step
            << ", steps=" << s.total_steps << ") batched(converged="
            << b.converged << ", verdict=" << verdict_name(b.verdict)
            << ", conv_step=" << b.convergence_step
            << ", steps=" << b.total_steps << ")"
            << (s.metrics.deterministic_equal(b.metrics)
                    ? ""
                    : " [metrics diverged]");
        return out.str();
      }
    }
    // Summary-level parity too: summarize() folds metrics in trial order,
    // so the merged TrialSummary must also match bit-for-bit (the per-trial
    // loop above would miss a summarize() bug).
    const TrialSummary ss = summarize(scalar);
    const TrialSummary bs = summarize(*batched);
    if (ss.converged != bs.converged || ss.accepted != bs.accepted ||
        ss.rejected != bs.rejected ||
        ss.max_total_steps != bs.max_total_steps ||
        ss.mean_convergence_step != bs.mean_convergence_step ||
        !ss.metrics.deterministic_equal(bs.metrics)) {
      std::ostringstream out;
      out << family.name << ": TrialSummary diverged: scalar(converged="
          << ss.converged << ", accepted=" << ss.accepted
          << ", rejected=" << ss.rejected
          << ", max_steps=" << ss.max_total_steps
          << ", mean_conv=" << ss.mean_convergence_step
          << ") batched(converged=" << bs.converged
          << ", accepted=" << bs.accepted << ", rejected=" << bs.rejected
          << ", max_steps=" << bs.max_total_steps
          << ", mean_conv=" << bs.mean_convergence_step << ")"
          << (ss.metrics.deterministic_equal(bs.metrics)
                  ? ""
                  : " [merged metrics diverged]");
      return out.str();
    }
  }
  return std::nullopt;
}

std::vector<OraclePair> build_registry() {
  const auto always = [](const FuzzCase&) { return true; };
  const auto small = [](const FuzzCase& c) { return small_space(c); };
  std::vector<OraclePair> pairs;
  pairs.push_back({"step-engine",
                   "FullCopy vs Incremental Run, lock-step over the schedule",
                   always, check_step_engine});
  pairs.push_back({"record-replay",
                   "a recorded random run vs its sched/replay re-execution",
                   always, check_record_replay});
  pairs.push_back({"sync-replay",
                   "decide_synchronous vs the Run engine on the replayed "
                   "synchronous schedule",
                   always, check_sync_replay});
  pairs.push_back({"explore-par",
                   "sequential explicit decider (vector interner) vs the "
                   "sharded parallel engine (packed store) at 1/2/8 threads",
                   small, check_explore_par});
  pairs.push_back({"canonical-vs-plain",
                   "plain parallel explicit engine vs symmetry-reduced "
                   "exploration",
                   small, check_canonical_vs_plain});
  pairs.push_back({"tiered-vs-inmemory",
                   "in-memory parallel explicit engine vs the out-of-core "
                   "engine under a spill-forcing byte budget",
                   small, check_tiered_vs_inmemory});
  pairs.push_back(
      {"clique-counted",
       "explicit decider vs the counted-configuration decider on cliques",
       [](const FuzzCase& c) {
         return small_space(c) && is_clique_graph(c.graph);
       },
       check_clique_counted});
  pairs.push_back(
      {"star-counted",
       "explicit decider vs the counted-configuration decider on stars",
       [](const FuzzCase& c) {
         return small_space(c) && star_hub(c.graph) >= 0;
       },
       check_star_counted});
  pairs.push_back({"auto-crosscheck",
                   "decide(Auto) with its built-in parallel/sequential "
                   "cross-check enabled",
                   small, check_auto_crosscheck});
  pairs.push_back({"scalar-vs-batched",
                   "scalar run_trials vs the SoA batched trial engine "
                   "across the lockstep scheduler families",
                   always, check_scalar_vs_batched});
  return pairs;
}

}  // namespace

const std::vector<OraclePair>& oracle_pairs() {
  static const std::vector<OraclePair> registry = build_registry();
  return registry;
}

const OraclePair* find_pair(const std::string& name) {
  for (const OraclePair& pair : oracle_pairs()) {
    if (pair.name == name) return &pair;
  }
  return nullptr;
}

}  // namespace dawn::fuzz
