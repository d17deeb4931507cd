// The SoA batched trial engine's contract: bit-identical to the scalar path
// for every qualifying scheduler family, graph shape, thread count and lane
// width; honest disqualification (and a hard failure under Force) for
// everything else.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "dawn/graph/generators.hpp"
#include "dawn/obs/metrics.hpp"
#include "dawn/protocols/exists_label.hpp"
#include "dawn/protocols/majority_bounded.hpp"
#include "dawn/sched/scheduler.hpp"
#include "dawn/semantics/batched_trials.hpp"
#include "dawn/semantics/trials.hpp"

namespace dawn {
namespace {

// The engine-throughput gossip shape: mostly-silent transitions with
// verdict churn in both directions, so trials converge (or time out) at
// genuinely different steps and exercise lane retirement.
MachineFactory gossip_factory() {
  return [] {
    FunctionMachine::Spec spec;
    spec.beta = 3;
    spec.num_labels = 2;
    spec.num_states = 4;
    spec.init = [](Label l) { return static_cast<State>(l); };
    spec.step = [](State s, const Neighbourhood& n) {
      const int ones = n.sum([](State q) { return q % 2 == 1; });
      if (ones > n.beta() / 2 && s % 2 == 0) return static_cast<State>(s + 1);
      if (ones == 0 && s % 2 == 1) return static_cast<State>(s - 1);
      return s;
    };
    spec.verdict = [](State s) {
      return s % 2 == 1 ? Verdict::Accept : Verdict::Reject;
    };
    return std::make_shared<FunctionMachine>(spec);
  };
}

MachineFactory flood_factory() {
  return [] { return make_exists_label(1, 2); };
}

struct NamedScheduler {
  const char* name;
  SchedulerFactory factory;
};

// The battery of lockstep-capable families. The exclusive factory transforms
// its seed before construction — the batched form must adopt the generator
// state, not rebuild from the raw seed, and this pins that.
std::vector<NamedScheduler> batchable_schedulers() {
  std::vector<NamedScheduler> out;
  out.push_back({"exclusive", [](std::uint64_t seed) {
                   return std::make_unique<RandomExclusiveScheduler>(
                       seed ^ 0xabcdull);
                 }});
  out.push_back({"round-robin", [](std::uint64_t) {
                   return std::make_unique<RoundRobinScheduler>();
                 }});
  out.push_back({"synchronous", [](std::uint64_t) {
                   return std::make_unique<SynchronousScheduler>();
                 }});
  out.push_back({"starvation", [](std::uint64_t) {
                   return std::make_unique<StarvationScheduler>(0, 16);
                 }});
  return out;
}

struct NamedGraph {
  const char* name;
  Graph graph;
};

std::vector<NamedGraph> battery_graphs() {
  std::vector<NamedGraph> out;
  out.push_back({"cycle", make_cycle({0, 1, 0, 1, 0, 1, 0, 0, 1})});
  out.push_back({"line", make_line({1, 0, 0, 1, 0, 0, 0})});
  out.push_back({"grid", make_grid(3, 4, {0, 1, 0, 1, 1, 0, 0, 0, 1, 0, 1, 0})});
  Rng rng(7);
  std::vector<Label> labels(24);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<Label>(i % 2);
  }
  out.push_back({"random", make_random_bounded_degree(labels, 3, 6, rng)});
  return out;
}

TrialOptions diff_options(int num_threads, TrialBatch batch) {
  TrialOptions opts;
  opts.num_trials = 12;
  opts.num_threads = num_threads;
  opts.base_seed = 0xd1ff;
  opts.batch = batch;
  opts.batch_width = 8;  // 12 trials -> a full block and a partial one
  opts.sim.max_steps = 3'000;
  opts.sim.stable_window = 50;
  opts.sim.collect_metrics = true;
  return opts;
}

// Per-trial equality on everything deterministic (timers are wall-clock and
// excluded by contract, so SimulateResult::operator== is too strict here).
void expect_same_outcomes(const std::vector<TrialOutcome>& scalar,
                          const std::vector<TrialOutcome>& batched) {
  ASSERT_EQ(scalar.size(), batched.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    SCOPED_TRACE("trial " + std::to_string(i));
    EXPECT_EQ(scalar[i].trial, batched[i].trial);
    EXPECT_EQ(scalar[i].seed, batched[i].seed);
    EXPECT_EQ(scalar[i].result.converged, batched[i].result.converged);
    EXPECT_EQ(scalar[i].result.verdict, batched[i].result.verdict);
    EXPECT_EQ(scalar[i].result.convergence_step,
              batched[i].result.convergence_step);
    EXPECT_EQ(scalar[i].result.total_steps, batched[i].result.total_steps);
    EXPECT_TRUE(scalar[i].result.metrics.deterministic_equal(
        batched[i].result.metrics));
    // Timer counts still line up (one SimulateTotal sample per run).
    EXPECT_EQ(scalar[i].result.metrics.timer(obs::Timer::SimulateTotal).count,
              batched[i].result.metrics.timer(obs::Timer::SimulateTotal).count);
  }
}

TEST(BatchedTrials, BitIdenticalToScalarAcrossBatterySchedulersAndGraphs) {
  const MachineFactory machine = gossip_factory();
  for (const auto& sched : batchable_schedulers()) {
    for (const auto& g : battery_graphs()) {
      for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE(std::string(sched.name) + " on " + g.name + " with " +
                     std::to_string(threads) + " threads");
        const auto scalar = run_trials(machine, g.graph, sched.factory,
                                       diff_options(threads, TrialBatch::Off));
        const auto batched =
            run_trials(machine, g.graph, sched.factory,
                       diff_options(threads, TrialBatch::Force));
        expect_same_outcomes(scalar, batched);
        const TrialSummary ss = summarize(scalar);
        const TrialSummary bs = summarize(batched);
        EXPECT_EQ(ss.converged, bs.converged);
        EXPECT_EQ(ss.accepted, bs.accepted);
        EXPECT_EQ(ss.rejected, bs.rejected);
        EXPECT_DOUBLE_EQ(ss.mean_convergence_step, bs.mean_convergence_step);
        EXPECT_EQ(ss.max_total_steps, bs.max_total_steps);
        EXPECT_TRUE(ss.metrics.deterministic_equal(bs.metrics));
      }
    }
  }
}

TEST(BatchedTrials, FloodProtocolMatchesScalarUnderExclusive) {
  const Graph g = make_line({1, 0, 0, 0, 0, 0, 0});
  const SchedulerFactory sched = [](std::uint64_t seed) {
    return std::make_unique<RandomExclusiveScheduler>(seed);
  };
  const auto scalar = run_trials(flood_factory(), g, sched,
                                 diff_options(1, TrialBatch::Off));
  const auto batched = run_trials(flood_factory(), g, sched,
                                  diff_options(1, TrialBatch::Force));
  expect_same_outcomes(scalar, batched);
  for (const auto& o : batched) {
    EXPECT_TRUE(o.result.converged);
    EXPECT_EQ(o.result.verdict, Verdict::Accept);
  }
}

TEST(BatchedTrials, LaneWidthNeverChangesResults) {
  const Graph g = make_cycle({0, 1, 0, 1, 0, 1, 0, 0, 1});
  const SchedulerFactory sched = [](std::uint64_t seed) {
    return std::make_unique<RandomExclusiveScheduler>(seed);
  };
  auto base = diff_options(2, TrialBatch::Force);
  base.num_trials = 70;  // wider than the widest block
  auto opts8 = base;
  opts8.batch_width = 8;
  auto opts33 = base;
  opts33.batch_width = 33;
  auto opts64 = base;
  opts64.batch_width = 64;
  const auto w8 = run_trials(gossip_factory(), g, sched, opts8);
  const auto w33 = run_trials(gossip_factory(), g, sched, opts33);
  const auto w64 = run_trials(gossip_factory(), g, sched, opts64);
  expect_same_outcomes(w8, w33);
  expect_same_outcomes(w8, w64);
  // Out-of-range widths clamp instead of misbehaving.
  auto opts_low = base;
  opts_low.batch_width = 1;
  EXPECT_EQ(batched_lane_width(opts_low), 8);
  auto opts_high = base;
  opts_high.batch_width = 1'000;
  EXPECT_EQ(batched_lane_width(opts_high), 64);
}

TEST(BatchedTrials, DisqualifierAcceptsTheLockstepFamilies) {
  const Graph g = make_cycle({0, 1, 0, 1, 0, 1, 0, 0, 1});
  const auto opts = diff_options(1, TrialBatch::Auto);
  for (const auto& sched : batchable_schedulers()) {
    SCOPED_TRACE(sched.name);
    EXPECT_EQ(
        batched_trials_disqualifier(gossip_factory(), g, sched.factory, opts),
        "");
  }
}

TEST(BatchedTrials, DisqualifierRejectsNonLockstepTriples) {
  const Graph g = make_cycle({0, 1, 0, 1, 0, 1, 0, 0, 1});
  const auto opts = diff_options(1, TrialBatch::Auto);
  const SchedulerFactory exclusive = [](std::uint64_t seed) {
    return std::make_unique<RandomExclusiveScheduler>(seed);
  };
  // Stateful / configuration-inspecting / variable-size schedulers.
  const SchedulerFactory greedy = [](std::uint64_t seed) {
    return std::make_unique<GreedyAdversary>(seed, 64);
  };
  const SchedulerFactory permutation = [](std::uint64_t seed) {
    return std::make_unique<PermutationScheduler>(seed);
  };
  const SchedulerFactory liberal = [](std::uint64_t seed) {
    return std::make_unique<RandomLiberalScheduler>(seed, 0.5);
  };
  EXPECT_NE(batched_trials_disqualifier(gossip_factory(), g, greedy, opts), "");
  EXPECT_NE(batched_trials_disqualifier(gossip_factory(), g, permutation, opts),
            "");
  EXPECT_NE(batched_trials_disqualifier(gossip_factory(), g, liberal, opts),
            "");
  // Lazily-interning compiled machine: step-safe, but not enumerable.
  const MachineFactory compiled = [] {
    return make_majority_bounded(2).machine;
  };
  EXPECT_EQ(batched_trials_disqualifier(compiled, g, exclusive, opts),
            "machine is not enumerable");
  // Tracing pins the scalar path (the batched engine emits no step events).
  auto traced = opts;
  obs::TraceLog* const dummy = reinterpret_cast<obs::TraceLog*>(0x1);
  traced.sim.trace = dummy;
  EXPECT_NE(batched_trials_disqualifier(gossip_factory(), g, exclusive, traced),
            "");
  // The full-copy reference engine stays scalar by design.
  auto fullcopy = opts;
  fullcopy.sim.engine = StepEngine::FullCopy;
  EXPECT_NE(
      batched_trials_disqualifier(gossip_factory(), g, exclusive, fullcopy),
      "");
}

TEST(BatchedTrials, AutoFallsBackAndForceThrowsOnNonQualifyingTriples) {
  const Graph g = make_cycle({0, 1, 0, 1, 0, 1, 0, 0, 1});
  const SchedulerFactory greedy = [](std::uint64_t seed) {
    return std::make_unique<GreedyAdversary>(seed, 64);
  };
  auto auto_opts = diff_options(1, TrialBatch::Auto);
  auto_opts.num_trials = 4;
  const auto outcomes = run_trials(gossip_factory(), g, greedy, auto_opts);
  EXPECT_EQ(outcomes.size(), 4u);  // scalar fallback ran
  auto force_opts = auto_opts;
  force_opts.batch = TrialBatch::Force;
  EXPECT_THROW(run_trials(gossip_factory(), g, greedy, force_opts),
               std::logic_error);
  EXPECT_EQ(try_run_trials_batched(gossip_factory(), g, greedy, force_opts),
            std::nullopt);
}

TEST(BatchedTrials, EdgeCasesMatchScalar) {
  const Graph g = make_cycle({0, 0, 0, 1, 1, 1, 0, 1, 0});
  const SchedulerFactory sched = [](std::uint64_t seed) {
    return std::make_unique<RandomExclusiveScheduler>(seed);
  };
  // Zero trials: an empty outcome vector either way.
  auto zero = diff_options(1, TrialBatch::Force);
  zero.num_trials = 0;
  EXPECT_TRUE(run_trials(gossip_factory(), g, sched, zero).empty());
  // Zero steps: nothing converges, the initial consensus is reported.
  auto frozen = diff_options(1, TrialBatch::Off);
  frozen.sim.max_steps = 0;
  auto frozen_batched = frozen;
  frozen_batched.batch = TrialBatch::Force;
  expect_same_outcomes(run_trials(gossip_factory(), g, sched, frozen),
                       run_trials(gossip_factory(), g, sched, frozen_batched));
  // The smallest line graph still batches under the exclusive family.
  const Graph one = make_line({1, 0});
  expect_same_outcomes(
      run_trials(flood_factory(), one, sched, diff_options(1, TrialBatch::Off)),
      run_trials(flood_factory(), one, sched,
                 diff_options(1, TrialBatch::Force)));
}

}  // namespace
}  // namespace dawn
