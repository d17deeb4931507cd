// The parallel trial runner's contract: determinism regardless of thread
// count, trial-indexed result order, and pure-function seeding.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>

#include "dawn/graph/generators.hpp"
#include "dawn/obs/metrics.hpp"
#include "dawn/protocols/exists_label.hpp"
#include "dawn/protocols/majority_bounded.hpp"
#include "dawn/sched/scheduler.hpp"
#include "dawn/semantics/trials.hpp"

namespace dawn {
namespace {

// Whether the ambient metrics sink is compiled in: -DDAWN_OBS=OFF reduces
// it to no-ops, so values it would feed stay 0 there.
#ifdef DAWN_OBS_DISABLED
constexpr bool kObsCompiledIn = false;
#else
constexpr bool kObsCompiledIn = true;
#endif

TrialOptions small_options(int num_trials, int num_threads) {
  TrialOptions opts;
  opts.num_trials = num_trials;
  opts.num_threads = num_threads;
  opts.base_seed = 42;
  opts.sim.max_steps = 5'000;
  opts.sim.stable_window = 200;
  return opts;
}

TEST(Trials, SeedIsAPureFunctionOfBaseAndIndex) {
  EXPECT_EQ(trial_seed(1, 0), trial_seed(1, 0));
  EXPECT_NE(trial_seed(1, 0), trial_seed(1, 1));
  EXPECT_NE(trial_seed(1, 0), trial_seed(2, 0));
}

TEST(Trials, ResultsIdenticalAcrossThreadCounts) {
  const Graph g = make_cycle({0, 1, 0, 1, 0, 1, 0, 0, 1});
  const MachineFactory machine = [] {
    // Compiled + lazily interning: per-trial construction is exactly what
    // makes sharing across threads unnecessary.
    return make_majority_bounded(2).machine;
  };
  const SchedulerFactory scheduler = [](std::uint64_t seed) {
    return std::make_unique<RandomExclusiveScheduler>(seed);
  };
  const auto serial = run_trials(machine, g, scheduler, small_options(6, 1));
  const auto parallel = run_trials(machine, g, scheduler, small_options(6, 4));
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].trial, static_cast<int>(i));
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    EXPECT_EQ(serial[i].result, parallel[i].result);
  }
}

TEST(Trials, FloodAcceptsOnEveryTrial) {
  const Graph g = make_line({1, 0, 0, 0, 0, 0, 0});
  const MachineFactory machine = [] { return make_exists_label(1, 2); };
  const SchedulerFactory scheduler = [](std::uint64_t seed) {
    return std::make_unique<RandomExclusiveScheduler>(seed);
  };
  const auto outcomes = run_trials(machine, g, scheduler, small_options(8, 0));
  const TrialSummary s = summarize(outcomes);
  EXPECT_EQ(s.num_trials, 8);
  EXPECT_EQ(s.converged, 8);
  EXPECT_EQ(s.accepted, 8);
  EXPECT_EQ(s.rejected, 0);
  EXPECT_GT(s.mean_convergence_step, 0.0);
}

TEST(Trials, SummarizeAveragesOverConvergedTrialsOnly) {
  // A timed-out trial contributes to num_trials and max_total_steps but must
  // not drag the convergence mean towards its (meaningless) step count.
  std::vector<TrialOutcome> outcomes(3);
  outcomes[0].result.converged = true;
  outcomes[0].result.verdict = Verdict::Accept;
  outcomes[0].result.convergence_step = 10;
  outcomes[0].result.total_steps = 100;
  outcomes[1].result.converged = false;
  outcomes[1].result.convergence_step = 5'000;
  outcomes[1].result.total_steps = 5'000;
  outcomes[2].result.converged = true;
  outcomes[2].result.verdict = Verdict::Reject;
  outcomes[2].result.convergence_step = 30;
  outcomes[2].result.total_steps = 200;
  const TrialSummary s = summarize(outcomes);
  EXPECT_EQ(s.num_trials, 3);
  EXPECT_EQ(s.converged, 2);
  EXPECT_EQ(s.accepted, 1);
  EXPECT_EQ(s.rejected, 1);
  EXPECT_DOUBLE_EQ(s.mean_convergence_step, 20.0);
  EXPECT_EQ(s.max_total_steps, 5'000u);
}

TEST(Trials, SummarizeOfNothingIsAllZeros) {
  const TrialSummary s = summarize({});
  EXPECT_EQ(s.num_trials, 0);
  EXPECT_EQ(s.converged, 0);
  EXPECT_EQ(s.accepted, 0);
  EXPECT_EQ(s.rejected, 0);
  EXPECT_DOUBLE_EQ(s.mean_convergence_step, 0.0);
  EXPECT_EQ(s.max_total_steps, 0u);
  EXPECT_TRUE(s.metrics.empty());
}

TEST(Trials, MergedMetricsIdenticalAcrossThreadCounts) {
  // The summary merges per-trial metrics in trial-index order, so the
  // deterministic part (counters + gauges) is bit-identical whether the
  // trials ran on one thread or four.
  const Graph g = make_cycle({0, 1, 0, 1, 0, 1, 0, 0, 1});
  const MachineFactory machine = [] {
    return make_majority_bounded(2).machine;
  };
  const SchedulerFactory scheduler = [](std::uint64_t seed) {
    return std::make_unique<RandomExclusiveScheduler>(seed);
  };
  auto serial_opts = small_options(6, 1);
  serial_opts.sim.collect_metrics = true;
  auto parallel_opts = small_options(6, 4);
  parallel_opts.sim.collect_metrics = true;
  const TrialSummary s1 =
      summarize(run_trials(machine, g, scheduler, serial_opts));
  const TrialSummary s4 =
      summarize(run_trials(machine, g, scheduler, parallel_opts));
  ASSERT_FALSE(s1.metrics.empty());
  EXPECT_TRUE(s1.metrics.deterministic_equal(s4.metrics));
  EXPECT_EQ(s1.metrics.counter(obs::Counter::SimRuns), 6u);
  EXPECT_GT(s1.metrics.counter(obs::Counter::SimSteps), 0u);
  if (kObsCompiledIn) {
    EXPECT_GT(s1.metrics.gauge(obs::Gauge::InternerPeakStates), 0u);
  } else {
    EXPECT_EQ(s1.metrics.gauge(obs::Gauge::InternerPeakStates), 0u);
  }
}

TEST(WorkerPool, NonPositiveThreadCountsClampToAtLeastOneWorker) {
  for (const int requested : {0, -1, -100}) {
    WorkerPool pool(requested);
    EXPECT_GE(pool.num_workers(), 1) << "requested " << requested;
    std::atomic<int> ran{0};
    pool.run([&](int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), pool.num_workers());
  }
}

TEST(WorkerPool, SingleThreadRunsInlineOnTheCaller) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.num_workers(), 1);
  const auto caller = std::this_thread::get_id();
  std::thread::id task_thread;
  int task_worker = -1;
  pool.run([&](int worker) {
    task_thread = std::this_thread::get_id();
    task_worker = worker;
  });
  EXPECT_EQ(task_thread, caller);
  EXPECT_EQ(task_worker, 0);
}

TEST(WorkerPool, EveryWorkerGetsADistinctIdEachRun) {
  WorkerPool pool(4);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::atomic<int>> hits(
        static_cast<std::size_t>(pool.num_workers()));
    pool.run([&](int worker) {
      hits[static_cast<std::size_t>(worker)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(WorkerPool, ExceptionOnAnyWorkerReachesTheCaller) {
  // Worker 0 is the caller itself; the last worker is a helper thread.
  WorkerPool pool(4);
  for (const int thrower : {0, pool.num_workers() - 1}) {
    std::atomic<int> finished{0};
    try {
      pool.run([&](int worker) {
        if (worker == thrower) {
          throw std::logic_error("worker " + std::to_string(worker));
        }
        finished.fetch_add(1);
      });
      ADD_FAILURE() << "worker " << thrower << "'s exception was swallowed";
    } catch (const std::logic_error& e) {
      EXPECT_EQ(std::string(e.what()), "worker " + std::to_string(thrower));
    }
    // run() returned only after every other worker was done with the task.
    EXPECT_EQ(finished.load(), pool.num_workers() - 1) << thrower;
    std::atomic<int> ran{0};
    pool.run([&](int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), pool.num_workers()) << "pool unusable after "
                                              << thrower;
  }
}

TEST(Trials, ParallelForRethrowsTheFirstJobException) {
  for (const int threads : {1, 4}) {
    std::atomic<int> ran{0};
    EXPECT_THROW(parallel_for(1000, threads,
                              std::function<void(std::size_t)>(
                                  [&](std::size_t i) {
                                    ran.fetch_add(1);
                                    if (i == 17) {
                                      throw std::runtime_error("job 17");
                                    }
                                  })),
                 std::runtime_error)
        << threads;
    if (threads == 1) {
      EXPECT_EQ(ran.load(), 18);  // inline: stops at the throwing job
    }
  }
}

TEST(Trials, ParallelForResultSlotsStayOrderedUnderContention) {
  // 1000 tiny jobs on 8 threads: each job writes its index into its own
  // slot and records which worker claimed it. Slot contents must be exact
  // (no lost or duplicated indices) and every claimed worker id must be in
  // range — the per-worker scratch contract run_trials relies on.
  constexpr std::size_t kJobs = 1000;
  constexpr int kThreads = 8;
  const int workers = resolve_parallel_threads(kThreads, kJobs);
  EXPECT_LE(workers, kThreads);
  std::vector<std::size_t> slots(kJobs, kJobs);
  std::vector<std::atomic<int>> owner(kJobs);
  parallel_for(kJobs, kThreads,
               std::function<void(int, std::size_t)>(
                   [&](int worker, std::size_t i) {
                     slots[i] = i;
                     owner[i].store(worker);
                   }));
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(slots[i], i);
    EXPECT_GE(owner[i].load(), 0);
    EXPECT_LT(owner[i].load(), workers);
  }
}

TEST(Trials, ResolveParallelThreadsClampsToJobsAndFloorsAtOne) {
  EXPECT_EQ(resolve_parallel_threads(4, 2), 2);
  EXPECT_EQ(resolve_parallel_threads(4, 100), 4);
  EXPECT_GE(resolve_parallel_threads(0, 100), 1);
  EXPECT_GE(resolve_parallel_threads(-3, 100), 1);
  EXPECT_EQ(resolve_parallel_threads(1, 0), 1);  // floor survives zero jobs
}

TEST(Trials, RunJobsPreservesJobOrder) {
  const Graph g = make_line({1, 0, 0, 0});
  std::vector<std::function<SimulateResult()>> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back([i, &g] {
      const auto machine = make_exists_label(1, 2);
      RandomExclusiveScheduler sched(static_cast<std::uint64_t>(i));
      SimulateOptions opts;
      opts.max_steps = 2'000;
      opts.stable_window = 100;
      return simulate(*machine, g, sched, opts);
    });
  }
  const auto serial = run_jobs(jobs, 1);
  const auto parallel = run_jobs(jobs, 3);
  ASSERT_EQ(serial.size(), 5u);
  EXPECT_EQ(serial, parallel);
  for (const auto& r : serial) EXPECT_EQ(r.verdict, Verdict::Accept);
}

}  // namespace
}  // namespace dawn
