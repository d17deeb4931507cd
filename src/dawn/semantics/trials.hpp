// Parallel trial runner: fan independent seeded simulations across threads.
//
// Statistical experiments (the Figure 1 grids, scheduler-sensitivity sweeps,
// convergence studies) are embarrassingly parallel: every (input × scheduler
// × seed) cell is an independent simulation. This module runs such cells on
// a std::thread pool while keeping results *deterministic regardless of
// thread count*:
//
//  * each trial's seed is a pure function of (base_seed, trial index) via a
//    splitmix64 mix, never of scheduling order;
//  * each trial owns its scheduler and — through the factory — its machine,
//    so lazily-interning compiled machines (whose mutable interners are not
//    thread-safe) are never shared across threads;
//  * results land in a preallocated slot indexed by trial, so the output
//    order is the trial order, not the completion order.
//
// Two layers: `run_trials` for the common N-seeded-repetitions shape, and
// `run_jobs` for heterogeneous cell grids (each job is an arbitrary closure
// returning a SimulateResult; the closure must own all mutable state it
// touches).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dawn/automata/machine.hpp"
#include "dawn/graph/graph.hpp"
#include "dawn/sched/scheduler.hpp"
#include "dawn/semantics/simulate.hpp"

namespace dawn {

// A persistent team of worker threads for phased parallel algorithms (the
// level-synchronous frontier exploration, the trial runner). Unlike
// the one-shot fan-out below, the threads survive between run() calls, so a
// BFS with thousands of short levels pays thread start-up once, not per
// level.
//
// run(task) executes task(worker) on every worker — the calling thread
// participates as worker 0, the pool contributes workers 1..n-1 — and
// returns when all of them have finished. Calls are serialised (no
// reentrancy). With num_threads <= 1 no threads are spawned and run()
// degenerates to task(0) inline.
class WorkerPool {
 public:
  // num_threads counts the caller: a pool of 4 spawns 3 helper threads.
  // <= 0 means hardware_concurrency.
  explicit WorkerPool(int num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int num_workers() const { return static_cast<int>(helpers_.size()) + 1; }

  void run(const std::function<void(int)>& task);

 private:
  void helper_main(int worker);

  std::vector<std::thread> helpers_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* task_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t done_ = 0;
  bool stop_ = false;
};

// The worker count parallel_for actually uses for `num_jobs` jobs and a
// requested thread count (0 = hardware_concurrency, capped at the job
// count, at least 1). Exposed so callers can pre-size per-worker scratch.
int resolve_parallel_threads(int requested, std::size_t num_jobs);

// One-shot dynamic fan-out: runs job(i) for i in [0, num_jobs) on up to
// num_threads threads (0 = hardware_concurrency), handing out indices
// through an atomic cursor. Each index is executed exactly once; the job
// must own or synchronise any state it shares. Blocks until all jobs
// finish. With one thread (or one job) everything runs inline on the
// caller.
void parallel_for(std::size_t num_jobs, int num_threads,
                  const std::function<void(std::size_t)>& job);

// As above, but the job also receives the worker index in
// [0, resolve_parallel_threads(num_threads, num_jobs)) that claimed it —
// the key to per-worker reusable scratch: job(worker, i) may freely mutate
// scratch[worker], because one worker never runs two jobs concurrently.
void parallel_for(std::size_t num_jobs, int num_threads,
                  const std::function<void(int, std::size_t)>& job);

// Fresh machine per trial. Called on the worker thread that owns the trial;
// must not share mutable state with other trials (compiled machines intern
// states lazily and are not thread-safe).
using MachineFactory = std::function<std::shared_ptr<const Machine>()>;

// Fresh scheduler per trial, seeded with the trial's deterministic seed.
using SchedulerFactory =
    std::function<std::unique_ptr<Scheduler>(std::uint64_t seed)>;

// Whether run_trials may route trials through the SoA batched engine
// (semantics/batched_trials.hpp). Results are bit-identical either way —
// the batched engine is a pure optimisation, pinned by differential tests
// and the scalar-vs-batched fuzz pair.
enum class TrialBatch : std::uint8_t {
  Auto,   // batched when the (machine, scheduler, options) triple qualifies
  Off,    // always the scalar per-trial path (the differential oracle)
  Force,  // batched or DAWN_CHECK failure — for tests and benches
};

struct TrialOptions {
  int num_trials = 8;
  // 0 = hardware_concurrency (at least 1). The result is identical for every
  // value; threads only change wall-clock time.
  int num_threads = 0;
  std::uint64_t base_seed = 0x5eed;
  SimulateOptions sim;
  TrialBatch batch = TrialBatch::Auto;
  // Lanes per lockstep block for the batched engine; clamped to [8, 64].
  // Any width gives identical results (trials are seeded by index, and
  // block boundaries never leak into per-trial state).
  int batch_width = 32;
};

struct TrialOutcome {
  int trial = 0;
  std::uint64_t seed = 0;
  SimulateResult result;
};

struct TrialSummary {
  int num_trials = 0;
  int converged = 0;
  int accepted = 0;  // converged with verdict Accept
  int rejected = 0;  // converged with verdict Reject
  double mean_convergence_step = 0.0;  // over converged trials
  std::uint64_t max_total_steps = 0;
  // Per-trial metrics merged in trial-index order (counters add, gauges
  // max), so the deterministic part is bit-identical for every num_threads.
  // Empty unless SimulateOptions::collect_metrics was set.
  obs::RunMetrics metrics;
};

// Deterministic per-trial seed: splitmix64 of base_seed + trial. Stable
// across platforms and thread counts; exposed so benches can label runs.
std::uint64_t trial_seed(std::uint64_t base_seed, int trial);

// Runs `opts.num_trials` independent simulations of `machine_factory()` on
// `g` under `scheduler_factory(seed_i)`. Outcomes are indexed by trial.
std::vector<TrialOutcome> run_trials(const MachineFactory& machine_factory,
                                     const Graph& g,
                                     const SchedulerFactory& scheduler_factory,
                                     const TrialOptions& opts);

// Lower-level fan-out for heterogeneous grids: runs every job on the pool,
// returning results in job order. Each job must own its machine, graph
// reference and scheduler (no shared mutable state across jobs).
std::vector<SimulateResult> run_jobs(
    std::vector<std::function<SimulateResult()>> jobs, int num_threads = 0);

TrialSummary summarize(const std::vector<TrialOutcome>& outcomes);

}  // namespace dawn
