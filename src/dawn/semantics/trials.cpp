#include "dawn/semantics/trials.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <utility>

#include "dawn/obs/telemetry.hpp"
#include "dawn/semantics/batched_trials.hpp"
#include "dawn/util/check.hpp"

namespace dawn {

int resolve_parallel_threads(int requested, std::size_t num_jobs) {
  int t = requested;
  if (t <= 0) t = static_cast<int>(std::thread::hardware_concurrency());
  if (t <= 0) t = 1;
  if (static_cast<std::size_t>(t) > num_jobs) t = static_cast<int>(num_jobs);
  return t < 1 ? 1 : t;
}

WorkerPool::WorkerPool(int num_threads) {
  int t = num_threads;
  if (t <= 0) t = static_cast<int>(std::thread::hardware_concurrency());
  if (t < 1) t = 1;
  helpers_.reserve(static_cast<std::size_t>(t - 1));
  for (int w = 1; w < t; ++w) {
    helpers_.emplace_back([this, w] { helper_main(w); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& th : helpers_) th.join();
}

void WorkerPool::helper_main(int worker) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* task = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      task = task_;
    }
    std::exception_ptr error;
    try {
      (*task)(worker);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (error && !error_) error_ = error;
      if (++done_ == helpers_.size()) done_cv_.notify_one();
    }
  }
}

void WorkerPool::run(const std::function<void(int)>& task) {
  if (helpers_.empty()) {
    task(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    task_ = &task;
    done_ = 0;
    error_ = nullptr;
    ++generation_;
  }
  start_cv_.notify_all();
  // Worker 0 must not unwind while the helpers still run `task`, whose
  // captures typically live on this stack: catch, wait, then rethrow.
  std::exception_ptr error;
  try {
    task(0);
  } catch (...) {
    error = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (error && !error_) error_ = error;
  done_cv_.wait(lock, [&] { return done_ == helpers_.size(); });
  task_ = nullptr;
  error = std::exchange(error_, nullptr);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

// Work-stealing-free fan-out: an atomic cursor over the job index space.
// Each index is claimed by exactly one worker, so no synchronisation is
// needed beyond the joins. A throwing job stops further claims; the first
// exception is rethrown on the caller once every thread has joined.
void parallel_for(std::size_t num_jobs, int num_threads,
                  const std::function<void(int, std::size_t)>& job) {
  if (num_jobs == 0) return;
  const int threads = resolve_parallel_threads(num_threads, num_jobs);
  if (threads == 1) {
    for (std::size_t i = 0; i < num_jobs; ++i) job(0, i);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  std::mutex error_mu;
  std::exception_ptr error;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads - 1));
  const auto drain = [&](int worker) {
    try {
      for (std::size_t i = cursor.fetch_add(1); i < num_jobs;
           i = cursor.fetch_add(1)) {
        job(worker, i);
      }
    } catch (...) {
      cursor.store(num_jobs);
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  for (int t = 1; t < threads; ++t) pool.emplace_back(drain, t);
  drain(0);
  for (auto& th : pool) th.join();
  if (error) std::rethrow_exception(error);
}

void parallel_for(std::size_t num_jobs, int num_threads,
                  const std::function<void(std::size_t)>& job) {
  parallel_for(num_jobs, num_threads,
               std::function<void(int, std::size_t)>(
                   [&job](int, std::size_t i) { job(i); }));
}

std::uint64_t trial_seed(std::uint64_t base_seed, int trial) {
  // splitmix64 (Steele et al.): a bijective mix, so distinct trials never
  // collide and the stream is independent of evaluation order.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ull *
                                    (static_cast<std::uint64_t>(trial) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<TrialOutcome> run_trials(const MachineFactory& machine_factory,
                                     const Graph& g,
                                     const SchedulerFactory& scheduler_factory,
                                     const TrialOptions& opts) {
  DAWN_CHECK(opts.num_trials >= 0);
  DAWN_CHECK(machine_factory != nullptr);
  DAWN_CHECK(scheduler_factory != nullptr);
  if (opts.batch != TrialBatch::Off) {
    auto batched =
        try_run_trials_batched(machine_factory, g, scheduler_factory, opts);
    if (batched.has_value()) return std::move(*batched);
    DAWN_CHECK_MSG(opts.batch != TrialBatch::Force,
                   "TrialBatch::Force, but the triple does not qualify: " +
                       batched_trials_disqualifier(machine_factory, g,
                                                   scheduler_factory, opts));
  }
  std::vector<TrialOutcome> outcomes(
      static_cast<std::size_t>(opts.num_trials));
  // Per-worker reusable buffers: a worker never runs two trials at once, so
  // the steady-state trial loop performs no per-trial heap allocation.
  std::vector<SimulateScratch> scratch(static_cast<std::size_t>(
      resolve_parallel_threads(opts.num_threads, outcomes.size())));
  const obs::Telemetry tel = obs::telemetry();
  parallel_for(outcomes.size(), opts.num_threads,
               std::function<void(int, std::size_t)>(
                   [&, tel](int worker, std::size_t i) {
                     const obs::TelemetryScope telemetry_scope(tel);
                     TrialOutcome& out = outcomes[i];
                     out.trial = static_cast<int>(i);
                     out.seed = trial_seed(opts.base_seed, out.trial);
                     const auto machine = machine_factory();
                     const auto scheduler = scheduler_factory(out.seed);
                     out.result = simulate(*machine, g, *scheduler, opts.sim,
                                           scratch[static_cast<std::size_t>(
                                               worker)]);
                   }));
  return outcomes;
}

std::vector<SimulateResult> run_jobs(
    std::vector<std::function<SimulateResult()>> jobs, int num_threads) {
  std::vector<SimulateResult> results(jobs.size());
  parallel_for(jobs.size(), num_threads,
               [&](std::size_t i) { results[i] = jobs[i](); });
  return results;
}

TrialSummary summarize(const std::vector<TrialOutcome>& outcomes) {
  TrialSummary s;
  s.num_trials = static_cast<int>(outcomes.size());
  double total_convergence = 0.0;
  for (const auto& o : outcomes) {
    s.max_total_steps = std::max(s.max_total_steps, o.result.total_steps);
    s.metrics.merge(o.result.metrics);  // trial-index order: deterministic
    if (!o.result.converged) continue;
    ++s.converged;
    if (o.result.verdict == Verdict::Accept) ++s.accepted;
    if (o.result.verdict == Verdict::Reject) ++s.rejected;
    total_convergence += static_cast<double>(o.result.convergence_step);
  }
  if (s.converged > 0) {
    s.mean_convergence_step = total_convergence / s.converged;
  }
  return s;
}

}  // namespace dawn
