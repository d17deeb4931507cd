// ExploreBudget: the one resource-limit struct shared by every decider.
//
// Before this header each decision procedure carried its own ad-hoc
// max-configs cap, so budgets could not be threaded uniformly through
// `verify` or the decide() facade, and "ran out of budget" was
// indistinguishable from a genuine Unknown. ExploreBudget unifies the caps
// (configurations, threads, wall-clock); the per-decider alias structs that
// briefly survived the migration are gone — every decider, verify, the
// dawnd service and the benches take an ExploreBudget directly.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>

namespace dawn {

struct ExploreBudget {
  // Abort with Decision::Unknown (reason ConfigCap) if more configurations
  // are reached.
  std::size_t max_configs = 2'000'000;

  // Worker threads for the parallel exploration paths; only they read it.
  // The sequential reference deciders (semantics/sequential_explore.hpp)
  // always run on the calling thread. 1 = one worker (the default; reports
  // are identical at every count); 0 = all hardware threads. Machines whose
  // step() is not thread-safe (see Machine::parallel_step_safe) are
  // transparently clamped to 1.
  int max_threads = 1;

  // Wall-clock deadline in milliseconds; 0 = none. Deadline aborts report
  // UnknownReason::Deadline and are OUTSIDE the determinism contract (how
  // far an exploration gets in a fixed time is machine-dependent).
  std::uint64_t deadline_ms = 0;

  // Opt-in exploration accelerator, honoured by the parallel explicit
  // engine only (the counted backends are already symmetry quotients, and
  // the sequential deciders stay the unreduced differential references —
  // see docs/SYMMETRY.md). use_symmetry interns only canonical
  // orbit representatives under the graph's detected label-preserving
  // automorphisms; the decision is unchanged, but configs/SCC counts shrink
  // by up to the group order.
  //
  // Packing needs no flag: every exploring decide stores configurations
  // packed — ceil(log2|Q|) bits per node when the machine advertises
  // Machine::num_states(), 31 bits otherwise, and one word per (state,
  // count) pair on the counted backends (docs/DECIDERS.md "Exploration
  // accelerators").
  bool use_symmetry = false;

  // Out-of-core exploration (docs/ENGINE.md "The tiered store"). When both
  // max_store_bytes > 0 and spill_dir is set, the parallel explicit engine
  // (table and compiled machines alike; the counted backends stay in
  // memory) runs its one level loop in spill mode: packed config words
  // spill to an unlinked file under spill_dir whenever the resident
  // footprint exceeds max_store_bytes at a level boundary, and edges go to
  // disk in 128 KiB blocks instead of RAM. The budget is enforced per
  // level (resident bytes may overshoot within one BFS level); if the
  // always-resident hash index alone exceeds it, or the classification CSR
  // exceeds max(8 x max_store_bytes, 64 MiB), the run aborts with
  // UnknownReason::MemoryCap — deterministically, because level-end store
  // contents are thread-count-invariant. The index's slot tables are
  // charged at their lower bound, PackedStore::index_bytes(size), a
  // function of the configuration count alone; the shards' power-of-two
  // tables can hold up to index_bytes(size) + 4 KiB more, so resident
  // memory can exceed the budget by that much. 0 / empty = never spill.
  std::size_t max_store_bytes = 0;
  std::string spill_dir = {};

  int resolve_threads() const {
    int t = max_threads;
    if (t <= 0) t = static_cast<int>(std::thread::hardware_concurrency());
    return t < 1 ? 1 : t;
  }

  bool operator==(const ExploreBudget&) const = default;
};

// Cheap deadline checks for exploration loops: reads the clock only when a
// deadline is actually set.
class DeadlineClock {
 public:
  explicit DeadlineClock(const ExploreBudget& budget)
      : enabled_(budget.deadline_ms > 0) {
    if (enabled_) {
      end_ = std::chrono::steady_clock::now() +
             std::chrono::milliseconds(budget.deadline_ms);
    }
  }

  bool enabled() const { return enabled_; }

  bool expired() const {
    return enabled_ && std::chrono::steady_clock::now() >= end_;
  }

  // Milliseconds until the deadline (clamped at 0); -1 when no deadline is
  // set. For progress heartbeats — wall-clock, outside the determinism
  // contract.
  std::int64_t remaining_ms() const {
    if (!enabled_) return -1;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        end_ - std::chrono::steady_clock::now());
    return left.count() < 0 ? 0 : left.count();
  }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point end_;
};

}  // namespace dawn
