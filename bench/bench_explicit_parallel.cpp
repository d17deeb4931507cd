// Explicit-state engine throughput: sequential BFS vs the frontier-parallel
// sharded engine, plus verify sweeps that ride on it.
//
// Phase A explores the same instances with decide_pseudo_stochastic (the
// sequential reference) and decide_pseudo_stochastic_parallel at 1/2/4/8
// threads and at t = the host's hardware threads, checks the decisions
// agree, and reports configs/sec (best of 3 repetitions per cell at full
// size). The gate is keyed to the host and never skips at full size: the
// headline cell, the largest instance (cycle-13) at t workers, must reach
// 0.6 * t the sequential decider's configs/sec, and one parallel worker
// must be no slower than the sequential decider on every instance.
//
// Phase B runs count_bound=5 verification sweeps of the cutoff and
// threshold protocol families through the new budget-aware verifier
// (instance-level parallelism via the MachineFactory overload), reporting
// capped instances separately from counterexamples.
//
// Emits BENCH_explicit.json (schema v1; validated by bench_schema_check).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dawn/automata/machine.hpp"
#include "dawn/graph/generators.hpp"
#include "dawn/obs/export.hpp"
#include "dawn/props/predicates.hpp"
#include "dawn/protocols/cutoff_construction.hpp"
#include "dawn/protocols/threshold_daf.hpp"
#include "dawn/semantics/explicit_space.hpp"
#include "dawn/semantics/parallel_explore.hpp"
#include "dawn/util/table.hpp"
#include "dawn/verify/verify.hpp"

namespace dawn {
namespace {

// A parallel-safe machine with a non-monotone, many-state reachable space —
// big enough to saturate the workers, bounded enough to classify exactly.
// Nodes chase their neighbours around a K-cycle of states: a node advances
// whenever some neighbour sits one ahead or one behind, so mixed initial
// configurations never freeze and the reachable space approaches K^n.
std::shared_ptr<Machine> chase_machine(int K) {
  FunctionMachine::Spec spec;
  spec.beta = 1;
  spec.num_labels = 2;
  spec.num_states = K;
  spec.init = [K](Label l) { return static_cast<State>(l % K); };
  spec.step = [K](State s, const Neighbourhood& n) {
    const State up = static_cast<State>((s + 1) % K);
    const State down = static_cast<State>((s + K - 1) % K);
    if (n.count(up) > 0 || n.count(down) > 0) return up;
    return s;
  };
  spec.verdict = [](State s) {
    return s == 0 ? Verdict::Accept : Verdict::Reject;
  };
  return std::make_shared<FunctionMachine>(spec);
}

struct Cell {
  std::string topology;
  int n = 0;
  int threads = 0;  // 0 = the sequential reference decider
  std::size_t configs = 0;
  double seconds = 0.0;
  double configs_per_sec = 0.0;
  double speedup = 1.0;  // vs the sequential decider on the same instance
};

struct SweepRow {
  std::string family;
  int instances = 0;
  std::size_t failures = 0;
  std::size_t capped = 0;
  bool ok = false;
  double seconds = 0.0;
};

double now_minus(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace
}  // namespace dawn

int main(int argc, char** argv) {
  using namespace dawn;
  const bool smoke = obs::smoke_mode(argc, argv);
  std::printf(
      "Explicit-state engine: sequential vs frontier-parallel sharded BFS\n"
      "==================================================================\n\n");

  const auto machine = chase_machine(3);
  const std::size_t cap = 20'000'000;
  const int reps = smoke ? 1 : 3;
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  struct Case {
    std::string topology;
    Graph graph;
  };
  std::vector<Case> cases;
  const auto labels = [](int n) {
    std::vector<Label> l(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < n; i += 2) l[static_cast<std::size_t>(i)] = 1;
    return l;
  };
  if (smoke) {
    cases.push_back({"clique", make_clique(labels(8))});
    cases.push_back({"cycle", make_cycle(labels(9))});
  } else {
    cases.push_back({"clique", make_clique(labels(11))});
    cases.push_back({"clique", make_clique(labels(12))});
    cases.push_back({"cycle", make_cycle(labels(12))});
    cases.push_back({"cycle", make_cycle(labels(13))});
  }

  std::vector<int> thread_counts{1, 2};
  if (!smoke) {
    thread_counts = {1, 2, 4, 8, cores};
    std::sort(thread_counts.begin(), thread_counts.end());
    thread_counts.erase(
        std::unique(thread_counts.begin(), thread_counts.end()),
        thread_counts.end());
  }
  const int headline_threads = smoke ? 2 : cores;

  std::vector<Cell> cells;
  double headline = 0.0;
  bool one_worker_keeps_up = true;  // parallel-1 >= sequential everywhere
  Table t({"topology", "n", "engine", "configs", "seconds", "configs/sec",
           "speedup"});
  for (const Case& c : cases) {
    // Sequential reference (best of reps).
    Cell seq;
    seq.topology = c.topology;
    seq.n = c.graph.n();
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      const auto r =
          decide_pseudo_stochastic(*machine, c.graph, {.max_configs = cap});
      const double secs = now_minus(start);
      if (r.decision == Decision::Unknown) {
        std::fprintf(stderr, "instance exceeds the bench cap\n");
        return 1;
      }
      const double rate = static_cast<double>(r.num_configs) / secs;
      if (rate > seq.configs_per_sec) {
        seq.configs = r.num_configs;
        seq.seconds = secs;
        seq.configs_per_sec = rate;
      }
    }
    cells.push_back(seq);
    t.add_row({seq.topology, std::to_string(seq.n), "sequential",
               std::to_string(seq.configs),
               std::to_string(seq.seconds).substr(0, 6),
               std::to_string(static_cast<long long>(seq.configs_per_sec)),
               "-"});

    for (const int threads : thread_counts) {
      Cell cell;
      cell.topology = c.topology;
      cell.n = c.graph.n();
      cell.threads = threads;
      for (int rep = 0; rep < reps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        const auto r = decide_pseudo_stochastic_parallel(
            *machine, c.graph,
            {.max_configs = cap, .max_threads = threads});
        const double secs = now_minus(start);
        const double rate = static_cast<double>(r.num_configs) / secs;
        if (rate > cell.configs_per_sec) {
          cell.configs = r.num_configs;
          cell.seconds = secs;
          cell.configs_per_sec = rate;
        }
      }
      if (cell.configs != seq.configs) {
        std::fprintf(stderr,
                     "determinism violation: %zu configs at %d threads vs "
                     "%zu sequential\n",
                     cell.configs, threads, seq.configs);
        return 1;
      }
      cell.speedup = seq.configs_per_sec > 0.0
                         ? cell.configs_per_sec / seq.configs_per_sec
                         : 0.0;
      cells.push_back(cell);
      t.add_row({cell.topology, std::to_string(cell.n),
                 "parallel-" + std::to_string(threads),
                 std::to_string(cell.configs),
                 std::to_string(cell.seconds).substr(0, 6),
                 std::to_string(static_cast<long long>(cell.configs_per_sec)),
                 std::to_string(cell.speedup).substr(0, 5) + "x"});
      if (threads == 1 && cell.speedup < 1.0) one_worker_keeps_up = false;
      if (&c == &cases.back() && threads == headline_threads) {
        headline = cell.speedup;
      }
    }
  }
  t.print();
  const double target = 0.6 * headline_threads;
  std::printf(
      "\nheadline (largest instance, %d threads): %.2fx configs/sec over "
      "the sequential decider (target >= %.2fx at full sizing)\n"
      "parallel-1 >= 1.0x the sequential decider on every instance: %s\n",
      headline_threads, headline, target, one_worker_keeps_up ? "yes" : "no");

  // Phase B: count_bound=5 sweeps through the budget-aware verifier. The
  // factory overload hands every worker its own compiled machine, so the
  // sweep parallelises across instances for any machine.
  std::printf("\ncount_bound=5 verification sweeps (counted cliques):\n");
  struct Family {
    std::string name;
    MachineFactory factory;
    LabellingPredicate pred;
  };
  const std::vector<Family> families = {
      {"cutoff1(exists)",
       [] { return make_cutoff1_automaton(pred_exists(1, 2)); },
       pred_exists(1, 2)},
      {"threshold(k=2)", [] { return make_threshold_daf(2, 0, 2); },
       pred_threshold(0, 2, 2)},
      {"threshold(k=4)", [] { return make_threshold_daf(4, 0, 2); },
       pred_threshold(0, 4, 2)},
  };
  std::vector<SweepRow> sweeps;
  for (const Family& f : families) {
    VerifyOptions opts;
    opts.count_bound = 5;
    opts.budget = {.max_configs = smoke ? 200'000u : 2'000'000u,
                   .max_threads = 1, .deadline_ms = 0};
    opts.instance_threads = 0;  // all hardware threads, across instances
    const auto start = std::chrono::steady_clock::now();
    const auto report = verify_machine_on_cliques(f.factory, f.pred, opts);
    SweepRow row;
    row.family = f.name;
    row.instances = report.instances;
    row.failures = report.failures.size();
    row.capped = report.capped.size();
    row.ok = report.ok();
    row.seconds = now_minus(start);
    sweeps.push_back(row);
    std::printf("  %-16s %3d instances, %zu failures, %zu capped, %.2fs%s\n",
                f.name.c_str(), row.instances, row.failures, row.capped,
                row.seconds, row.ok ? "" : " [NOT OK]");
  }

  obs::BenchReport report("explicit_parallel", smoke);
  report.meta("headline_speedup", obs::JsonValue(headline));
  report.meta("headline_threads", obs::JsonValue(headline_threads));
  report.meta("headline_target", obs::JsonValue(target));
  report.meta("parallel1_keeps_up", obs::JsonValue(one_worker_keeps_up));
  report.meta("hardware_threads", obs::JsonValue(cores));
  for (const Cell& c : cells) {
    obs::JsonValue& row = report.add_row();
    row.set("kind", obs::JsonValue(std::string("explore")));
    row.set("topology", obs::JsonValue(c.topology));
    row.set("n", obs::JsonValue(c.n));
    row.set("threads", obs::JsonValue(c.threads));
    row.set("configs", obs::JsonValue(static_cast<std::uint64_t>(c.configs)));
    row.set("seconds", obs::JsonValue(c.seconds));
    row.set("configs_per_sec", obs::JsonValue(c.configs_per_sec));
    row.set("speedup", obs::JsonValue(c.speedup));
  }
  for (const SweepRow& s : sweeps) {
    obs::JsonValue& row = report.add_row();
    row.set("kind", obs::JsonValue(std::string("verify_sweep")));
    row.set("family", obs::JsonValue(s.family));
    row.set("count_bound", obs::JsonValue(5));
    row.set("instances", obs::JsonValue(s.instances));
    row.set("failures", obs::JsonValue(static_cast<std::uint64_t>(s.failures)));
    row.set("capped", obs::JsonValue(static_cast<std::uint64_t>(s.capped)));
    row.set("ok", obs::JsonValue(s.ok));
    row.set("seconds", obs::JsonValue(s.seconds));
  }
  const std::string path = report.write(".", "explicit");
  if (!path.empty()) std::printf("\nwrote %s\n", path.c_str());

  bool sweeps_clean = true;
  for (const SweepRow& s : sweeps) sweeps_clean &= s.failures == 0;
  // The scaling gate means something only at full sizing. Smoke runs prove
  // the bench executes, stays deterministic across thread counts and emits
  // a schema-valid report.
  if (smoke) return sweeps_clean ? 0 : 1;
  return (headline >= target && one_worker_keeps_up && sweeps_clean) ? 0 : 1;
}
