// Symmetry reduction + packed-store benchmark for the explicit engine.
//
// Explores identically-labelled cliques and cycles — the best case for
// orbit reduction and a worst case for the plain engine — in three modes:
//   * vector: explore_and_classify_in on the vector store
//     (ShardedConfigStore) with the stock ExplicitExpander — the unpacked
//     reference, since the facade packs every machine that advertises |Q|;
//   * plain: the facade's default, i.e. the same exploration on the packed
//     store;
//   * symmetry: the facade with use_symmetry (packed as well).
// The machine advances its state around a 3-cycle unconditionally, so the
// reachable space from the uniform initial configuration is the full 3^n
// product and the orbit quotient is tiny (multisets on the clique, necklace
// classes on the cycle).
//
// Full-sizing gates (smoke runs only prove determinism and emit the
// report):
//   * symmetry stores >= 4x fewer configurations on both topologies;
//   * the packed store (plain) holds >= 4x fewer bytes than the vector
//     store on the same unreduced exploration (|Q| = 3 <= 16);
//   * >= 1.5x end-to-end effective configs/sec over the vector row on at
//     least one topology, where the reduced run is credited with the
//     unreduced configuration count (it decides the same instance);
//   * every mode's ExplicitResult is bit-identical across 1/2/8 threads.
//
// Emits BENCH_symmetry.json (schema v1; validated by bench_schema_check).
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dawn/automata/machine.hpp"
#include "dawn/graph/generators.hpp"
#include "dawn/obs/export.hpp"
#include "dawn/semantics/explicit_expand.hpp"
#include "dawn/semantics/explicit_space.hpp"
#include "dawn/semantics/parallel_explore.hpp"
#include "dawn/util/table.hpp"

namespace dawn {
namespace {

// Unconditional 3-cycle ticker: never silent, neighbour-independent, so the
// uniform start reaches all 3^n configurations (and the automorphism group
// of the uniform graph acts with maximal effect).
std::shared_ptr<Machine> ticker_machine() {
  FunctionMachine::Spec spec;
  spec.beta = 1;
  spec.num_labels = 2;
  spec.num_states = 3;
  spec.init = [](Label) { return State{0}; };
  spec.step = [](State s, const Neighbourhood&) {
    return static_cast<State>((s + 1) % 3);
  };
  spec.verdict = [](State s) {
    return s == 0 ? Verdict::Accept : Verdict::Reject;
  };
  return std::make_shared<FunctionMachine>(spec);
}

struct Mode {
  std::string name;
  bool vector_store = false;
  bool symmetry = false;
};

// One exploration in `mode`: the facade, or — for the vector row — the
// engine template driven directly on the vector store.
ExplicitResult explore(const Mode& mode, const Machine& m, const Graph& g,
                       const ExploreBudget& budget, ExploreStats* stats) {
  if (!mode.vector_store) {
    return decide_pseudo_stochastic_parallel(m, g, budget, stats);
  }
  ExploreBudget clamped = budget;
  clamped.max_threads = explore_threads(m, budget);
  ShardedConfigStore<Config, VectorHash<State>> store;
  const ExploreOutcome out = explore_and_classify_in<Config>(
      store, initial_config(m, g),
      [&](int) { return ExplicitExpander{m, g, Neighbourhood{}, Config{}}; },
      [&](const Config& c) { return consensus(m, c); }, clamped, stats);
  ExplicitResult r;
  r.decision = out.decision;
  r.reason = out.reason;
  r.num_configs = out.num_configs;
  r.num_bottom_sccs = out.num_bottom_sccs;
  return r;
}

struct Cell {
  std::string topology;
  int n = 0;
  std::string mode;
  std::size_t configs = 0;
  std::size_t store_bytes = 0;
  double seconds = 0.0;
  double configs_per_sec = 0.0;
  // unreduced configurations decided per second: credits a reduced run with
  // the unreduced space it replaced.
  double effective_configs_per_sec = 0.0;
};

double now_minus(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool same_result(const ExplicitResult& a, const ExplicitResult& b) {
  return a.decision == b.decision && a.reason == b.reason &&
         a.num_configs == b.num_configs &&
         a.num_bottom_sccs == b.num_bottom_sccs &&
         a.symmetry_reduced == b.symmetry_reduced &&
         a.packed_store == b.packed_store;
}

}  // namespace
}  // namespace dawn

int main(int argc, char** argv) {
  using namespace dawn;
  const bool smoke = obs::smoke_mode(argc, argv);
  std::printf(
      "Symmetry reduction + packed configuration store\n"
      "===============================================\n\n");

  const auto machine = ticker_machine();
  const std::size_t cap = 20'000'000;
  const int bench_threads = smoke ? 2 : 8;

  struct Case {
    std::string topology;
    Graph graph;
  };
  std::vector<Case> cases;
  if (smoke) {
    cases.push_back({"clique", make_clique(std::vector<Label>(8, 0))});
    cases.push_back({"cycle", make_cycle(std::vector<Label>(9, 0))});
  } else {
    cases.push_back({"clique", make_clique(std::vector<Label>(12, 0))});
    cases.push_back({"cycle", make_cycle(std::vector<Label>(13, 0))});
  }

  const std::vector<Mode> modes = {
      {"vector", true, false},
      {"plain", false, false},
      {"symmetry", false, true},
  };
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 8};

  std::vector<Cell> cells;
  bool gate_cycle_reduction = true;
  bool gate_clique_reduction = true;
  bool gate_packing_bytes = true;
  bool gate_effective_speedup = false;

  Table t({"topology", "n", "mode", "configs", "store KiB", "seconds",
           "configs/sec", "effective/sec"});
  for (const Case& c : cases) {
    std::size_t vector_configs = 0;
    std::size_t vector_bytes = 0;
    double vector_rate = 0.0;
    for (const Mode& mode : modes) {
      ExploreBudget budget = {.max_configs = cap,
                              .max_threads = bench_threads,
                              .use_symmetry = mode.symmetry};
      ExploreStats stats;
      const auto start = std::chrono::steady_clock::now();
      const ExplicitResult r = explore(mode, *machine, c.graph, budget, &stats);
      const double secs = now_minus(start);
      if (r.decision == Decision::Unknown) {
        std::fprintf(stderr, "instance exceeds the bench cap\n");
        return 1;
      }
      if (mode.symmetry && !r.symmetry_reduced) {
        std::fprintf(stderr, "no symmetry detected on a uniform %s\n",
                     c.topology.c_str());
        return 1;
      }

      // Determinism: the full result must be bit-identical at every thread
      // count, reduced or not.
      for (const int threads : thread_counts) {
        ExploreBudget b = budget;
        b.max_threads = threads;
        const ExplicitResult again =
            explore(mode, *machine, c.graph, b, nullptr);
        if (!same_result(again, r)) {
          std::fprintf(stderr,
                       "determinism violation: %s/%s differs at %d threads\n",
                       c.topology.c_str(), mode.name.c_str(), threads);
          return 1;
        }
      }

      Cell cell;
      cell.topology = c.topology;
      cell.n = c.graph.n();
      cell.mode = mode.name;
      cell.configs = r.num_configs;
      cell.store_bytes = stats.store_bytes;
      cell.seconds = secs;
      cell.configs_per_sec = static_cast<double>(r.num_configs) / secs;
      if (mode.vector_store) {
        vector_configs = r.num_configs;
        vector_bytes = stats.store_bytes;
        vector_rate = cell.configs_per_sec;
      }
      cell.effective_configs_per_sec =
          static_cast<double>(vector_configs) / secs;
      cells.push_back(cell);
      t.add_row({cell.topology, std::to_string(cell.n), cell.mode,
                 std::to_string(cell.configs),
                 std::to_string(cell.store_bytes / 1024),
                 std::to_string(cell.seconds).substr(0, 6),
                 std::to_string(static_cast<long long>(cell.configs_per_sec)),
                 std::to_string(
                     static_cast<long long>(cell.effective_configs_per_sec))});

      if (mode.name == "plain") {
        // Packing alone: same exploration, smaller store.
        if (!r.packed_store || r.num_configs != vector_configs ||
            vector_bytes < 4 * cell.store_bytes) {
          gate_packing_bytes = false;
        }
      }
      if (mode.symmetry) {
        const bool reduced_enough = vector_configs >= 4 * r.num_configs;
        if (c.topology == "cycle" && !reduced_enough) {
          gate_cycle_reduction = false;
        }
        if (c.topology == "clique" && !reduced_enough) {
          gate_clique_reduction = false;
        }
        if (vector_rate > 0.0 &&
            cell.effective_configs_per_sec >= 1.5 * vector_rate) {
          gate_effective_speedup = true;
        }
      }
    }
  }
  t.print();

  obs::BenchReport report("symmetry", smoke);
  report.meta("threads", obs::JsonValue(bench_threads));
  report.meta("gate_cycle_reduction_4x", obs::JsonValue(gate_cycle_reduction));
  report.meta("gate_clique_reduction_4x",
              obs::JsonValue(gate_clique_reduction));
  report.meta("gate_packing_bytes_4x", obs::JsonValue(gate_packing_bytes));
  report.meta("gate_effective_speedup_1_5x",
              obs::JsonValue(gate_effective_speedup));
  for (const Cell& c : cells) {
    obs::JsonValue& row = report.add_row();
    row.set("kind", obs::JsonValue(std::string("explore")));
    row.set("topology", obs::JsonValue(c.topology));
    row.set("n", obs::JsonValue(c.n));
    row.set("mode", obs::JsonValue(c.mode));
    row.set("configs", obs::JsonValue(static_cast<std::uint64_t>(c.configs)));
    row.set("store_bytes",
            obs::JsonValue(static_cast<std::uint64_t>(c.store_bytes)));
    row.set("seconds", obs::JsonValue(c.seconds));
    row.set("configs_per_sec", obs::JsonValue(c.configs_per_sec));
    row.set("effective_configs_per_sec",
            obs::JsonValue(c.effective_configs_per_sec));
  }
  const std::string path = report.write(".", "symmetry");
  if (!path.empty()) std::printf("\nwrote %s\n", path.c_str());

  // Smoke runs prove the modes execute, agree across thread counts and emit
  // a schema-valid report; the reduction/packing/speedup gates are sized
  // for the full run.
  if (smoke) return 0;
  std::printf(
      "\ngates: cycle-reduction>=4x %s, clique-reduction>=4x %s, "
      "packing-bytes>=4x %s, effective-speedup>=1.5x %s\n",
      gate_cycle_reduction ? "PASS" : "FAIL",
      gate_clique_reduction ? "PASS" : "FAIL",
      gate_packing_bytes ? "PASS" : "FAIL",
      gate_effective_speedup ? "PASS" : "FAIL");
  return (gate_cycle_reduction && gate_clique_reduction &&
          gate_packing_bytes && gate_effective_speedup)
             ? 0
             : 1;
}
