// Symmetry reduction + packed-store benchmark for the explicit engine.
//
// Explores identically-labelled cliques and cycles — the best case for
// orbit reduction and a worst case for the plain engine. The machine
// advances its state around a 3-cycle unconditionally, so the reachable
// space from the uniform initial configuration is the full 3^n product and
// the orbit quotient is tiny (multisets on the clique, necklace classes on
// the cycle). Three rows per topology:
//   * vector: no exploration. Every configuration of the 3^n product is
//     interned into the vector store (ShardedConfigStore), the node-based
//     map the packed store replaced, for its store bytes: the unpacked
//     size of what the plain row stores;
//   * plain: the facade's default, the engine on the packed store; it must
//     explore exactly 3^n configurations (checked, smoke runs included);
//   * symmetry: the facade with use_symmetry (packed as well).
//
// Full-sizing gates (smoke runs only prove determinism and emit the
// report):
//   * symmetry stores >= 4x fewer configurations than plain on both
//     topologies;
//   * the packed store (plain) holds >= 4x fewer bytes than the vector
//     store holding the same 3^n configurations (|Q| = 3 <= 16);
//   * >= 1.5x end-to-end effective configs/sec over the plain row on at
//     least one topology, where the reduced run is credited with the
//     unreduced configuration count (it decides the same instance);
//   * every explored row's ExplicitResult is bit-identical across 1/2/8
//     threads.
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
#include "dawn/semantics/explicit_space.hpp"
#include "dawn/semantics/parallel_explore.hpp"
#include "dawn/util/hash.hpp"
#include "dawn/util/table.hpp"

namespace dawn {
namespace {

constexpr int kTickerStates = 3;

// Unconditional 3-cycle ticker: never silent, neighbour-independent, so the
// uniform start reaches all 3^n configurations (and the automorphism group
// of the uniform graph acts with maximal effect).
std::shared_ptr<Machine> ticker_machine() {
  FunctionMachine::Spec spec;
  spec.beta = 1;
  spec.num_labels = 2;
  spec.num_states = kTickerStates;
  spec.init = [](Label) { return State{0}; };
  spec.step = [](State s, const Neighbourhood&) {
    return static_cast<State>((s + 1) % kTickerStates);
  };
  spec.verdict = [](State s) {
    return s == 0 ? Verdict::Accept : Verdict::Reject;
  };
  return std::make_shared<FunctionMachine>(spec);
}

struct Interned {
  std::size_t configs = 0;
  std::size_t bytes = 0;
};

// The vector row: every configuration of the ticker's 3^n product, counted
// up in base 3, interned into the vector store. `configs` is 3^n.
Interned intern_full_space(int n) {
  ShardedConfigStore<Config, VectorHash<State>> store;
  Config c(static_cast<std::size_t>(n), 0);
  for (;;) {
    store.intern(c);
    std::size_t v = 0;
    while (v < c.size() && ++c[v] == kTickerStates) c[v++] = 0;
    if (v == c.size()) break;
  }
  return {store.size(), store.bytes()};
}

struct Mode {
  std::string name;
  bool symmetry = false;
};

struct Cell {
  std::string topology;
  int n = 0;
  std::string mode;
  bool explored = true;  // false for the vector row, which only interns
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
         a.symmetry_reduced == b.symmetry_reduced;
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

  const std::vector<Mode> modes = {{"plain", false}, {"symmetry", true}};
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
    const Interned vector = intern_full_space(c.graph.n());
    Cell vector_cell;
    vector_cell.topology = c.topology;
    vector_cell.n = c.graph.n();
    vector_cell.mode = "vector";
    vector_cell.explored = false;
    vector_cell.configs = vector.configs;
    vector_cell.store_bytes = vector.bytes;
    cells.push_back(vector_cell);
    t.add_row({c.topology, std::to_string(c.graph.n()), "vector",
               std::to_string(vector.configs),
               std::to_string(vector.bytes / 1024), "-", "-", "-"});

    std::size_t plain_configs = 0;
    double plain_rate = 0.0;
    for (const Mode& mode : modes) {
      ExploreBudget budget = {.max_configs = cap,
                              .max_threads = bench_threads,
                              .use_symmetry = mode.symmetry};
      ExploreStats stats;
      const auto start = std::chrono::steady_clock::now();
      const ExplicitResult r =
          decide_pseudo_stochastic_parallel(*machine, c.graph, budget, &stats);
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
      if (!mode.symmetry && r.num_configs != vector.configs) {
        std::fprintf(stderr,
                     "plain %s explored %zu configurations, not 3^%d = %zu\n",
                     c.topology.c_str(), r.num_configs, c.graph.n(),
                     vector.configs);
        return 1;
      }

      // Determinism: the full result must be bit-identical at every thread
      // count, reduced or not.
      for (const int threads : thread_counts) {
        ExploreBudget b = budget;
        b.max_threads = threads;
        const ExplicitResult again =
            decide_pseudo_stochastic_parallel(*machine, c.graph, b);
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
      if (!mode.symmetry) {
        plain_configs = r.num_configs;
        plain_rate = cell.configs_per_sec;
        // Packing alone: the same 3^n configurations, a smaller store.
        if (vector.bytes < 4 * cell.store_bytes) gate_packing_bytes = false;
      }
      cell.effective_configs_per_sec =
          static_cast<double>(plain_configs) / secs;
      cells.push_back(cell);
      t.add_row({cell.topology, std::to_string(cell.n), cell.mode,
                 std::to_string(cell.configs),
                 std::to_string(cell.store_bytes / 1024),
                 std::to_string(cell.seconds).substr(0, 6),
                 std::to_string(static_cast<long long>(cell.configs_per_sec)),
                 std::to_string(
                     static_cast<long long>(cell.effective_configs_per_sec))});

      if (mode.symmetry) {
        const bool reduced_enough = plain_configs >= 4 * r.num_configs;
        if (c.topology == "cycle" && !reduced_enough) {
          gate_cycle_reduction = false;
        }
        if (c.topology == "clique" && !reduced_enough) {
          gate_clique_reduction = false;
        }
        if (plain_rate > 0.0 &&
            cell.effective_configs_per_sec >= 1.5 * plain_rate) {
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
    row.set("kind",
            obs::JsonValue(std::string(c.explored ? "explore" : "intern")));
    row.set("topology", obs::JsonValue(c.topology));
    row.set("n", obs::JsonValue(c.n));
    row.set("mode", obs::JsonValue(c.mode));
    row.set("configs", obs::JsonValue(static_cast<std::uint64_t>(c.configs)));
    row.set("store_bytes",
            obs::JsonValue(static_cast<std::uint64_t>(c.store_bytes)));
    if (!c.explored) continue;
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
