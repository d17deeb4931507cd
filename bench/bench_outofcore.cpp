// Out-of-core exploration: the packed store's spill mode on a configuration
// space several times larger than its resident byte budget.
//
// The workload is a flood automaton on an n-cycle: a 0-node flips to 1 as
// soon as a neighbour is 1, and exactly one node starts at 1. The reachable
// configurations are the contiguous 1-arcs containing the seed — about
// n^2/2 of them, each packing to n bits — so the packed arena alone is
// n^3/16 bytes and dwarfs any small max_store_bytes. The space still
// classifies exactly: every non-frozen configuration has a successor, so the
// all-1 configuration is the unique bottom SCC and the decision is Accept.
//
// Gates:
//   * the run must complete (no MemoryCap) with spill_events >= 1, decision
//     Accept and exactly one bottom SCC;
//   * spilled bytes (arena + edges, from the MemoryLedger) must be >= 4x
//     max_store_bytes at full sizing — the "explored a space 4x the
//     in-memory cap" headline;
//   * a truncated instance must decide bit-identically (decision,
//     num_configs, num_bottom_sccs) tiered vs in-memory.
//
// Emits BENCH_outofcore.json (schema v1; validated by bench_schema_check).
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dawn/automata/machine.hpp"
#include "dawn/graph/generators.hpp"
#include "dawn/obs/export.hpp"
#include "dawn/obs/memory_ledger.hpp"
#include "dawn/semantics/decision.hpp"
#include "dawn/util/table.hpp"

namespace dawn {
namespace {

std::shared_ptr<Machine> flood_machine() {
  FunctionMachine::Spec spec;
  spec.beta = 1;
  spec.num_labels = 2;
  spec.num_states = 2;
  spec.init = [](Label l) { return static_cast<State>(l == 1 ? 1 : 0); };
  spec.step = [](State s, const Neighbourhood& n) {
    if (s == 0 && n.count(1) > 0) return static_cast<State>(1);
    return s;
  };
  spec.verdict = [](State s) {
    return s == 1 ? Verdict::Accept : Verdict::Reject;
  };
  return std::make_shared<FunctionMachine>(spec);
}

Graph seeded_cycle(int n) {
  std::vector<Label> labels(static_cast<std::size_t>(n), 0);
  labels[0] = 1;
  return make_cycle(labels);
}

DecisionReport run_decide(const Machine& machine, const Graph& g,
                          std::size_t max_store_bytes) {
  DecisionRequest req;
  req.method = DecideMethod::Explicit;
  req.budget.max_configs = 50'000'000;
  if (max_store_bytes > 0) {
    req.budget.max_store_bytes = max_store_bytes;
    req.budget.spill_dir = ".";
  }
  return decide(machine, g, req);
}

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
      "Out-of-core exploration: tiered store vs its resident byte budget\n"
      "=================================================================\n\n");

  const auto machine = flood_machine();
  const int n = smoke ? 128 : 640;
  const std::size_t budget_bytes = smoke ? (160u << 10) : (4u << 20);

  const Graph g = seeded_cycle(n);
  const auto start = std::chrono::steady_clock::now();
  const DecisionReport report = run_decide(*machine, g, budget_bytes);
  const double seconds = now_minus(start);

  const std::uint64_t arena =
      report.memory.get(obs::MemoryAccount::SpillArenaBytes);
  const std::uint64_t edges =
      report.memory.get(obs::MemoryAccount::SpillEdgeBytes);
  const std::uint64_t resident =
      report.memory.get(obs::MemoryAccount::TieredResidentBytes);
  const std::uint64_t spilled = arena + edges;
  const double ratio =
      static_cast<double>(spilled) / static_cast<double>(budget_bytes);

  Table t({"n", "decision", "configs", "bottom sccs", "resident", "spilled",
           "ratio", "seconds"});
  t.add_row({std::to_string(n), std::string(to_string(report.decision)),
             std::to_string(report.configs_explored),
             std::to_string(report.num_bottom_sccs), std::to_string(resident),
             std::to_string(spilled), std::to_string(ratio).substr(0, 5) + "x",
             std::to_string(seconds).substr(0, 6)});
  t.print();
  std::printf(
      "\nspill breakdown: arena=%llu edges=%llu (budget %zu bytes)\n",
      static_cast<unsigned long long>(arena),
      static_cast<unsigned long long>(edges), budget_bytes);

  // Differential gate: the tiered engine must reproduce the in-memory
  // result bit-for-bit on a truncated instance (both sides complete).
  const int diff_n = 96;
  const Graph diff_g = seeded_cycle(diff_n);
  const DecisionReport mem_report = run_decide(*machine, diff_g, 0);
  const DecisionReport tiered_report =
      run_decide(*machine, diff_g, 128u << 10);
  const bool diff_match =
      mem_report.decision == tiered_report.decision &&
      mem_report.unknown_reason == tiered_report.unknown_reason &&
      mem_report.configs_explored == tiered_report.configs_explored &&
      mem_report.num_bottom_sccs == tiered_report.num_bottom_sccs;
  std::printf(
      "\ndifferential (n=%d): in-memory %s/%zu configs/%zu bottoms vs "
      "tiered %s/%zu/%zu -> %s\n",
      diff_n, to_string(mem_report.decision).c_str(),
      mem_report.configs_explored, mem_report.num_bottom_sccs,
      to_string(tiered_report.decision).c_str(),
      tiered_report.configs_explored, tiered_report.num_bottom_sccs,
      diff_match ? "match" : "MISMATCH");

  obs::BenchReport bench("outofcore", smoke);
  bench.meta("spill_ratio", obs::JsonValue(ratio));
  bench.meta("budget_bytes",
             obs::JsonValue(static_cast<std::uint64_t>(budget_bytes)));
  {
    obs::JsonValue& row = bench.add_row();
    row.set("kind", obs::JsonValue(std::string("outofcore")));
    row.set("n", obs::JsonValue(n));
    row.set("decision", obs::JsonValue(std::string(to_string(report.decision))));
    row.set("configs",
            obs::JsonValue(static_cast<std::uint64_t>(report.configs_explored)));
    row.set("num_bottom_sccs",
            obs::JsonValue(static_cast<std::uint64_t>(report.num_bottom_sccs)));
    row.set("resident_bytes", obs::JsonValue(resident));
    row.set("spill_arena_bytes", obs::JsonValue(arena));
    row.set("spill_edge_bytes", obs::JsonValue(edges));
    row.set("spill_ratio", obs::JsonValue(ratio));
    row.set("seconds", obs::JsonValue(seconds));
  }
  {
    obs::JsonValue& row = bench.add_row();
    row.set("kind", obs::JsonValue(std::string("differential")));
    row.set("n", obs::JsonValue(diff_n));
    row.set("match", obs::JsonValue(diff_match));
    row.set("configs", obs::JsonValue(static_cast<std::uint64_t>(
                           tiered_report.configs_explored)));
  }
  const std::string path = bench.write(".", "outofcore");
  if (!path.empty()) std::printf("\nwrote %s\n", path.c_str());

  // The correctness gates hold in every mode; the >= 4x spill ratio is a
  // full-sizing headline (the smoke instance is too small to amortise the
  // index floor, it just has to spill at all).
  bool ok = report.decision == Decision::Accept &&
            report.num_bottom_sccs == 1 && spilled > 0 && diff_match;
  if (!smoke) ok = ok && ratio >= 4.0;
  std::printf("\n%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
