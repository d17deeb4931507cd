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
// The instance runs twice: on every hardware thread, where the owners
// intern and spool in parallel, and on one worker.
//
// Gates, on both rows:
//   * the run must complete (no MemoryCap) with spill_events >= 1, decision
//     Accept and exactly one bottom SCC;
//   * spilled bytes (arena + edges, from the MemoryLedger) must be >= 4x
//     max_store_bytes at full sizing — the "explored a space 4x the
//     in-memory cap" headline;
//   * the two rows' reports, ledger included, must be identical;
//   * a truncated instance must decide bit-identically (decision,
//     num_configs, num_bottom_sccs) tiered vs in-memory.
//
// Also reports the process's peak resident set (VmHWM) after each
// full-size row. It is a high-water mark of the whole process: the second
// row adds to it whatever heap the allocator kept from the first.
// Emits BENCH_outofcore.json (schema v1; validated by bench_schema_check).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
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

// threads: 0 = every hardware thread.
DecisionReport run_decide(const Machine& machine, const Graph& g,
                          std::size_t max_store_bytes, int threads) {
  DecisionRequest req;
  req.method = DecideMethod::Explicit;
  req.budget.max_configs = 50'000'000;
  req.budget.max_threads = threads;
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

// Peak resident set of this process in MiB: VmHWM from /proc/self/status
// (getrusage's ru_maxrss carries the launching process's peak across exec).
// 0 where the file is missing.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// One full-size spilling decide.
struct SpillRow {
  int threads = 1;
  DecisionReport report;
  double seconds = 0.0;
  std::uint64_t arena = 0;
  std::uint64_t edges = 0;
  std::uint64_t resident = 0;
  double ratio = 0.0;
  double peak_rss_mb = 0.0;  // the process's VmHWM after this row
};

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
  std::vector<SpillRow> rows;
  for (const int threads : {0, 1}) {
    SpillRow row;
    row.threads = threads;
    const auto start = std::chrono::steady_clock::now();
    row.report = run_decide(*machine, g, budget_bytes, threads);
    row.seconds = now_minus(start);
    row.arena = row.report.memory.get(obs::MemoryAccount::SpillArenaBytes);
    row.edges = row.report.memory.get(obs::MemoryAccount::SpillEdgeBytes);
    row.resident =
        row.report.memory.get(obs::MemoryAccount::TieredResidentBytes);
    row.ratio = static_cast<double>(row.arena + row.edges) /
                static_cast<double>(budget_bytes);
    row.peak_rss_mb = peak_rss_mb();
    rows.push_back(row);
  }
  const bool rows_identical = rows[0].report == rows[1].report;

  Table t({"n", "threads", "decision", "configs", "bottom sccs", "resident",
           "spilled", "ratio", "seconds", "peak RSS MiB"});
  for (const SpillRow& row : rows) {
    const std::string threads =
        row.threads == 0 ? std::string("all") : std::to_string(row.threads);
    t.add_row({std::to_string(n), threads,
               std::string(to_string(row.report.decision)),
               std::to_string(row.report.configs_explored),
               std::to_string(row.report.num_bottom_sccs),
               std::to_string(row.resident),
               std::to_string(row.arena + row.edges),
               std::to_string(row.ratio).substr(0, 5) + "x",
               std::to_string(row.seconds).substr(0, 6),
               std::to_string(row.peak_rss_mb).substr(0, 5)});
  }
  t.print();
  std::printf(
      "\nspill breakdown: arena=%llu edges=%llu (budget %zu bytes); reports "
      "%s across thread counts\n",
      static_cast<unsigned long long>(rows[0].arena),
      static_cast<unsigned long long>(rows[0].edges), budget_bytes,
      rows_identical ? "identical" : "DIFFER");

  // Differential gate: the tiered engine must reproduce the in-memory
  // result bit-for-bit on a truncated instance (both sides complete).
  const int diff_n = 96;
  const Graph diff_g = seeded_cycle(diff_n);
  const DecisionReport mem_report = run_decide(*machine, diff_g, 0, 0);
  const DecisionReport tiered_report =
      run_decide(*machine, diff_g, 128u << 10, 0);
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
  bench.meta("spill_ratio", obs::JsonValue(rows[0].ratio));
  bench.meta("budget_bytes",
             obs::JsonValue(static_cast<std::uint64_t>(budget_bytes)));
  bench.meta("peak_rss_mb", obs::JsonValue(rows.back().peak_rss_mb));
  for (const SpillRow& r : rows) {
    obs::JsonValue& row = bench.add_row();
    row.set("kind", obs::JsonValue(std::string("outofcore")));
    row.set("n", obs::JsonValue(n));
    row.set("threads", obs::JsonValue(r.threads));
    row.set("decision",
            obs::JsonValue(std::string(to_string(r.report.decision))));
    row.set("configs", obs::JsonValue(static_cast<std::uint64_t>(
                           r.report.configs_explored)));
    row.set("num_bottom_sccs", obs::JsonValue(static_cast<std::uint64_t>(
                                   r.report.num_bottom_sccs)));
    row.set("resident_bytes", obs::JsonValue(r.resident));
    row.set("spill_arena_bytes", obs::JsonValue(r.arena));
    row.set("spill_edge_bytes", obs::JsonValue(r.edges));
    row.set("spill_ratio", obs::JsonValue(r.ratio));
    row.set("seconds", obs::JsonValue(r.seconds));
    row.set("peak_rss_mb", obs::JsonValue(r.peak_rss_mb));
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
  bool ok = rows_identical && diff_match;
  for (const SpillRow& row : rows) {
    ok = ok && row.report.decision == Decision::Accept &&
         row.report.num_bottom_sccs == 1 && row.arena + row.edges > 0;
    if (!smoke) ok = ok && row.ratio >= 4.0;
  }
  std::printf("\n%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
