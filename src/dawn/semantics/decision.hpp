// The outcome of a decision procedure, and the unified decider facade.
//
// Every exact backend (explicit, counted-clique, counted-star, synchronous)
// and the statistical simulate backend is reachable through one entry
// point:
//
//   DecisionReport r = dawn::decide(machine, g, {.method = DecideMethod::Auto});
//
// The facade picks the cheapest sound backend for the topology (counted
// semantics on cliques and stars, the sharded parallel explicit engine
// elsewhere), threads one ExploreBudget through whichever backend runs, and
// reports the method used, the configurations explored, and — when the
// budget was exhausted — an explicit UnknownReason instead of a silent
// Decision::Unknown.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "dawn/automata/machine.hpp"
#include "dawn/graph/graph.hpp"
#include "dawn/obs/memory_ledger.hpp"
#include "dawn/semantics/budget.hpp"

namespace dawn {

enum class Decision {
  Accept,
  Reject,
  // The automaton violates the consistency condition on this input: some
  // fair runs accept and others reject (or some fair run never stabilises).
  Inconsistent,
  // The procedure could not decide; see UnknownReason for why.
  Unknown,
};

// Why a procedure returned Decision::Unknown. Decision results used to
// conflate "budget cap hit" with genuine unknowns; every decider result now
// carries one of these so callers (verify, the benches, the CLI) can list
// capped instances separately from counterexamples.
enum class UnknownReason : std::uint8_t {
  None,          // decision is not Unknown
  ConfigCap,     // ExploreBudget::max_configs exhausted
  Deadline,      // ExploreBudget::deadline_ms exceeded
  StepCap,       // bounded-run budget exhausted (synchronous / simulate)
  Inconclusive,  // statistical backend finished without certifying a verdict
  CrossCheck,    // differential cross-check mismatch (an engine bug)
  MemoryCap,     // ExploreBudget::max_store_bytes too small for the
                 // always-resident index or the classification CSR (tiered
                 // store), or spill I/O failed
};

// Whether an Unknown ran out of budget (DecisionReport::budget_exhausted):
// every reason but None and CrossCheck, an engine bug rather than a budget.
constexpr bool is_exhaustion(UnknownReason r) {
  return r == UnknownReason::ConfigCap || r == UnknownReason::Deadline ||
         r == UnknownReason::StepCap || r == UnknownReason::Inconclusive ||
         r == UnknownReason::MemoryCap;
}

inline std::string to_string(Decision d) {
  switch (d) {
    case Decision::Accept:
      return "accept";
    case Decision::Reject:
      return "reject";
    case Decision::Inconsistent:
      return "inconsistent";
    case Decision::Unknown:
      return "unknown";
  }
  return "?";
}

inline std::string to_string(UnknownReason r) {
  switch (r) {
    case UnknownReason::None:
      return "none";
    case UnknownReason::ConfigCap:
      return "config-cap";
    case UnknownReason::Deadline:
      return "deadline";
    case UnknownReason::StepCap:
      return "step-cap";
    case UnknownReason::Inconclusive:
      return "inconclusive";
    case UnknownReason::CrossCheck:
      return "cross-check";
    case UnknownReason::MemoryCap:
      return "memory-cap";
  }
  return "?";
}

// What every exploring decider returns, sequential or parallel: the
// bottom-SCC verdict of the reachable configuration graph, why it is
// Unknown (if it is), the configurations explored and the bottom SCCs.
// A ConfigCap run reports num_configs == budget.max_configs, a Deadline run
// the count reached (clamped to the cap), and neither counts bottom SCCs.
struct ExploreOutcome {
  Decision decision = Decision::Unknown;
  UnknownReason reason = UnknownReason::None;
  std::size_t num_configs = 0;
  std::size_t num_bottom_sccs = 0;
};

// The backend a DecisionRequest routes to.
enum class DecideMethod : std::uint8_t {
  Auto,            // clique -> CountedClique, star -> CountedStar, else Explicit
  Explicit,        // sharded parallel explicit-state engine (exclusive sel.)
  ExplicitLiberal, // liberal selection, 2^n subsets — tiny graphs only
  CountedClique,   // counted configurations (graph must be a clique)
  CountedStar,     // counted configurations (graph must be a star)
  Synchronous,     // the deterministic synchronous run's limit cycle
  Simulate,        // statistical: one seeded pseudo-stochastic run
};

inline std::string to_string(DecideMethod m) {
  switch (m) {
    case DecideMethod::Auto:
      return "auto";
    case DecideMethod::Explicit:
      return "explicit";
    case DecideMethod::ExplicitLiberal:
      return "explicit-liberal";
    case DecideMethod::CountedClique:
      return "counted-clique";
    case DecideMethod::CountedStar:
      return "counted-star";
    case DecideMethod::Synchronous:
      return "synchronous";
    case DecideMethod::Simulate:
      return "simulate";
  }
  return "?";
}

struct DecisionRequest {
  DecideMethod method = DecideMethod::Auto;
  // Facade default: use every hardware thread. The parallel engines are
  // bit-identical to the sequential reference for every thread count, so
  // this only changes wall-clock time.
  ExploreBudget budget = [] {
    ExploreBudget b;
    b.max_threads = 0;
    return b;
  }();
  // Differentially pin the parallel engine against the sequential reference
  // decider (where one exists). A mismatch — which would be an engine bug —
  // reports Decision::Unknown with UnknownReason::CrossCheck.
  bool cross_check = false;
  // Simulate backend only.
  std::uint64_t sim_max_steps = 1'000'000;
  std::uint64_t sim_stable_window = 10'000;
  std::uint64_t sim_seed = 0x5eed;
};

// One report shape for every backend. For a fixed (machine, graph, request
// modulo max_threads) the report is bit-identical for every thread count —
// the facade's determinism contract (deadline aborts excepted; see
// docs/DECIDERS.md).
struct DecisionReport {
  Decision decision = Decision::Unknown;
  UnknownReason unknown_reason = UnknownReason::None;
  // The backend that actually ran (never Auto).
  DecideMethod method = DecideMethod::Explicit;
  // Configurations explored (counted configurations for the counted
  // backends, run steps for synchronous/simulate). Clamped to
  // budget.max_configs when the cap was hit, so capped reports are
  // thread-count-independent too.
  std::size_t configs_explored = 0;
  // Bottom SCCs of the reachable configuration graph; 0 for backends that
  // do not classify SCCs (synchronous, simulate) and for capped runs.
  std::size_t num_bottom_sccs = 0;
  bool budget_exhausted = false;
  // False for the statistical simulate backend.
  bool exact = true;
  // Whether the explicit engine explored the quotient by the graph's
  // automorphism group (budget.use_symmetry and a nontrivial group was
  // found — configs_explored / num_bottom_sccs then count orbits), and
  // whether the exploration engine interned into the packed store: true
  // for every Explicit, CountedClique and CountedStar decide, false for
  // the backends that do not run the engine.
  bool symmetry_reduced = false;
  bool packed_store = false;
  // Peak bytes per memory account (config store, frontier, edge buffers,
  // interner, trial blocks), filled by the backend that ran. Only
  // thread-count-invariant quantities are accounted, and capped/deadline
  // runs leave the store/frontier/edge accounts empty, so the ledger is
  // covered by the bit-identical contract above (obs/memory_ledger.hpp).
  obs::MemoryLedger memory;

  bool ok() const { return decision != Decision::Unknown; }
  bool operator==(const DecisionReport&) const = default;
};

// The unified decider. Dispatches per request.method; Auto inspects the
// topology. CountedClique/CountedStar requests on a non-clique/non-star
// graph are a programming error (checked).
DecisionReport decide(const Machine& machine, const Graph& g,
                      const DecisionRequest& request = {});

}  // namespace dawn
