// Layer probes: the traced run's view of where a workload's time goes.
//
// Exploration is replayed as a sequential BFS built only from the library's
// public pieces (Neighbourhood::of_into, Machine::step, counted_successor,
// ShardedConfigStore::intern, classify_bottom_sccs). Each level is cut into
// chunks, and each chunk runs one layer at a time (all neighbourhoods, then
// all steps, then all copies), so a layer is timed over a batch rather than
// with a clock read around every nanosecond-scale call. The replay must
// reproduce the engine's report: configs, bottom SCCs and decision.
#pragma once

#include <cstddef>

#include "dawn/automata/machine.hpp"
#include "dawn/graph/graph.hpp"
#include "dawn/semantics/decision.hpp"

namespace perfbench {

struct ReplayResult {
  std::size_t configs = 0;
  std::size_t successors = 0;  // non-silent successors, duplicates included
  std::size_t bottom_sccs = 0;
  dawn::Decision decision = dawn::Decision::Unknown;
  // Busy time per layer and the number of calls it covers.
  double neighbourhood_s = 0.0;
  std::size_t neighbourhood_calls = 0;
  double step_s = 0.0;
  std::size_t step_calls = 0;
  double counted_successor_s = 0.0;
  std::size_t counted_successor_calls = 0;
  double intern_s = 0.0;
  std::size_t intern_calls = 0;
  double scc_s = 0.0;
  double total_s = 0.0;

  // Busy time of the named layers (the rest is copies, bookkeeping, the
  // adjacency build and teardown).
  double attributed_s() const {
    return neighbourhood_s + step_s + counted_successor_s + intern_s + scc_s;
  }
};

// Explicit configurations under exclusive selection (the Explicit backend).
ReplayResult replay_explicit(const dawn::Machine& machine,
                             const dawn::Graph& g);

// Counted configurations on a clique (the CountedClique backend).
ReplayResult replay_counted(const dawn::Machine& machine, const dawn::Graph& g);

// True iff the replay reproduces the report's configs, bottom-SCC count and
// decision.
bool replay_matches(const ReplayResult& replay,
                    const dawn::DecisionReport& report);

}  // namespace perfbench
