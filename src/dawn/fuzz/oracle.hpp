// The oracle-pair registry: every deliberately redundant implementation
// pair in the codebase, behind one uniform check interface.
//
// A pair's check() runs both implementations on a FuzzCase and returns a
// human-readable divergence description, or nullopt if they agree (or the
// case was internally skipped, e.g. both sides exhausted their budget —
// budget exhaustion is "not yet compared", not agreement). applicable()
// is the cheap static filter (topology, state-space size) that decides
// whether check() is worth running at all; the fuzz driver reports skipped
// cases per pair so silently-dead pairs are visible.
//
// Registered pairs (docs/FUZZING.md has the full table):
//   step-engine      Run/FullCopy vs Run/Incremental, lock-step
//   record-replay    a recorded run vs its sched/replay re-execution
//   sync-replay      decide_synchronous vs the Run engine on the replayed
//                    synchronous schedule (cycle re-classification)
//   explore-par      sequential explicit decider vs the sharded parallel
//                    engine at 1/2/8 threads (two classifications: a full
//                    Tarjan vs the sink closure plus Tarjan on the rest)
//   canonical-vs-plain  plain parallel engine vs symmetry-reduced +
//                    bit-packed exploration (identical decisions; the
//                    quotient never stores more than the full space)
//   clique-counted   explicit decider vs counted-clique decider
//   star-counted     explicit decider vs counted-star decider
//   auto-crosscheck  decide(Auto, cross_check=true) must not report
//                    UnknownReason::CrossCheck
//   scalar-vs-batched  scalar run_trials vs the SoA batched trial engine
//                    (per-trial results and deterministic metrics, across
//                    every lockstep scheduler family)
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "dawn/fuzz/gen.hpp"

namespace dawn::fuzz {

struct OraclePair {
  std::string name;
  std::string description;
  std::function<bool(const FuzzCase&)> applicable;
  // nullopt = the implementations agree on this case.
  std::function<std::optional<std::string>(const FuzzCase&)> check;
};

// The registry, in documentation order. Built once, never mutated.
const std::vector<OraclePair>& oracle_pairs();

// nullptr if no pair has that name.
const OraclePair* find_pair(const std::string& name);

}  // namespace dawn::fuzz
