// Neighbourhood functions N_v^C with cutoff (Section 2.1).
//
// A neighbourhood assigns to each state the number of neighbours in that
// state, capped at the machine's counting bound β. Represented sparsely as a
// sorted (state, capped count) list; states not listed have count 0.
//
// Capped counts are exact when < β and mean "at least β" when == β, so sums
// of capped counts over disjoint state sets (the paper's N[a,b] notation) are
// themselves exact-or-saturated lower bounds; `count_at_least` exposes the
// common "is the capped sum >= t" query soundly for t <= β.
//
// Hot-path construction: `of` allocates a fresh entry list per call, which
// dominates the per-activation cost of a simulation step. `of_into` instead
// reuses the entry storage of a caller-owned Neighbourhood, so a tight loop
// (Run::apply, the explicit-space BFS, the greedy adversary) performs zero
// heap allocations once its scratch has warmed up to the maximum degree.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dawn/graph/graph.hpp"

namespace dawn {

using State = std::int32_t;

class Neighbourhood {
 public:
  Neighbourhood() = default;

  // Builds N_v^C for node v: counts of `config[u]` over neighbours u of v,
  // capped at beta. Requires beta >= 1.
  static Neighbourhood of(const Graph& g, const std::vector<State>& config,
                          NodeId v, int beta);

  // Allocation-free variant: rebuilds `out` in place, reusing its entry
  // storage. Semantically identical to `out = of(g, config, v, beta)`.
  static void of_into(const Graph& g, const std::vector<State>& config,
                      NodeId v, int beta, Neighbourhood& out);

  // Builds a neighbourhood directly from (state, count) pairs (counts are
  // capped at beta). The pairs may come in any order.
  static Neighbourhood from_counts(
      std::span<const std::pair<State, int>> counts, int beta);

  // Allocation-free builder from (state, count) pairs sorted by strictly
  // increasing state, such as a counted configuration: rebuilds `out` in
  // place, reusing its entry storage like of_into. Counts are capped at
  // beta and zero counts dropped. `self`, unless -1, names the listed state
  // of the observing agent, which does not see itself: one agent in that
  // state is left out (the stepping agent of a counted clique).
  static void from_sorted_counts_into(
      std::span<const std::pair<State, std::int64_t>> counts, int beta,
      Neighbourhood& out, State self = -1);

  // Capped count of neighbours in state q.
  int count(State q) const;

  // True iff some neighbour is in a state satisfying `pred`. Templated so
  // per-step predicates inline instead of going through std::function.
  template <typename Pred>
  bool any(Pred&& pred) const {
    for (const auto& [q, c] : entries_) {
      if (pred(q)) return true;
    }
    return false;
  }

  // Sum of capped counts over states satisfying `pred`. Exact if < beta was
  // never hit; otherwise a lower bound (callers compare against values <= β).
  template <typename Pred>
  int sum(Pred&& pred) const {
    int total = 0;
    for (const auto& [q, c] : entries_) {
      if (pred(q)) total += c;
    }
    return total;
  }

  // All (state, capped count) entries, sorted by state; counts are >= 1.
  std::span<const std::pair<State, int>> entries() const { return entries_; }

  int beta() const { return beta_; }

  bool operator==(const Neighbourhood& other) const = default;

 private:
  std::vector<std::pair<State, int>> entries_;
  int beta_ = 1;
};

}  // namespace dawn
