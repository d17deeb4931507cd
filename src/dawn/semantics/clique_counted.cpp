#include "dawn/semantics/clique_counted.hpp"

#include <algorithm>

#include "dawn/semantics/parallel_explore.hpp"
#include "dawn/semantics/sequential_explore.hpp"
#include "dawn/util/check.hpp"

namespace dawn {
namespace {

// The successor function of both explorers (one per worker in the parallel
// engine).
struct CountedExpander {
  const Machine& machine;
  template <typename Emit>
  void operator()(const CountedConfig& current, Emit&& emit) {
    for (auto [q, n] : current) {
      const CountedConfig next = counted_successor(machine, current, q);
      if (next == current) continue;  // silent
      emit(next);
    }
  }
};

Verdict counted_consensus(const Machine& machine, const CountedConfig& c) {
  DAWN_CHECK(!c.empty());
  const Verdict first = machine.verdict(c.front().first);
  for (auto [q, n] : c) {
    if (machine.verdict(q) != first) return Verdict::Neutral;
  }
  return first;
}

}  // namespace

void add_count(CountedConfig& c, State q, std::int64_t delta) {
  auto it = std::lower_bound(
      c.begin(), c.end(), q,
      [](const std::pair<State, std::int64_t>& e, State s) {
        return e.first < s;
      });
  if (it != c.end() && it->first == q) {
    it->second += delta;
    DAWN_CHECK(it->second >= 0);
    if (it->second == 0) c.erase(it);
  } else {
    DAWN_CHECK(delta > 0);
    c.insert(it, {q, delta});
  }
}

CountedConfig initial_counted_config(const Machine& machine,
                                     const LabelCount& L) {
  CountedConfig c;
  for (std::size_t l = 0; l < L.size(); ++l) {
    if (L[l] == 0) continue;
    add_count(c, machine.init(static_cast<Label>(l)), L[l]);
  }
  DAWN_CHECK_MSG(!c.empty(), "empty population");
  return c;
}

CountedConfig counted_successor(const Machine& machine,
                                const CountedConfig& config, State q) {
  // Neighbourhood of the stepping agent: everyone else in the clique.
  std::vector<std::pair<State, int>> counts;
  counts.reserve(config.size());
  bool found = false;
  for (auto [s, n] : config) {
    std::int64_t c = n;
    if (s == q) {
      DAWN_CHECK(n >= 1);
      c -= 1;  // the agent does not see itself
      found = true;
    }
    if (c > 0) {
      counts.emplace_back(
          s, static_cast<int>(std::min<std::int64_t>(c, machine.beta())));
    }
  }
  DAWN_CHECK_MSG(found, "no agent in the given state");
  const auto nb = Neighbourhood::from_counts(counts, machine.beta());
  const State next = machine.step(q, nb);
  CountedConfig out = config;
  if (next != q) {
    add_count(out, q, -1);
    add_count(out, next, +1);
  }
  return out;
}

ExploreOutcome decide_clique_pseudo_stochastic(const Machine& machine,
                                               const LabelCount& L,
                                               const ExploreBudget& budget) {
  return explore_sequential<CountedConfig, CountedConfigHash>(
      initial_counted_config(machine, L), CountedExpander{machine},
      [&](const CountedConfig& c) { return counted_consensus(machine, c); },
      budget);
}

ExploreOutcome decide_clique_pseudo_stochastic_parallel(
    const Machine& machine, const LabelCount& L, const ExploreBudget& budget,
    ExploreStats* stats) {
  ExploreBudget clamped = budget;
  clamped.max_threads = explore_threads(machine, budget);
  ShardedConfigStore<CountedConfig, CountedConfigHash> store;
  return explore_and_classify_in(
      store, initial_counted_config(machine, L),
      [&](int) { return CountedExpander{machine}; },
      [&](const CountedConfig& c) { return counted_consensus(machine, c); },
      clamped, stats);
}

}  // namespace dawn
