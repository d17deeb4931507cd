#include "dawn/semantics/clique_counted.hpp"

#include <algorithm>

#include "dawn/semantics/packed_config.hpp"
#include "dawn/semantics/parallel_explore.hpp"
#include "dawn/semantics/sequential_explore.hpp"
#include "dawn/util/check.hpp"

namespace dawn {
namespace {

// The successor function of both explorers (one per worker in the parallel
// engine): one successor per populated state whose agent's step is not
// silent, written into the expander's own scratch.
struct CountedExpander {
  const Machine& machine;
  Neighbourhood nb = {};
  CountedConfig next = {};

  template <typename Emit>
  void operator()(const CountedConfig& current, Emit&& emit) {
    for (const auto& [q, n] : current) {
      if (counted_successor_into(machine, current, q, nb, next)) emit(next);
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

void move_agent_into(const CountedConfig& c, State from, State to,
                     CountedConfig& out) {
  out.clear();
  bool to_placed = false;
  for (auto [s, n] : c) {
    if (!to_placed && to < s) {
      out.emplace_back(to, 1);
      to_placed = true;
    }
    if (s == from) --n;
    if (s == to) {
      ++n;
      to_placed = true;
    }
    if (n > 0) out.emplace_back(s, n);
  }
  if (!to_placed) out.emplace_back(to, 1);
}

bool counted_successor_into(const Machine& machine,
                            const CountedConfig& config, State q,
                            Neighbourhood& nb, CountedConfig& out) {
  // Neighbourhood of the stepping agent: everyone else in the clique.
  Neighbourhood::from_sorted_counts_into(config, machine.beta(), nb, q);
  const State next = machine.step(q, nb);
  if (next == q) return false;
  move_agent_into(config, q, next, out);
  return true;
}

CountedConfig counted_successor(const Machine& machine,
                                const CountedConfig& config, State q) {
  Neighbourhood nb;
  CountedConfig out;
  if (!counted_successor_into(machine, config, q, nb, out)) out = config;
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
  PackedCountedStore store(CountedCodec{});
  return explore_and_classify_in(
      store, initial_counted_config(machine, L),
      [&](int) { return CountedExpander{machine}; },
      [&](const CountedConfig& c) { return counted_consensus(machine, c); },
      clamped, stats);
}

}  // namespace dawn
