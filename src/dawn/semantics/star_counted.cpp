#include "dawn/semantics/star_counted.hpp"

#include <algorithm>

#include "dawn/semantics/clique_counted.hpp"
#include "dawn/semantics/packed_config.hpp"
#include "dawn/semantics/parallel_explore.hpp"
#include "dawn/semantics/sequential_explore.hpp"
#include "dawn/util/check.hpp"
#include "dawn/util/hash.hpp"
#include "dawn/util/interner.hpp"

namespace dawn {
namespace {

// The successor function of both explorers (one per worker in the parallel
// engine) and of the stable-verdict search: the centre's step, then one
// leaf step per populated leaf state, silent steps skipped, each written
// into the expander's own scratch. The successors are distinct: a centre
// step keeps the leaves, and leaf steps from distinct states leave
// distinct leaf counts.
struct StarExpander {
  const Machine& machine;
  Neighbourhood nb = {};
  StarConfig next = {};

  template <typename Emit>
  void operator()(const StarConfig& current, Emit&& emit) {
    // The centre sees every leaf.
    Neighbourhood::from_sorted_counts_into(current.leaves, machine.beta(), nb);
    const State centre = machine.step(current.centre, nb);
    if (centre != current.centre) {
      next.centre = centre;
      next.leaves = current.leaves;
      emit(next);
    }
    // A leaf sees only the centre.
    const std::pair<State, std::int64_t> hub[] = {{current.centre, 1}};
    Neighbourhood::from_sorted_counts_into(hub, machine.beta(), nb);
    next.centre = current.centre;
    for (const auto& [p, n] : current.leaves) {
      const State s = machine.step(p, nb);
      if (s == p) continue;
      move_agent_into(current.leaves, p, s, next.leaves);
      emit(next);
    }
  }
};

// Whether every configuration reachable from `start` has verdict `want`:
// a BFS that stops at the first configuration without it. nullopt if the
// budget runs out first.
std::optional<bool> is_stably(const Machine& machine, const StarConfig& start,
                              std::size_t max_configs, Verdict want) {
  Interner<StarConfig, StarConfigHash> configs;
  StarExpander expand{machine};
  configs.id(start);
  for (std::size_t head = 0; head < configs.size(); ++head) {
    if (configs.size() > max_configs) return std::nullopt;
    // Interned values never move, so `current` outlives the inserts below.
    const StarConfig& current =
        configs.value(static_cast<std::int32_t>(head));
    if (star_consensus(machine, current) != want) return false;
    expand(current, [&](const StarConfig& next) { configs.id(next); });
  }
  return true;
}

}  // namespace

std::size_t StarConfigHash::operator()(const StarConfig& c) const {
  std::size_t seed = static_cast<std::size_t>(c.centre) + 0x77;
  for (auto [q, n] : c.leaves) {
    hash_combine(seed, static_cast<std::uint64_t>(q));
    hash_combine(seed, static_cast<std::uint64_t>(n));
  }
  return seed;
}

StarConfig initial_star_config(const Machine& machine, Label centre,
                               const std::vector<Label>& leaves) {
  StarConfig c;
  c.centre = machine.init(centre);
  for (Label l : leaves) add_count(c.leaves, machine.init(l), 1);
  DAWN_CHECK(!c.leaves.empty());
  return c;
}

Verdict star_consensus(const Machine& machine, const StarConfig& config) {
  const Verdict first = machine.verdict(config.centre);
  for (auto [q, n] : config.leaves) {
    if (machine.verdict(q) != first) return Verdict::Neutral;
  }
  return first;
}

ExploreOutcome decide_star_pseudo_stochastic(const Machine& machine,
                                             Label centre,
                                             const std::vector<Label>& leaves,
                                             const ExploreBudget& budget) {
  return explore_sequential<StarConfig, StarConfigHash>(
      initial_star_config(machine, centre, leaves), StarExpander{machine},
      [&](const StarConfig& c) { return star_consensus(machine, c); }, budget);
}

ExploreOutcome decide_star_pseudo_stochastic_parallel(
    const Machine& machine, Label centre, const std::vector<Label>& leaves,
    const ExploreBudget& budget, ExploreStats* stats) {
  ExploreBudget clamped = budget;
  clamped.max_threads = explore_threads(machine, budget);
  PackedStarStore store(StarCodec{});
  return explore_and_classify_in(
      store, initial_star_config(machine, centre, leaves),
      [&](int) { return StarExpander{machine}; },
      [&](const StarConfig& c) { return star_consensus(machine, c); }, clamped,
      stats);
}

std::optional<bool> is_stably_rejecting(const Machine& machine,
                                        const StarConfig& config,
                                        std::size_t max_configs) {
  return is_stably(machine, config, max_configs, Verdict::Reject);
}

std::optional<bool> is_stably_accepting(const Machine& machine,
                                        const StarConfig& config,
                                        std::size_t max_configs) {
  return is_stably(machine, config, max_configs, Verdict::Accept);
}

}  // namespace dawn
