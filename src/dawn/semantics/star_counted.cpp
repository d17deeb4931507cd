#include "dawn/semantics/star_counted.hpp"

#include <algorithm>
#include <unordered_set>

#include "dawn/semantics/clique_counted.hpp"
#include "dawn/semantics/parallel_explore.hpp"
#include "dawn/semantics/sequential_explore.hpp"
#include "dawn/util/check.hpp"
#include "dawn/util/hash.hpp"
#include "dawn/util/interner.hpp"

namespace dawn {
namespace {

Neighbourhood centre_view(const Machine& machine, const StarConfig& c) {
  std::vector<std::pair<State, int>> counts;
  counts.reserve(c.leaves.size());
  for (auto [q, n] : c.leaves) {
    counts.emplace_back(
        q, static_cast<int>(std::min<std::int64_t>(n, machine.beta())));
  }
  return Neighbourhood::from_counts(counts, machine.beta());
}

Neighbourhood leaf_view(const Machine& machine, const StarConfig& c) {
  const std::pair<State, int> counts[] = {{c.centre, 1}};
  return Neighbourhood::from_counts(counts, machine.beta());
}

// The successor function of both explorers (one per worker in the parallel
// engine).
struct StarExpander {
  const Machine& machine;
  template <typename Emit>
  void operator()(const StarConfig& current, Emit&& emit) {
    for (const StarConfig& next : star_successors(machine, current)) {
      emit(next);
    }
  }
};

template <typename Visit>
bool explore(const Machine& machine, const StarConfig& start,
             std::size_t max_configs, Visit visit) {
  // BFS; returns false if the budget is exhausted. `visit` may return false
  // to abort early (used by the stable-rejection test).
  Interner<StarConfig, StarConfigHash> configs;
  configs.id(start);
  for (std::size_t head = 0; head < configs.size(); ++head) {
    if (configs.size() > max_configs) return false;
    const StarConfig current = configs.value(static_cast<std::int32_t>(head));
    if (!visit(current)) return true;
    for (const StarConfig& next : star_successors(machine, current)) {
      configs.id(next);
    }
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

std::vector<StarConfig> star_successors(const Machine& machine,
                                        const StarConfig& config) {
  std::vector<StarConfig> out;
  // Centre step.
  {
    const State next = machine.step(config.centre, centre_view(machine, config));
    if (next != config.centre) {
      StarConfig c = config;
      c.centre = next;
      out.push_back(std::move(c));
    }
  }
  // One leaf step per populated leaf state.
  const Neighbourhood view = leaf_view(machine, config);
  for (auto [p, n] : config.leaves) {
    const State next = machine.step(p, view);
    if (next == p) continue;
    StarConfig c = config;
    add_count(c.leaves, p, -1);
    add_count(c.leaves, next, +1);
    out.push_back(std::move(c));
  }
  return out;
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
  ShardedConfigStore<StarConfig, StarConfigHash> store;
  return explore_and_classify_in(
      store, initial_star_config(machine, centre, leaves),
      [&](int) { return StarExpander{machine}; },
      [&](const StarConfig& c) { return star_consensus(machine, c); }, clamped,
      stats);
}

std::optional<bool> is_stably_rejecting(const Machine& machine,
                                        const StarConfig& config,
                                        std::size_t max_configs) {
  bool all_rejecting = true;
  const bool complete =
      explore(machine, config, max_configs, [&](const StarConfig& c) {
        if (star_consensus(machine, c) != Verdict::Reject) {
          all_rejecting = false;
          return false;  // abort: found a non-rejecting reachable config
        }
        return true;
      });
  if (!complete) return std::nullopt;
  return all_rejecting;
}

std::optional<bool> is_stably_accepting(const Machine& machine,
                                        const StarConfig& config,
                                        std::size_t max_configs) {
  bool all_accepting = true;
  const bool complete =
      explore(machine, config, max_configs, [&](const StarConfig& c) {
        if (star_consensus(machine, c) != Verdict::Accept) {
          all_accepting = false;
          return false;
        }
        return true;
      });
  if (!complete) return std::nullopt;
  return all_accepting;
}

}  // namespace dawn
