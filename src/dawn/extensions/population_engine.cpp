#include "dawn/extensions/population_engine.hpp"

#include <vector>

#include "dawn/automata/config.hpp"
#include "dawn/obs/metrics.hpp"
#include "dawn/semantics/sequential_explore.hpp"
#include "dawn/util/check.hpp"
#include "dawn/util/hash.hpp"

namespace dawn {
namespace {

Verdict pp_consensus(const GraphPopulationProtocol& p,
                     const std::vector<State>& config) {
  const Verdict first = p.verdict(config.front());
  for (State s : config) {
    if (p.verdict(s) != first) return Verdict::Neutral;
  }
  return first;
}

}  // namespace

ExploreOutcome decide_population(const GraphPopulationProtocol& p,
                                 const Graph& g, const ExploreBudget& budget) {
  Config initial(static_cast<std::size_t>(g.n()));
  for (NodeId v = 0; v < g.n(); ++v) {
    initial[static_cast<std::size_t>(v)] = p.init(g.label(v));
  }
  Config next;
  // One successor per ordered pair (u, v) of adjacent nodes.
  const auto expand = [&](const Config& current, auto&& emit) {
    for (NodeId u = 0; u < g.n(); ++u) {
      const auto uu = static_cast<std::size_t>(u);
      for (NodeId v : g.neighbours(u)) {
        const auto vv = static_cast<std::size_t>(v);
        const auto [pu, pv] = p.delta(current[uu], current[vv]);
        if (pu == current[uu] && pv == current[vv]) continue;  // silent
        next = current;
        next[uu] = pu;
        next[vv] = pv;
        emit(next);
      }
    }
  };
  return explore_sequential<Config, VectorHash<State>>(
      initial, expand, [&](const Config& c) { return pp_consensus(p, c); },
      budget);
}

ExploreOutcome decide_population_counted(const GraphPopulationProtocol& p,
                                         const LabelCount& L,
                                         const ExploreBudget& budget) {
  CountedConfig initial;
  for (std::size_t l = 0; l < L.size(); ++l) {
    if (L[l] > 0) add_count(initial, p.init(static_cast<Label>(l)), L[l]);
  }
  DAWN_CHECK(!initial.empty());
  CountedConfig next;
  // One successor per ordered pair of states held by two distinct agents.
  const auto expand = [&](const CountedConfig& current, auto&& emit) {
    for (auto [q1, c1] : current) {
      for (auto [q2, c2] : current) {
        if (q1 == q2 && c1 < 2) continue;
        const auto [r1, r2] = p.delta(q1, q2);
        if (r1 == q1 && r2 == q2) continue;  // silent
        next = current;
        add_count(next, q1, -1);
        add_count(next, q2, -1);
        add_count(next, r1, +1);
        add_count(next, r2, +1);
        emit(next);
      }
    }
  };
  const auto verdict_of = [&](const CountedConfig& c) {
    const Verdict first = p.verdict(c.front().first);
    for (auto [q, n] : c) {
      if (p.verdict(q) != first) return Verdict::Neutral;
    }
    return first;
  };
  return explore_sequential<CountedConfig, CountedConfigHash>(
      initial, expand, verdict_of, budget);
}

PopulationSimResult simulate_population(const GraphPopulationProtocol& p,
                                        const Graph& g, Rng& rng,
                                        const PopulationSimOptions& opts) {
  PopulationSimResult result;
  std::vector<State> config(static_cast<std::size_t>(g.n()));
  for (NodeId v = 0; v < g.n(); ++v) {
    config[static_cast<std::size_t>(v)] = p.init(g.label(v));
  }
  Verdict held = Verdict::Neutral;
  std::uint64_t held_since = 0;
  for (std::uint64_t t = 0; t < opts.max_steps; ++t) {
    const auto u =
        static_cast<NodeId>(rng.index(static_cast<std::size_t>(g.n())));
    auto nbrs = g.neighbours(u);
    if (!nbrs.empty()) {
      obs::count(obs::Counter::PopulationSteps);
      const NodeId v = nbrs[rng.index(nbrs.size())];
      const auto [pu, pv] = p.delta(config[static_cast<std::size_t>(u)],
                                    config[static_cast<std::size_t>(v)]);
      config[static_cast<std::size_t>(u)] = pu;
      config[static_cast<std::size_t>(v)] = pv;
    }
    const Verdict now = pp_consensus(p, config);
    if (now != held) {
      held = now;
      held_since = t;
    }
    if (held != Verdict::Neutral && t - held_since >= opts.stable_window) {
      result.converged = true;
      result.verdict = held;
      result.total_steps = t + 1;
      return result;
    }
  }
  result.verdict = held;
  result.total_steps = opts.max_steps;
  return result;
}

}  // namespace dawn
