#include "dawn/extensions/broadcast_engine.hpp"

#include <algorithm>
#include <unordered_set>

#include "dawn/automata/combinators.hpp"
#include "dawn/automata/config.hpp"
#include "dawn/obs/metrics.hpp"
#include "dawn/semantics/sequential_explore.hpp"
#include "dawn/util/check.hpp"
#include "dawn/util/hash.hpp"

namespace dawn {
namespace {

Verdict config_consensus(const BroadcastOverlay& overlay,
                         const std::vector<State>& config) {
  DAWN_CHECK(!config.empty());
  const Verdict first = overlay.verdict(config.front());
  if (first == Verdict::Neutral) return Verdict::Neutral;
  for (State s : config) {
    if (overlay.verdict(s) != first) return Verdict::Neutral;
  }
  return first;
}

Config initial_overlay_config(const BroadcastOverlay& overlay,
                              const Graph& g) {
  Config c(static_cast<std::size_t>(g.n()));
  for (NodeId v = 0; v < g.n(); ++v) {
    c[static_cast<std::size_t>(v)] = overlay.init(g.label(v));
  }
  return c;
}

}  // namespace

BroadcastRun::BroadcastRun(const BroadcastOverlay& overlay, const Graph& g)
    : overlay_(overlay),
      graph_(g),
      config_(initial_overlay_config(overlay, g)) {}

bool BroadcastRun::apply_neighbourhood(NodeId v) {
  obs::count(obs::Counter::OverlaySteps);
  const State s = config_[static_cast<std::size_t>(v)];
  if (overlay_.initiate(s).has_value()) return false;  // initiators sit out
  const auto nb =
      Neighbourhood::of(graph_, config_, v, overlay_.inner().beta());
  const State next = overlay_.inner().step(s, nb);
  if (next == s) return false;
  config_[static_cast<std::size_t>(v)] = next;
  return true;
}

bool BroadcastRun::apply_broadcast(
    const std::vector<NodeId>& selection, Rng& rng,
    const std::function<NodeId(NodeId)>& receiver_from) {
  // Validate independence (Definition 4.5: valid selections are nonempty
  // independent sets).
  for (std::size_t i = 0; i < selection.size(); ++i) {
    for (std::size_t j = i + 1; j < selection.size(); ++j) {
      DAWN_CHECK_MSG(!graph_.has_edge(selection[i], selection[j]),
                     "broadcast selection must be an independent set");
    }
  }
  std::vector<NodeId> initiators;
  std::vector<int> response_of_initiator;
  std::vector<State> to_state;
  for (NodeId v : selection) {
    const State s = config_[static_cast<std::size_t>(v)];
    if (const auto bc = overlay_.initiate(s)) {
      initiators.push_back(v);
      to_state.push_back(bc->first);
      response_of_initiator.push_back(bc->second);
    }
  }
  if (initiators.empty()) return false;
  obs::count(obs::Counter::OverlayBroadcasts);
  obs::Stopwatch watch(obs::Timer::OverlayBroadcast);

  std::vector<State> next = config_;
  std::unordered_set<NodeId> initiator_set(initiators.begin(),
                                           initiators.end());
  for (std::size_t i = 0; i < initiators.size(); ++i) {
    next[static_cast<std::size_t>(initiators[i])] = to_state[i];
  }
  for (NodeId v = 0; v < graph_.n(); ++v) {
    if (initiator_set.count(v)) continue;
    std::size_t src;
    if (receiver_from) {
      const NodeId chosen = receiver_from(v);
      auto it = std::find(initiators.begin(), initiators.end(), chosen);
      DAWN_CHECK_MSG(it != initiators.end(),
                     "receiver_from must return an initiator");
      src = static_cast<std::size_t>(it - initiators.begin());
    } else {
      src = rng.index(initiators.size());
    }
    next[static_cast<std::size_t>(v)] = overlay_.respond(
        response_of_initiator[src], config_[static_cast<std::size_t>(v)]);
  }
  config_ = std::move(next);
  return true;
}

bool BroadcastRun::apply_broadcast_all(Rng& rng) {
  std::vector<NodeId> initiators = current_initiators();
  if (initiators.empty()) return false;
  rng.shuffle(initiators);
  // Greedy maximal independent subset.
  std::vector<NodeId> chosen;
  for (NodeId v : initiators) {
    bool ok = true;
    for (NodeId u : chosen) {
      if (graph_.has_edge(u, v)) {
        ok = false;
        break;
      }
    }
    if (ok) chosen.push_back(v);
  }
  return apply_broadcast(chosen, rng);
}

std::vector<NodeId> BroadcastRun::current_initiators() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < graph_.n(); ++v) {
    if (overlay_.initiate(config_[static_cast<std::size_t>(v)])) {
      out.push_back(v);
    }
  }
  return out;
}

Verdict BroadcastRun::consensus() const {
  return config_consensus(overlay_, config_);
}

OverlaySimResult simulate_overlay_random(const BroadcastOverlay& overlay,
                                         const Graph& g, Rng& rng,
                                         const OverlaySimOptions& opts) {
  BroadcastRun run(overlay, g);
  OverlaySimResult result;
  Verdict held = Verdict::Neutral;
  std::uint64_t held_since = 0;
  for (std::uint64_t t = 0; t < opts.max_steps; ++t) {
    if (rng.chance(opts.broadcast_probability)) {
      if (run.apply_broadcast_all(rng)) ++result.broadcasts_executed;
    } else {
      run.apply_neighbourhood(
          static_cast<NodeId>(rng.index(static_cast<std::size_t>(g.n()))));
    }
    const Verdict now = run.consensus();
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

ExploreOutcome decide_overlay_strong(const BroadcastOverlay& overlay,
                                     const Graph& g,
                                     const ExploreBudget& budget) {
  const int beta = overlay.inner().beta();
  Config next;
  // One successor per node: its strong broadcast if it is initiating, its
  // neighbourhood step otherwise.
  const auto expand = [&](const Config& current, auto&& emit) {
    for (NodeId v = 0; v < g.n(); ++v) {
      const State s = current[static_cast<std::size_t>(v)];
      next = current;
      if (const auto bc = overlay.initiate(s)) {
        // Strong broadcast by v: received by every other node.
        next[static_cast<std::size_t>(v)] = bc->first;
        for (NodeId u = 0; u < g.n(); ++u) {
          if (u == v) continue;
          next[static_cast<std::size_t>(u)] = overlay.respond(
              bc->second, current[static_cast<std::size_t>(u)]);
        }
      } else {
        const auto nb = Neighbourhood::of(g, current, v, beta);
        next[static_cast<std::size_t>(v)] = overlay.inner().step(s, nb);
      }
      if (next != current) emit(next);
    }
  };
  return explore_sequential<Config, VectorHash<State>>(
      initial_overlay_config(overlay, g), expand,
      [&](const Config& c) { return config_consensus(overlay, c); }, budget);
}

ExploreOutcome decide_overlay_weak(const BroadcastOverlay& overlay,
                                   const Graph& g,
                                   const ExploreBudget& budget) {
  DAWN_CHECK_MSG(g.n() <= 8, "weak-broadcast enumeration is exponential");
  const int beta = overlay.inner().beta();
  const auto expand = [&](const Config& current, auto&& emit) {
    // (n, {v}) selections: exclusive neighbourhood steps of non-initiators.
    for (NodeId v = 0; v < g.n(); ++v) {
      const State s = current[static_cast<std::size_t>(v)];
      if (overlay.initiate(s)) continue;
      const auto nb = Neighbourhood::of(g, current, v, beta);
      const State moved = overlay.inner().step(s, nb);
      if (moved == s) continue;
      Config next = current;
      next[static_cast<std::size_t>(v)] = moved;
      emit(next);
    }

    // (b, S) selections: every nonempty independent subset of the current
    // initiators, with every receiver assignment.
    std::vector<NodeId> initiators;
    for (NodeId v = 0; v < g.n(); ++v) {
      if (overlay.initiate(current[static_cast<std::size_t>(v)])) {
        initiators.push_back(v);
      }
    }
    const auto k = static_cast<std::uint32_t>(initiators.size());
    for (std::uint32_t mask = 1; mask < (1u << k); ++mask) {
      std::vector<NodeId> sel;
      std::vector<int> rids;
      bool independent = true;
      for (std::uint32_t i = 0; i < k && independent; ++i) {
        if (!(mask & (1u << i))) continue;
        for (NodeId u : sel) {
          if (g.has_edge(u, initiators[i])) independent = false;
        }
        sel.push_back(initiators[i]);
      }
      if (!independent) continue;
      Config base = current;
      for (NodeId v : sel) {
        const auto bc = overlay.initiate(current[static_cast<std::size_t>(v)]);
        base[static_cast<std::size_t>(v)] = bc->first;
        rids.push_back(bc->second);
      }
      std::vector<NodeId> receivers;
      std::unordered_set<NodeId> in_sel(sel.begin(), sel.end());
      for (NodeId v = 0; v < g.n(); ++v) {
        if (!in_sel.count(v)) receivers.push_back(v);
      }
      // Recurse over assignments receiver -> broadcasting response.
      std::vector<std::size_t> choice(receivers.size(), 0);
      while (true) {
        Config next = base;
        for (std::size_t r = 0; r < receivers.size(); ++r) {
          const auto v = static_cast<std::size_t>(receivers[r]);
          next[v] = overlay.respond(rids[choice[r]], current[v]);
        }
        if (next != current) emit(next);
        // Odometer over the |sel|^|receivers| assignments.
        std::size_t i = 0;
        while (i < choice.size() && choice[i] + 1 == sel.size()) {
          choice[i] = 0;
          ++i;
        }
        if (i == choice.size()) break;
        ++choice[i];
      }
    }
  };
  return explore_sequential<Config, VectorHash<State>>(
      initial_overlay_config(overlay, g), expand,
      [&](const Config& c) { return config_consensus(overlay, c); }, budget);
}

ExploreOutcome decide_overlay_strong_counted(const BroadcastOverlay& overlay,
                                             const LabelCount& L,
                                             const ExploreBudget& budget) {
  CountedConfig initial;
  for (std::size_t l = 0; l < L.size(); ++l) {
    if (L[l] > 0) add_count(initial, overlay.init(static_cast<Label>(l)), L[l]);
  }
  DAWN_CHECK(!initial.empty());
  // One successor per populated state q: one agent in q broadcasts if q is
  // initiating, and takes a neighbourhood step on the clique otherwise.
  const auto expand = [&](const CountedConfig& current, auto&& emit) {
    for (auto [q, cnt] : current) {
      CountedConfig next;
      if (const auto bc = overlay.initiate(q)) {
        // All n-1 other agents respond.
        add_count(next, bc->first, 1);
        for (auto [s, c] : current) {
          const std::int64_t rest = c - (s == q ? 1 : 0);
          if (rest > 0) add_count(next, overlay.respond(bc->second, s), rest);
        }
      } else {
        next = counted_successor(overlay.inner(), current, q);
      }
      if (next != current) emit(next);
    }
  };
  const auto verdict_of = [&](const CountedConfig& c) {
    const Verdict first = overlay.verdict(c.front().first);
    for (auto [q, n] : c) {
      if (overlay.verdict(q) != first) return Verdict::Neutral;
    }
    return first;
  };
  return explore_sequential<CountedConfig, CountedConfigHash>(
      initial, expand, verdict_of, budget);
}

}  // namespace dawn
