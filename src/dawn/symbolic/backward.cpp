#include "dawn/symbolic/backward.hpp"

#include <algorithm>
#include <deque>

#include "dawn/semantics/clique_counted.hpp"
#include "dawn/util/check.hpp"

namespace dawn {
namespace {

Neighbourhood presence_of(const std::vector<State>& states) {
  std::vector<std::pair<State, int>> counts;
  counts.reserve(states.size());
  for (State s : states) counts.emplace_back(s, 1);
  return Neighbourhood::from_counts(counts, 1);
}

Neighbourhood presence_of_support(const StarConfig& c) {
  std::vector<State> states;
  states.reserve(c.leaves.size());
  for (auto [q, n] : c.leaves) states.push_back(q);
  return presence_of(states);
}

std::int64_t count_of(const StarConfig& c, State q) {
  auto it = std::lower_bound(
      c.leaves.begin(), c.leaves.end(), q,
      [](const std::pair<State, std::int64_t>& e, State s) {
        return e.first < s;
      });
  if (it != c.leaves.end() && it->first == q) return it->second;
  return 0;
}

}  // namespace

std::vector<StarConfig> min_pre(const Machine& machine,
                                const StarConfig& elem) {
  DAWN_CHECK_MSG(machine.beta() == 1,
                 "the symbolic engine handles non-counting (dAF) machines");
  const auto num_states = machine.num_states();
  DAWN_CHECK_MSG(num_states.has_value(),
                 "the symbolic engine needs an enumerable machine");
  const int n = *num_states;

  std::vector<StarConfig> preds;

  // Centre predecessors: some centre state q steps to elem.centre while the
  // leaves already match.
  const Neighbourhood support_view = presence_of_support(elem);
  for (State q = 0; q < n; ++q) {
    if (q == elem.centre) continue;  // silent; covered by ↑elem itself
    if (machine.step(q, support_view) == elem.centre) {
      StarConfig pred = elem;
      pred.centre = q;
      preds.push_back(std::move(pred));
    }
  }

  // Leaf predecessors: a leaf in state p moved to p' = δ(p, {centre}). The
  // successor must lie in ↑elem: its support equals elem's support and its
  // counts dominate elem's, with at least one leaf in p'.
  const Neighbourhood centre_view = presence_of({elem.centre});
  for (State p = 0; p < n; ++p) {
    const State moved = machine.step(p, centre_view);
    if (moved == p) continue;
    const std::int64_t have = count_of(elem, moved);
    if (have == 0) continue;  // p' outside the support: no such successor
    // Minimal successor with the leaf still counted: succ = elem, giving the
    // predecessor elem - e_{p'} + e_p. When elem has exactly one p' leaf the
    // predecessor's support drops p'; the variant succ = elem + e_{p'} keeps
    // p' in the predecessor's support (both are needed for completeness,
    // since the order compares supports exactly).
    {
      StarConfig pred = elem;
      add_count(pred.leaves, moved, -1);
      add_count(pred.leaves, p, +1);
      preds.push_back(std::move(pred));
    }
    if (have == 1) {
      StarConfig pred = elem;  // succ = elem + e_{p'}: p' stays populated
      add_count(pred.leaves, p, +1);
      preds.push_back(std::move(pred));
    }
  }
  return preds;
}

std::optional<UpwardClosedStarSet> pre_star(const Machine& machine,
                                            UpwardClosedStarSet target,
                                            const PreStarOptions& opts) {
  std::deque<StarConfig> worklist(target.basis().begin(),
                                  target.basis().end());
  while (!worklist.empty()) {
    if (target.size() > opts.max_basis) return std::nullopt;
    const StarConfig elem = std::move(worklist.front());
    worklist.pop_front();
    // `elem` may have been subsumed since it was queued; its predecessors
    // would still be sound, but recomputing from the covering element keeps
    // the basis minimal, so just skip stale entries.
    if (!target.contains(elem)) continue;
    for (StarConfig& pred : min_pre(machine, elem)) {
      if (target.insert(pred)) worklist.push_back(pred);
    }
  }
  return target;
}

namespace {

UpwardClosedStarSet sector_basis(const Machine& machine,
                                 const std::function<bool(State)>& good) {
  const auto num_states = machine.num_states();
  DAWN_CHECK(num_states.has_value());
  const int n = *num_states;
  DAWN_CHECK_MSG(n <= 20, "sector enumeration is exponential in |Q|");
  UpwardClosedStarSet out;
  for (State centre = 0; centre < n; ++centre) {
    for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
      bool sector_good = good(centre);
      StarConfig c;
      c.centre = centre;
      for (State q = 0; q < n; ++q) {
        if (mask & (1u << q)) {
          c.leaves.push_back({q, 1});
          sector_good = sector_good || good(q);
        }
      }
      if (sector_good) out.insert(c);
    }
  }
  return out;
}

}  // namespace

UpwardClosedStarSet non_rejecting_basis(const Machine& machine) {
  return sector_basis(machine, [&](State s) {
    return machine.verdict(s) != Verdict::Reject;
  });
}

UpwardClosedStarSet non_accepting_basis(const Machine& machine) {
  return sector_basis(machine, [&](State s) {
    return machine.verdict(s) != Verdict::Accept;
  });
}

}  // namespace dawn
