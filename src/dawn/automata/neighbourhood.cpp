#include "dawn/automata/neighbourhood.hpp"

#include <algorithm>

#include "dawn/util/check.hpp"

namespace dawn {

Neighbourhood Neighbourhood::of(const Graph& g,
                                const std::vector<State>& config, NodeId v,
                                int beta) {
  Neighbourhood n;
  of_into(g, config, v, beta, n);
  return n;
}

void Neighbourhood::of_into(const Graph& g, const std::vector<State>& config,
                            NodeId v, int beta, Neighbourhood& out) {
  DAWN_CHECK(beta >= 1);
  out.beta_ = beta;
  auto& entries = out.entries_;
  entries.clear();
  auto nbrs = g.neighbours(v);
  if (entries.capacity() < nbrs.size()) entries.reserve(nbrs.size());
  if (nbrs.size() <= 16) {
    // Degrees in the target workloads are small (bounded-degree families):
    // accumulate each neighbour directly into the sorted capped list in one
    // pass — no sort/merge stages, no resize.
    for (NodeId u : nbrs) {
      const State q = config[static_cast<std::size_t>(u)];
      std::size_t j = entries.size();
      while (j > 0 && entries[j - 1].first >= q) --j;
      if (j < entries.size() && entries[j].first == q) {
        if (entries[j].second < beta) ++entries[j].second;
      } else {
        entries.insert(entries.begin() + static_cast<std::ptrdiff_t>(j),
                       {q, 1});
      }
    }
    return;
  }
  // Hub fallback: sort all occurrences, then merge runs capped at beta.
  for (NodeId u : nbrs) {
    entries.emplace_back(config[static_cast<std::size_t>(u)], 1);
  }
  std::sort(entries.begin(), entries.end());
  std::size_t o = 0;
  for (std::size_t i = 0; i < entries.size();) {
    std::size_t j = i;
    int c = 0;
    while (j < entries.size() && entries[j].first == entries[i].first) {
      ++c;
      ++j;
    }
    entries[o++] = {entries[i].first, std::min(c, beta)};
    i = j;
  }
  entries.resize(o);
}

Neighbourhood Neighbourhood::from_counts(
    std::span<const std::pair<State, int>> counts, int beta) {
  DAWN_CHECK(beta >= 1);
  Neighbourhood n;
  n.beta_ = beta;
  for (auto [q, c] : counts) {
    if (c > 0) n.entries_.emplace_back(q, std::min(c, beta));
  }
  std::sort(n.entries_.begin(), n.entries_.end());
  for (std::size_t i = 1; i < n.entries_.size(); ++i) {
    DAWN_CHECK_MSG(n.entries_[i].first != n.entries_[i - 1].first,
                   "duplicate state in from_counts");
  }
  return n;
}

void Neighbourhood::from_sorted_counts_into(
    std::span<const std::pair<State, std::int64_t>> counts, int beta,
    Neighbourhood& out, State self) {
  DAWN_CHECK(beta >= 1);
  out.beta_ = beta;
  auto& entries = out.entries_;
  entries.clear();
  bool self_seen = self == -1;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    auto [q, c] = counts[i];
    DAWN_CHECK_MSG(i == 0 || counts[i - 1].first < q,
                   "counts not sorted by strictly increasing state");
    if (q == self) {
      DAWN_CHECK_MSG(c >= 1, "no agent in the observer's state");
      self_seen = true;
      --c;
    }
    if (c > 0) {
      entries.emplace_back(
          q, static_cast<int>(std::min<std::int64_t>(c, beta)));
    }
  }
  DAWN_CHECK_MSG(self_seen, "no agent in the observer's state");
}

int Neighbourhood::count(State q) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), q,
      [](const std::pair<State, int>& e, State s) { return e.first < s; });
  if (it != entries_.end() && it->first == q) return it->second;
  return 0;
}

}  // namespace dawn
