#include "layers.hpp"

#include <memory>
#include <vector>

#include "common.hpp"
#include "dawn/automata/config.hpp"
#include "dawn/semantics/clique_counted.hpp"
#include "dawn/semantics/parallel_explore.hpp"
#include "dawn/semantics/scc.hpp"
#include "dawn/util/hash.hpp"

namespace perfbench {
namespace {

using dawn::Config;
using dawn::CountedConfig;
using dawn::State;
using dawn::Verdict;

constexpr std::size_t kChunk = 2048;

// Level-synchronous BFS shared by both replays. expand_chunk(frontier,
// begin, end, succ, src, r) appends the successors of frontier[begin, end)
// to succ (with their source index in src) and adds its layer times to r.
template <typename ConfigT, typename Hash, typename ExpandChunk,
          typename VerdictOf>
ReplayResult replay(const ConfigT& initial, ExpandChunk&& expand_chunk,
                    VerdictOf&& verdict_of) {
  using Store = dawn::ShardedConfigStore<ConfigT, Hash>;
  const auto t_start = Clock::now();
  ReplayResult r;
  auto store = std::make_unique<Store>();
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  std::vector<std::pair<std::int64_t, Verdict>> verdicts;
  std::vector<ConfigT> frontier{initial};
  std::vector<std::int64_t> frontier_gid;
  {
    const auto seeded = store->intern(initial);
    frontier_gid.push_back(seeded.gid);
    verdicts.emplace_back(seeded.gid, verdict_of(initial));
  }
  std::vector<ConfigT> succ;
  std::vector<std::size_t> src;
  std::vector<typename Store::InternResult> interned;
  std::vector<ConfigT> next;
  std::vector<std::int64_t> next_gid;
  while (!frontier.empty()) {
    succ.clear();
    src.clear();
    for (std::size_t begin = 0; begin < frontier.size(); begin += kChunk) {
      const std::size_t end = std::min(begin + kChunk, frontier.size());
      expand_chunk(frontier, begin, end, succ, src, r);
    }
    interned.resize(succ.size());
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < succ.size(); ++k) {
      interned[k] = store->intern(succ[k]);
    }
    r.intern_s += seconds_since(t0);
    r.intern_calls += succ.size();
    r.successors += succ.size();
    next.clear();
    next_gid.clear();
    for (std::size_t k = 0; k < succ.size(); ++k) {
      edges.emplace_back(frontier_gid[src[k]], interned[k].gid);
      if (interned[k].fresh) {
        verdicts.emplace_back(interned[k].gid, verdict_of(succ[k]));
        next.push_back(std::move(succ[k]));
        next_gid.push_back(interned[k].gid);
      }
    }
    frontier.swap(next);
    frontier_gid.swap(next_gid);
  }
  store->finalize();
  const std::size_t total = store->size();
  std::vector<std::vector<std::int32_t>> adj(total);
  std::vector<Verdict> verdict(total, Verdict::Neutral);
  for (const auto& [gid, v] : verdicts) {
    verdict[static_cast<std::size_t>(store->dense(gid))] = v;
  }
  for (const auto& [a, b] : edges) {
    adj[static_cast<std::size_t>(store->dense(a))].push_back(store->dense(b));
  }
  const auto t_scc = Clock::now();
  const dawn::BottomClassification cls = dawn::classify_bottom_sccs(
      adj, [&](std::size_t i) { return verdict[i]; }, 1);
  r.scc_s = seconds_since(t_scc);
  r.configs = total;
  r.bottom_sccs = cls.num_bottom_sccs;
  r.decision = cls.decision;
  store.reset();
  r.total_s = seconds_since(t_start);
  return r;
}

Verdict counted_consensus(const dawn::Machine& m, const CountedConfig& c) {
  const Verdict first = m.verdict(c.front().first);
  for (const auto& [q, count] : c) {
    if (m.verdict(q) != first) return Verdict::Neutral;
  }
  return first;
}

}  // namespace

ReplayResult replay_explicit(const dawn::Machine& machine,
                             const dawn::Graph& g) {
  const auto n = static_cast<std::size_t>(g.n());
  const int beta = machine.beta();
  std::vector<dawn::Neighbourhood> nbs(kChunk * n);
  std::vector<State> moved(kChunk * n);
  const auto expand_chunk = [&](const std::vector<Config>& frontier,
                                std::size_t begin, std::size_t end,
                                std::vector<Config>& succ,
                                std::vector<std::size_t>& src,
                                ReplayResult& r) {
    const auto t0 = Clock::now();
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t v = 0; v < n; ++v) {
        dawn::Neighbourhood::of_into(g, frontier[i], static_cast<int>(v), beta,
                                     nbs[(i - begin) * n + v]);
      }
    }
    const auto t1 = Clock::now();
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t v = 0; v < n; ++v) {
        const std::size_t k = (i - begin) * n + v;
        moved[k] = machine.step(frontier[i][v], nbs[k]);
      }
    }
    const auto t2 = Clock::now();
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t v = 0; v < n; ++v) {
        const State s = moved[(i - begin) * n + v];
        if (s == frontier[i][v]) continue;  // silent
        succ.push_back(frontier[i]);
        succ.back()[v] = s;
        src.push_back(i);
      }
    }
    const std::size_t calls = (end - begin) * n;
    r.neighbourhood_s += std::chrono::duration<double>(t1 - t0).count();
    r.step_s += std::chrono::duration<double>(t2 - t1).count();
    r.neighbourhood_calls += calls;
    r.step_calls += calls;
  };
  return replay<Config, dawn::VectorHash<State>>(
      dawn::initial_config(machine, g), expand_chunk,
      [&](const Config& c) { return dawn::consensus(machine, c); });
}

ReplayResult replay_counted(const dawn::Machine& machine,
                            const dawn::Graph& g) {
  std::vector<CountedConfig> moved;
  const auto expand_chunk = [&](const std::vector<CountedConfig>& frontier,
                                std::size_t begin, std::size_t end,
                                std::vector<CountedConfig>& succ,
                                std::vector<std::size_t>& src,
                                ReplayResult& r) {
    moved.clear();
    const auto t0 = Clock::now();
    for (std::size_t i = begin; i < end; ++i) {
      for (const auto& [q, count] : frontier[i]) {
        moved.push_back(dawn::counted_successor(machine, frontier[i], q));
      }
    }
    r.counted_successor_s += seconds_since(t0);
    r.counted_successor_calls += moved.size();
    std::size_t k = 0;
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t j = 0; j < frontier[i].size(); ++j, ++k) {
        if (moved[k] == frontier[i]) continue;  // silent
        succ.push_back(std::move(moved[k]));
        src.push_back(i);
      }
    }
  };
  return replay<CountedConfig, dawn::CountedConfigHash>(
      dawn::initial_counted_config(machine,
                                   g.label_count(machine.num_labels())),
      expand_chunk,
      [&](const CountedConfig& c) { return counted_consensus(machine, c); });
}

bool replay_matches(const ReplayResult& replay,
                    const dawn::DecisionReport& report) {
  return replay.configs == report.configs_explored &&
         replay.bottom_sccs == report.num_bottom_sccs &&
         replay.decision == report.decision;
}

}  // namespace perfbench
