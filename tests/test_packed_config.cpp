// The bit-packed configuration codecs and store (semantics/packed_config):
// round-trips across state-space sizes including 1-bit and word-straddling
// layouts, the counted and star codecs' word properties, hash/equality
// consistency against the vector store, byte-level occupancy and its
// per-entry charge, shard balance under the mixed shard selector, the
// owner-partitioned route()/drain() path against the locked intern() at
// fixed and variable width, and the engine on the packed store against the
// sequential reference decider.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dawn/automata/config.hpp"
#include "dawn/automata/machine.hpp"
#include "dawn/graph/generators.hpp"
#include "dawn/semantics/clique_counted.hpp"
#include "dawn/semantics/explicit_expand.hpp"
#include "dawn/semantics/explicit_space.hpp"
#include "dawn/semantics/packed_config.hpp"
#include "dawn/semantics/parallel_explore.hpp"
#include "dawn/util/hash.hpp"
#include "dawn/util/rng.hpp"

namespace dawn {
namespace {

Config random_config(int num_states, int nodes, Rng& rng) {
  Config c(static_cast<std::size_t>(nodes));
  for (auto& s : c) {
    s = static_cast<State>(rng.uniform(0, num_states - 1));
  }
  return c;
}

TEST(PackedCodec, BitsForStateCounts) {
  EXPECT_EQ(packed_bits_for(1), 0);
  EXPECT_EQ(packed_bits_for(2), 1);
  EXPECT_EQ(packed_bits_for(3), 2);
  EXPECT_EQ(packed_bits_for(4), 2);
  EXPECT_EQ(packed_bits_for(5), 3);
  EXPECT_EQ(packed_bits_for(16), 4);
  EXPECT_EQ(packed_bits_for(17), 5);
  EXPECT_EQ(packed_bits_for(33), 6);
  EXPECT_EQ(packed_bits_for(257), 9);
}

TEST(PackedCodec, RoundTripAcrossStateAndNodeCounts) {
  Rng rng(11);
  // 21 six-bit fields straddle at bit 60; 64 one-bit fields exactly fill a
  // word; 65 spill into the next.
  for (const int num_states : {1, 2, 3, 5, 16, 33, 257}) {
    for (const int nodes : {1, 5, 16, 21, 64, 65}) {
      const PackedCodec codec(num_states, nodes);
      const std::size_t expect_words =
          (static_cast<std::size_t>(packed_bits_for(num_states)) *
               static_cast<std::size_t>(nodes) +
           63) /
          64;
      EXPECT_EQ(codec.words(), expect_words) << num_states << "/" << nodes;
      std::vector<std::uint64_t> words(codec.words());
      Config back;
      for (int trial = 0; trial < 50; ++trial) {
        const Config c = random_config(num_states, nodes, rng);
        codec.encode(c, words.data());
        codec.decode(words.data(), words.size(), back);
        ASSERT_EQ(back, c) << "|Q|=" << num_states << " n=" << nodes;
      }
      // Extremes: all-zero and all-max.
      const Config zero(static_cast<std::size_t>(nodes), 0);
      const Config top(static_cast<std::size_t>(nodes),
                       static_cast<State>(num_states - 1));
      codec.encode(zero, words.data());
      codec.decode(words.data(), words.size(), back);
      EXPECT_EQ(back, zero);
      codec.encode(top, words.data());
      codec.decode(words.data(), words.size(), back);
      EXPECT_EQ(back, top);
    }
  }
}

TEST(PackedCodec, WordBoundaryStraddleIsExact) {
  // 6-bit fields: field 10 occupies bits [60, 66) — 4 bits in word 0, 2 in
  // word 1. Flipping only that field must change exactly the straddled
  // encoding and decode back.
  const PackedCodec codec(33, 21);
  ASSERT_EQ(codec.bits(), 6);
  ASSERT_EQ(codec.words(), 2u);
  Config c(21, 0);
  std::vector<std::uint64_t> base(codec.words());
  codec.encode(c, base.data());
  c[10] = 0b010001;  // bit 0 lands at bit 60 (word 0), bit 4 at bit 64 (word 1)
  std::vector<std::uint64_t> flipped(codec.words());
  codec.encode(c, flipped.data());
  EXPECT_NE(flipped[0], base[0]);
  EXPECT_NE(flipped[1], base[1]);
  Config back;
  codec.decode(flipped.data(), flipped.size(), back);
  EXPECT_EQ(back, c);
}

TEST(PackedCodec, HashConsistentWithEquality) {
  Rng rng(12);
  const PackedCodec codec(5, 21);
  std::vector<std::uint64_t> a(codec.words());
  std::vector<std::uint64_t> b(codec.words());
  for (int trial = 0; trial < 200; ++trial) {
    const Config ca = random_config(5, 21, rng);
    Config cb = random_config(5, 21, rng);
    if (trial % 2 == 0) cb = ca;  // force equal pairs too
    codec.encode(ca, a.data());
    codec.encode(cb, b.data());
    if (ca == cb) {
      EXPECT_EQ(a, b);
      EXPECT_EQ(PackedCodec::hash_words(a.data(), a.size()),
                PackedCodec::hash_words(b.data(), b.size()));
    } else {
      EXPECT_NE(a, b);  // the encoding is injective on valid configs
    }
  }
}

// A counted configuration of 1 to max_pairs sorted (state, count) pairs,
// with states in [0, max_state] and counts in [1, max_count].
CountedConfig random_counted(Rng& rng, State max_state, std::int64_t max_count,
                             std::int64_t max_pairs) {
  std::set<State> states;
  const std::int64_t pairs = rng.uniform(1, max_pairs);
  while (static_cast<std::int64_t>(states.size()) < pairs) {
    states.insert(static_cast<State>(rng.uniform(0, max_state)));
  }
  CountedConfig c;
  for (const State q : states) c.emplace_back(q, rng.uniform(1, max_count));
  return c;
}

// Seeded draws for the codec properties: a small pool, so equal pairs are
// common, with single-pair entries, the largest encodable state below
// INT32_MAX, and counts at the codec's limit mixed in.
std::vector<CountedConfig> counted_pool(Rng& rng) {
  constexpr State kTop = std::numeric_limits<State>::max() - 1;
  std::vector<CountedConfig> pool;
  for (int i = 0; i < 60; ++i) {
    const bool wide = i % 3 == 0;
    CountedConfig c = random_counted(rng, wide ? kTop : 6,
                                     wide ? CountedCodec::kMaxCount : 4,
                                     i % 5 == 0 ? 1 : 5);
    pool.push_back(std::move(c));
  }
  pool.push_back({{kTop, CountedCodec::kMaxCount}});
  pool.push_back({{0, 1}});
  pool.push_back({{0, CountedCodec::kMaxCount}, {kTop, 1}});
  return pool;
}

TEST(CountedCodec, RoundTripsAndWordsEqualIffConfigsEqual) {
  Rng rng(31);
  const std::vector<CountedConfig> pool = counted_pool(rng);
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
  CountedConfig back = {{5, 5}, {6, 6}, {7, 7}};  // decode overwrites it
  for (const CountedConfig& ca : pool) {
    a.resize(CountedCodec::words(ca));
    CountedCodec::encode(ca, a.data());
    ASSERT_EQ(a.size(), ca.size());
    CountedCodec::decode(a.data(), a.size(), back);
    ASSERT_EQ(back, ca);
    // Word order is state order.
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    for (const CountedConfig& cb : pool) {
      b.resize(CountedCodec::words(cb));
      CountedCodec::encode(cb, b.data());
      EXPECT_EQ(a == b, ca == cb);
      if (ca == cb) {
        EXPECT_EQ(PackedCodec::hash_words(a.data(), a.size()),
                  PackedCodec::hash_words(b.data(), b.size()));
      }
    }
  }
}

TEST(CountedCodec, RejectsWhatItCannotEncode) {
  std::uint64_t w[2];
  const CountedConfig over = {{1, CountedCodec::kMaxCount + 1}};
  const CountedConfig zero = {{1, 0}};
  const CountedConfig negative = {{-1, 1}};
  EXPECT_THROW(CountedCodec::encode(over, w), std::logic_error);
  EXPECT_THROW(CountedCodec::encode(zero, w), std::logic_error);
  EXPECT_THROW(CountedCodec::encode(negative, w), std::logic_error);
}

TEST(StarCodec, RoundTripsAndWordsEqualIffConfigsEqual) {
  Rng rng(32);
  constexpr State kTop = std::numeric_limits<State>::max() - 1;
  std::vector<StarConfig> pool;
  for (const CountedConfig& leaves : counted_pool(rng)) {
    const State centre = static_cast<State>(rng.uniform(0, 2));
    pool.push_back({centre, leaves});
    pool.push_back({kTop, leaves});
  }
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
  StarConfig back;
  for (const StarConfig& ca : pool) {
    a.resize(StarCodec::words(ca));
    StarCodec::encode(ca, a.data());
    ASSERT_EQ(a.size(), ca.leaves.size() + 1);
    StarCodec::decode(a.data(), a.size(), back);
    ASSERT_TRUE(back == ca);
    for (const StarConfig& cb : pool) {
      b.resize(StarCodec::words(cb));
      StarCodec::encode(cb, b.data());
      EXPECT_EQ(a == b, ca == cb);
      if (ca == cb) {
        EXPECT_EQ(PackedCodec::hash_words(a.data(), a.size()),
                  PackedCodec::hash_words(b.data(), b.size()));
      }
    }
  }
}

TEST(PackedStore, DedupMatchesVectorStore) {
  Rng rng(13);
  const int num_states = 5;
  const int nodes = 9;
  const PackedCodec codec(num_states, nodes);
  PackedConfigStore packed(codec);
  ShardedConfigStore<Config, VectorHash<State>> reference;
  for (int i = 0; i < 5'000; ++i) {
    // A small pool so re-interning the same value is common.
    const Config c = random_config(num_states, nodes, rng);
    const auto p = packed.intern(c);
    const auto r = reference.intern(c);
    ASSERT_EQ(p.fresh, r.fresh) << "intern " << i;
    // Re-interning immediately must dedup and return the same gid.
    const auto again = packed.intern(c);
    EXPECT_FALSE(again.fresh);
    EXPECT_EQ(again.gid, p.gid);
  }
  EXPECT_EQ(packed.size(), reference.size());
  // Every stored value decodes back to a distinct configuration.
  packed.finalize();
  std::set<Config> seen;
  Config out;
  // gids are not dense; recover them via a fresh pass over the value space.
  Rng replay(13);
  for (int i = 0; i < 5'000; ++i) {
    const Config c = random_config(num_states, nodes, replay);
    const auto p = packed.intern(c);
    ASSERT_FALSE(p.fresh);
    packed.value(p.gid, out);
    EXPECT_EQ(out, c);
    seen.insert(out);
  }
  EXPECT_EQ(seen.size(), packed.size());
}

TEST(PackedStore, SingleStateSpaceCollapsesToOneConfig) {
  const PackedCodec codec(1, 40);
  EXPECT_EQ(codec.words(), 0u);
  PackedConfigStore store(codec);
  const Config c(40, 0);
  EXPECT_TRUE(store.intern(c).fresh);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(store.intern(c).fresh);
  }
  EXPECT_EQ(store.size(), 1u);
}

TEST(PackedStore, PackingShrinksStoreBytesAtLeastFourfold) {
  // |Q| = 16 packs 4 bits per node vs the vector store's 4 bytes plus node
  // and heap overhead — the ISSUE gate asks for >= 4x from packing alone.
  Rng rng(14);
  const int num_states = 16;
  const int nodes = 32;
  PackedConfigStore packed(PackedCodec(num_states, nodes));
  ShardedConfigStore<Config, VectorHash<State>> reference;
  for (int i = 0; i < 20'000; ++i) {
    const Config c = random_config(num_states, nodes, rng);
    packed.intern(c);
    reference.intern(c);
  }
  ASSERT_EQ(packed.size(), reference.size());
  ASSERT_GT(packed.size(), 10'000u);
  EXPECT_GE(reference.bytes(), 4 * packed.bytes())
      << "vector=" << reference.bytes() << " packed=" << packed.bytes();
}

TEST(PackedStore, ShardsStayBalancedUnderMixedSelector) {
  // Shard bits come from a splitmix-mixed hash, so no key family may
  // concentrate the store onto a few shards. Peak occupancy within 2x of
  // the perfectly even split.
  Rng rng(15);
  const int num_states = 5;
  const int nodes = 16;
  PackedConfigStore packed(PackedCodec(num_states, nodes));
  std::size_t distinct = 0;
  std::set<Config> seen;
  while (distinct < 20'000) {
    const Config c = random_config(num_states, nodes, rng);
    if (seen.insert(c).second) ++distinct;
    packed.intern(c);
  }
  packed.finalize();
  ASSERT_EQ(packed.size(), 20'000u);
  const std::size_t even = 20'000 / PackedConfigStore::kNumShards;
  EXPECT_LE(packed.shard_peak(), 2 * even);
}

// Feeds `stream` through route() + drain() into `routed` and through the
// locked intern() into its twin `interned`, level by level. Three owners
// split the 64 shards unevenly; each source gid is the stream index, so
// every drained (gid, fresh) pair can be matched against the intern() of
// the same value, and value(gid) must read that value back. Per shard both
// paths insert in stream order, so gids, sizes and bytes() must agree
// exactly.
template <typename Store, typename ConfigT>
void expect_route_drain_matches_intern(Store& routed, Store& interned,
                                       const std::vector<ConfigT>& stream) {
  constexpr std::size_t kOwners = 3;
  constexpr std::size_t kLevel = 700;
  std::array<std::uint32_t, Store::kNumShards> owner_of_shard{};
  for (std::size_t sh = 0; sh < Store::kNumShards; ++sh) {
    owner_of_shard[sh] =
        static_cast<std::uint32_t>(sh * kOwners / Store::kNumShards);
  }
  std::vector<typename Store::Batch> batches(kOwners);
  ConfigT scratch{};
  for (std::size_t begin = 0; begin < stream.size(); begin += kLevel) {
    const std::size_t end = std::min(begin + kLevel, stream.size());
    for (std::size_t i = begin; i < end; ++i) {
      routed.route(stream[i], static_cast<std::int64_t>(i), batches,
                   owner_of_shard);
    }
    std::vector<std::int64_t> gids(end - begin, -1);
    std::vector<bool> fresh(end - begin, false);
    for (std::size_t owner = 0; owner < kOwners; ++owner) {
      routed.drain(batches[owner], [&](std::int64_t src, std::int64_t gid,
                                       bool inserted) {
        const auto i = static_cast<std::size_t>(src);
        ASSERT_GE(i, begin);
        ASSERT_LT(i, end);
        EXPECT_EQ(
            owner_of_shard[static_cast<std::size_t>(gid) & Store::kShardMask],
            owner);
        gids[i - begin] = gid;
        fresh[i - begin] = inserted;
      });
      batches[owner].clear();
    }
    // Every routed item, fresh or not, reads back as the routed value.
    for (std::size_t i = begin; i < end; ++i) {
      ASSERT_GE(gids[i - begin], 0) << "item " << i << " never drained";
      EXPECT_EQ(routed.value(gids[i - begin], scratch), stream[i])
          << "item " << i;
    }
    for (std::size_t i = begin; i < end; ++i) {
      const auto want = interned.intern(stream[i]);
      EXPECT_EQ(gids[i - begin], want.gid) << "item " << i;
      EXPECT_EQ(fresh[i - begin], want.fresh) << "item " << i;
    }
    EXPECT_EQ(routed.size(), interned.size());
  }
  EXPECT_EQ(routed.bytes(), interned.bytes());
}

// A stream of `length` draws from a pool of `pool_size` random
// configurations, so repeats are common.
std::vector<Config> config_stream(int num_states, int nodes,
                                  std::size_t pool_size, std::size_t length,
                                  Rng& rng) {
  std::vector<Config> pool;
  for (std::size_t i = 0; i < pool_size; ++i) {
    pool.push_back(random_config(num_states, nodes, rng));
  }
  std::vector<Config> stream;
  for (std::size_t i = 0; i < length; ++i) {
    stream.push_back(pool[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(pool_size) - 1))]);
  }
  return stream;
}

TEST(PackedStore, RouteAndDrainInternExactlyLikeIntern) {
  struct Case {
    int num_states;
    int nodes;
    std::size_t words;
  };
  // One word; three words with fields straddling word boundaries; and
  // |Q| = 1, which packs every configuration into zero words.
  for (const Case& c : {Case{5, 9, 1}, Case{5, 50, 3}, Case{1, 40, 0}}) {
    SCOPED_TRACE(testing::Message() << "|Q|=" << c.num_states
                                    << " n=" << c.nodes);
    const PackedCodec codec(c.num_states, c.nodes);
    ASSERT_EQ(codec.words(), c.words);
    Rng rng(17);
    const auto stream = config_stream(c.num_states, c.nodes, 3'000, 8'000, rng);
    PackedConfigStore routed(codec);
    PackedConfigStore interned(codec);
    expect_route_drain_matches_intern(routed, interned, stream);
    EXPECT_EQ(routed.size(), c.num_states == 1 ? 1u : interned.size());
  }
}

TEST(PackedStore, CountedRouteAndDrainInternExactlyLikeIntern) {
  // Variable-width entries: every routed item carries its word count, and
  // the shard finds each entry through its end offset.
  Rng rng(19);
  const std::vector<CountedConfig> pool = counted_pool(rng);
  std::vector<CountedConfig> stream;
  std::vector<StarConfig> stars;
  for (int i = 0; i < 6'000; ++i) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(pool.size()) - 1));
    stream.push_back(pool[pick]);
    stars.push_back({static_cast<State>(rng.uniform(0, 1)), pool[pick]});
  }
  PackedCountedStore routed(CountedCodec{});
  PackedCountedStore interned(CountedCodec{});
  expect_route_drain_matches_intern(routed, interned, stream);
  EXPECT_EQ(routed.size(),
            std::set<CountedConfig>(stream.begin(), stream.end()).size());
  PackedStarStore routed_stars(StarCodec{});
  PackedStarStore interned_stars(StarCodec{});
  expect_route_drain_matches_intern(routed_stars, interned_stars, stars);
  std::set<std::pair<State, CountedConfig>> distinct_stars;
  for (const StarConfig& c : stars) distinct_stars.emplace(c.centre, c.leaves);
  EXPECT_EQ(routed_stars.size(), distinct_stars.size());
}

TEST(PackedStore, BytesChargeEveryEntryAndNoShard) {
  // The charge is a function of the entries alone: the same values give
  // the same bytes() whichever shards they land in. Renaming every state
  // (as a compiled machine's thread-timed ids do) moves entries between
  // shards but keeps each one's words and count.
  Rng rng(20);
  PackedCountedStore a(CountedCodec{});
  PackedCountedStore b(CountedCodec{});
  std::size_t words = 0;
  for (int i = 0; i < 3'000; ++i) {
    CountedConfig c = random_counted(rng, 1'000, 50, 4);
    if (a.intern(c).fresh) words += c.size();
    for (auto& [q, n] : c) q += 7'919;  // the same order, other shards
    b.intern(c);
  }
  ASSERT_EQ(a.size(), b.size());
  EXPECT_NE(a.shard_occupancies(), b.shard_occupancies());
  EXPECT_EQ(a.bytes(), b.bytes());
  EXPECT_EQ(a.bytes(), words * 8 + a.size() * (8 + 4) +
                           PackedCountedStore::index_bytes(a.size()));
  EXPECT_EQ(PackedCountedStore::index_bytes(7), 40u);
  EXPECT_EQ(PackedCountedStore::index_bytes(8), 48u);
}

// Two states that flip whenever an opposite neighbour is present: the
// reachable space on a mixed-label cycle is tens of thousands of
// configurations — enough to exercise store growth and shard balance.
std::shared_ptr<Machine> flip_machine() {
  FunctionMachine::Spec spec;
  spec.beta = 1;
  spec.num_labels = 2;
  spec.num_states = 2;
  spec.init = [](Label l) { return static_cast<State>(l); };
  spec.step = [](State s, const Neighbourhood& n) {
    return n.count(1 - s) > 0 ? static_cast<State>(1 - s) : s;
  };
  spec.verdict = [](State s) {
    return s == 1 ? Verdict::Accept : Verdict::Reject;
  };
  return std::make_shared<FunctionMachine>(spec);
}

TEST(PackedStore, EngineMatchesSequentialReferenceAtOneAndFourWorkers) {
  // End to end: explore_and_classify_in on the packed store, at one and at
  // four workers, against the sequential reference decide_pseudo_stochastic
  // (an Interner store, a forward CSR and a full Tarjan, with its own
  // successor loop) on the same 16-cycle. The engine's shards must stay
  // balanced too: the ExploreStats-level check of the mixed shard selector.
  const auto m = flip_machine();
  std::vector<Label> labels(16, 0);
  for (std::size_t i = 0; i < labels.size(); i += 3) labels[i] = 1;
  const Graph g = make_cycle(labels);
  const ExplicitResult reference =
      decide_pseudo_stochastic(*m, g, {.max_configs = 500'000});
  ASSERT_NE(reference.decision, Decision::Unknown);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " workers");
    PackedConfigStore store(PackedCodec(*m->num_states(), g.n()));
    ExploreStats stats;
    const ExploreOutcome packed = explore_and_classify_in(
        store, initial_config(*m, g),
        [&](int) {
          return ExplicitExpander{*m, g, Neighbourhood{}, Config{}};
        },
        [&](const Config& c) { return consensus(*m, c); },
        {.max_configs = 500'000, .max_threads = threads}, &stats);
    EXPECT_EQ(packed.decision, reference.decision);
    EXPECT_EQ(packed.reason, reference.reason);
    EXPECT_EQ(packed.num_configs, reference.num_configs);
    EXPECT_EQ(packed.num_bottom_sccs, reference.num_bottom_sccs);
    EXPECT_EQ(stats.threads, threads);
    ASSERT_GE(stats.configs, 10'000u);
    const std::size_t even = stats.configs / PackedConfigStore::kNumShards;
    EXPECT_LE(stats.shard_peak, 2 * even + 8);
  }
}

TEST(PackedStore, WorkersPastTheSixtyFourthOwnNoShardAndChangeNothing) {
  // 64 shards give at most 64 owners; the 65th worker on only expands.
  const auto m = flip_machine();
  std::vector<Label> labels(10, 0);
  for (std::size_t i = 0; i < labels.size(); i += 3) labels[i] = 1;
  const Graph g = make_cycle(labels);
  const auto explore = [&](int threads) {
    PackedConfigStore store(PackedCodec(*m->num_states(), g.n()));
    ExploreStats stats;
    const ExploreOutcome out = explore_and_classify_in(
        store, initial_config(*m, g),
        [&](int) {
          return ExplicitExpander{*m, g, Neighbourhood{}, Config{}};
        },
        [&](const Config& c) { return consensus(*m, c); },
        {.max_configs = 500'000, .max_threads = threads}, &stats);
    EXPECT_EQ(stats.threads, threads);
    EXPECT_EQ(stats.configs, out.num_configs);
    return out;
  };
  const ExploreOutcome one = explore(1);
  ASSERT_NE(one.decision, Decision::Unknown);
  const ExploreOutcome many = explore(70);
  EXPECT_EQ(many.decision, one.decision);
  EXPECT_EQ(many.num_configs, one.num_configs);
  EXPECT_EQ(many.num_bottom_sccs, one.num_bottom_sccs);
}

}  // namespace
}  // namespace dawn
