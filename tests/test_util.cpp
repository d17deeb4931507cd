#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dawn/util/check.hpp"
#include "dawn/util/hash.hpp"
#include "dawn/util/interner.hpp"
#include "dawn/util/mt64.hpp"
#include "dawn/util/parse.hpp"
#include "dawn/util/rng.hpp"
#include "dawn/util/table.hpp"

namespace dawn {
namespace {

TEST(Check, ThrowsLogicErrorWithMessage) {
  try {
    DAWN_CHECK_MSG(1 == 2, "math broke");
    FAIL() << "expected throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
  }
}

TEST(Check, PassesSilently) { DAWN_CHECK(2 + 2 == 4); }

TEST(Interner, AssignsDenseStableIds) {
  Interner<std::string> in;
  EXPECT_EQ(in.id("a"), 0);
  EXPECT_EQ(in.id("b"), 1);
  EXPECT_EQ(in.id("a"), 0);
  EXPECT_EQ(in.size(), 2u);
  EXPECT_EQ(in.value(1), "b");
}

TEST(Interner, FindDoesNotCreate) {
  Interner<std::string> in;
  EXPECT_EQ(in.find("missing"), -1);
  EXPECT_EQ(in.size(), 0u);
  in.id("x");
  EXPECT_EQ(in.find("x"), 0);
}

TEST(Interner, StableAcrossReallocation) {
  Interner<std::vector<int>, VectorHash<int>> in;
  std::vector<std::int32_t> ids;
  for (int i = 0; i < 1000; ++i) ids.push_back(in.id({i, i * 2}));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(in.id({i, i * 2}), ids[static_cast<std::size_t>(i)]);
    EXPECT_EQ(in.value(ids[static_cast<std::size_t>(i)])[0], i);
  }
}

// Eight writers intern overlapping key ranges into one empty interner
// (18k keys, so the index grows from 32 slots to 64k) while two readers
// look keys up and read back the newest value. Afterwards the ids must be
// dense, every key must have exactly one id, and value(id(k)) == k.
template <typename Key, typename Hash, typename MakeKey>
void stress_interner(MakeKey make_key) {
  constexpr int kWriters = 8;
  constexpr int kReaders = 2;
  constexpr int kKeysPerWriter = 4000;
  constexpr int kStride = kKeysPerWriter / 2;  // neighbours share half
  constexpr int kDistinct = (kWriters - 1) * kStride + kKeysPerWriter;

  Interner<Key, Hash> in;
  std::vector<std::vector<std::int32_t>> ids(
      kWriters, std::vector<std::int32_t>(kKeysPerWriter, -1));
  std::atomic<int> waiting{kWriters + kReaders};
  std::atomic<int> writing{kWriters};
  std::atomic<int> bad_reads{0};
  const auto start = [&waiting] {
    waiting.fetch_sub(1);
    while (waiting.load() > 0) std::this_thread::yield();
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      start();
      for (int i = 0; i < kKeysPerWriter; ++i) {
        // Odd writers walk their range backwards to meet their neighbours.
        const int j = w % 2 == 0 ? i : kKeysPerWriter - 1 - i;
        ids[static_cast<std::size_t>(w)][static_cast<std::size_t>(j)] =
            in.id(make_key(w * kStride + j));
      }
      writing.fetch_sub(1);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      start();
      std::uint32_t k = static_cast<std::uint32_t>(r);
      while (writing.load() > 0) {
        k = k * 1664525u + 1013904223u;
        const Key key = make_key(static_cast<int>(k % kDistinct));
        const std::int32_t id = in.find(key);
        if (id >= 0 && !(in.value(id) == key)) bad_reads.fetch_add(1);
        // Every id below size() has its value; the index may publish the
        // newest one a moment later, so find() may still miss it.
        const std::size_t n = in.size();
        if (n > 0) {
          const auto last = static_cast<std::int32_t>(n - 1);
          const std::int32_t found = in.find(in.value(last));
          if (found != -1 && found != last) bad_reads.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(bad_reads.load(), 0);
  // Dense ids, and no value holds two of them.
  ASSERT_EQ(in.size(), static_cast<std::size_t>(kDistinct));
  for (std::int32_t id = 0; id < kDistinct; ++id) {
    ASSERT_EQ(in.find(in.value(id)), id);
  }
  for (int k = 0; k < kDistinct; ++k) {
    const std::int32_t id = in.find(make_key(k));
    ASSERT_GE(id, 0);
    EXPECT_TRUE(in.value(id) == make_key(k));
  }
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kKeysPerWriter; ++i) {
      ASSERT_EQ(ids[static_cast<std::size_t>(w)][static_cast<std::size_t>(i)],
                in.find(make_key(w * kStride + i)));
    }
  }
}

// The shape of the compiled layers' interned states (extensions/*.hpp).
struct PackedKey {
  std::int32_t q;
  std::int8_t phase;
  std::int32_t pending;
  bool operator==(const PackedKey&) const = default;
};

struct PackedKeyHash {
  std::size_t operator()(const PackedKey& p) const {
    std::size_t seed = static_cast<std::size_t>(p.phase);
    hash_combine(seed, static_cast<std::uint64_t>(p.q));
    hash_combine(seed, static_cast<std::uint64_t>(p.pending));
    return seed;
  }
};

TEST(Interner, ConcurrentPackedKeysGetDenseUniqueIds) {
  stress_interner<PackedKey, PackedKeyHash>([](int k) {
    return PackedKey{k / 3, static_cast<std::int8_t>(k % 3), -k};
  });
}

TEST(Interner, ConcurrentVectorKeysGetDenseUniqueIds) {
  stress_interner<std::vector<std::int32_t>, VectorHash<std::int32_t>>(
      [](int k) { return std::vector<std::int32_t>{k % 7, k / 7, k}; });
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.uniform(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.uniform(0, 1000), b.uniform(0, 1000));
}

TEST(Rng, IndexCoversAllValues) {
  Rng rng(9);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.index(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, IndexBatchMatchesScalarLemireReduction) {
  // index_batch is the batched form of index(): same raw engine words, same
  // reduced values — for every n, including ones near the uint32 ceiling
  // (the AVX2 kernel splits the 64x32 multiply into 32-bit halves there).
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{7},
        std::size_t{1000}, std::size_t{1} << 31,
        std::size_t{0xffffffffull}}) {
    Rng raw_src(11), scalar_src(11);
    std::vector<std::uint64_t> raw(100);
    std::vector<std::uint32_t> batched(raw.size());
    for (auto& r : raw) r = raw_src.next_raw();
    Rng::index_batch(raw.data(), raw.size(), n, batched.data());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      EXPECT_EQ(batched[i], scalar_src.index(n)) << "n=" << n << " i=" << i;
    }
  }
  // Odd counts exercise the scalar tail after the 4-wide vector body.
  Rng raw_src(5), scalar_src(5);
  std::vector<std::uint64_t> raw(13);
  std::vector<std::uint32_t> batched(raw.size());
  for (auto& r : raw) r = raw_src.next_raw();
  Rng::index_batch(raw.data(), raw.size(), 37, batched.data());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(batched[i], scalar_src.index(37));
  }
}

TEST(Rng, IndexBatchRejectsDegenerateBounds) {
  std::uint64_t raw = 0;
  std::uint32_t out = 0;
  EXPECT_THROW(Rng::index_batch(&raw, 1, 0, &out), std::logic_error);
}

TEST(Mt64, MatchesStdMersenneTwisterFromAnySeed) {
  // Mt64 exists so the batched trial engine can draw scheduler randomness
  // through vectorisable burst fills; the whole point is that its stream is
  // std::mt19937_64's stream, bit for bit, from the same seed.
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0x5eed},
        std::uint64_t{0xdeadbeef}, ~std::uint64_t{0}}) {
    std::mt19937_64 ref(seed);
    Mt64 mine(seed);
    // Past 2 * 312 draws, every state word has been regenerated twice.
    for (int i = 0; i < 700; ++i) {
      ASSERT_EQ(mine.next(), ref()) << "seed=" << seed << " draw=" << i;
    }
  }
}

TEST(Mt64, FillRawChunkingIsInvisible) {
  // Burst fills split at arbitrary points must concatenate to the plain
  // stream — counts straddling the 312-word regeneration boundary included.
  std::mt19937_64 ref(42);
  Mt64 mine(42);
  std::vector<std::uint64_t> out(1000);
  std::size_t at = 0;
  for (const std::size_t count : {std::size_t{1}, std::size_t{64},
                                  std::size_t{247}, std::size_t{312},
                                  std::size_t{313}, std::size_t{63}}) {
    mine.fill_raw(out.data() + at, count);
    at += count;
  }
  for (std::size_t i = 0; i < at; ++i) {
    ASSERT_EQ(out[i], ref()) << "draw=" << i;
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Hash, MixesSmallIntegers) {
  std::set<std::uint64_t> hashes;
  for (std::uint64_t i = 0; i < 100; ++i) hashes.insert(hash_mix(i));
  EXPECT_EQ(hashes.size(), 100u);
}

TEST(Hash, VectorHashDistinguishesPermutations) {
  VectorHash<int> h;
  EXPECT_NE(h({1, 2, 3}), h({3, 2, 1}));
  EXPECT_EQ(h({1, 2, 3}), h({1, 2, 3}));
}

TEST(Table, RendersAlignedColumns) {
  Table t({"class", "power"});
  t.add_row({"DAF", "NL"});
  t.add_row({"dAF", "Cutoff"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| DAF"), std::string::npos);
  EXPECT_NE(out.find("Cutoff"), std::string::npos);
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Table, RejectsWrongWidth) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(Parse, AcceptsWholeTokenIntegers) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_EQ(parse_int("0"), 0);
  EXPECT_EQ(parse_uint64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Parse, RejectsGarbageThatAtoiSilentlyZeroed) {
  // std::atoi("abc") == 0 was the bug this replaces: a typo became a
  // plausible run on the wrong input.
  EXPECT_FALSE(parse_int("abc").has_value());
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("12x").has_value());
  EXPECT_FALSE(parse_int("1 2").has_value());
  EXPECT_FALSE(parse_int("0x10").has_value());
  EXPECT_FALSE(parse_int("4.5").has_value());
  EXPECT_FALSE(parse_uint64("-1").has_value());
  EXPECT_FALSE(parse_uint64("nope").has_value());
}

TEST(Parse, EnforcesBoundsAndOverflow) {
  EXPECT_EQ(parse_int("5", 0, 10), 5);
  EXPECT_FALSE(parse_int("11", 0, 10).has_value());
  EXPECT_FALSE(parse_int("-1", 0, 10).has_value());
  // Past INT64_MAX: strtoll saturates and sets ERANGE; must not wrap.
  EXPECT_FALSE(parse_int("9223372036854775808").has_value());
  EXPECT_FALSE(parse_uint64("18446744073709551616").has_value());
}

}  // namespace
}  // namespace dawn
