// util::FlatHashMap / FlatHashSet: the open-addressing tables under every
// hot accumulator. The contract the accumulators lean on: value-initialized
// TryEmplace, keep-first InsertIfAbsent, deterministic sorted views for
// serialization, and growth that never loses or duplicates a key.
#include "util/flat_hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace atlas::util {
namespace {

TEST(FlatHashMapTest, InsertFindAndOperatorBracket) {
  FlatHashMap<std::uint64_t, std::uint64_t> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(1), nullptr);
  m[1] = 10;
  m[2] = 20;
  ++m[1];
  ASSERT_NE(m.Find(1), nullptr);
  EXPECT_EQ(*m.Find(1), 11u);
  EXPECT_EQ(*m.Find(2), 20u);
  EXPECT_EQ(m.Find(3), nullptr);
  EXPECT_EQ(m.size(), 2u);
}

TEST(FlatHashMapTest, TryEmplaceValueInitializesOnce) {
  FlatHashMap<std::uint64_t, std::uint64_t> m;
  auto [slot, inserted] = m.TryEmplace(7);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*slot, 0u);  // value-initialized
  *slot = 42;
  auto [again, second] = m.TryEmplace(7);
  EXPECT_FALSE(second);
  EXPECT_EQ(*again, 42u);  // existing value untouched
}

TEST(FlatHashMapTest, InsertIfAbsentKeepsFirst) {
  FlatHashMap<std::uint64_t, std::string> m;
  m.InsertIfAbsent(1, "first");
  m.InsertIfAbsent(1, "second");
  ASSERT_NE(m.Find(1), nullptr);
  EXPECT_EQ(*m.Find(1), "first");
}

TEST(FlatHashMapTest, AtThrowsOnMissingKey) {
  FlatHashMap<std::uint64_t, int> m;
  m[3] = 30;
  EXPECT_EQ(m.At(3), 30);
  EXPECT_THROW(m.At(4), std::out_of_range);
}

TEST(FlatHashMapTest, GrowthPreservesEveryEntry) {
  // Push far past kMinCapacity and the 3/4 load factor so the table
  // rehashes several times.
  FlatHashMap<std::uint64_t, std::uint64_t> m;
  constexpr std::uint64_t kN = 10'000;
  for (std::uint64_t k = 0; k < kN; ++k) m[k * 2654435761u] = k;
  EXPECT_EQ(m.size(), kN);
  for (std::uint64_t k = 0; k < kN; ++k) {
    auto* v = m.Find(k * 2654435761u);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k);
  }
}

TEST(FlatHashMapTest, CollidingKeysProbeCorrectly) {
  // Sequential keys land densely after mixing; with a tiny table most
  // inserts probe past occupied slots.
  FlatHashMap<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t k = 0; k < 64; ++k) m[k] = k + 100;
  for (std::uint64_t k = 0; k < 64; ++k) {
    ASSERT_NE(m.Find(k), nullptr);
    EXPECT_EQ(*m.Find(k), k + 100);
  }
  EXPECT_EQ(m.Find(64), nullptr);
}

TEST(FlatHashMapTest, SortedKeysIsDeterministic) {
  FlatHashMap<std::uint64_t, int> m;
  for (const std::uint64_t k : {9ULL, 2ULL, 7ULL, 4ULL, 1ULL}) {
    m[k] = static_cast<int>(k);
  }
  const std::vector<std::uint64_t> keys = m.SortedKeys();
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{1, 2, 4, 7, 9}));
}

TEST(FlatHashMapTest, ForEachVisitsEveryEntryExactlyOnce) {
  FlatHashMap<std::uint64_t, std::uint64_t> m;
  std::uint64_t key_sum = 0, value_sum = 0;
  for (std::uint64_t k = 1; k <= 100; ++k) m[k] = 2 * k;
  m.ForEach([&](std::uint64_t k, const std::uint64_t& v) {
    key_sum += k;
    value_sum += v;
  });
  EXPECT_EQ(key_sum, 5050u);
  EXPECT_EQ(value_sum, 10100u);
  m.ForEachMutable([](std::uint64_t, std::uint64_t& v) { ++v; });
  EXPECT_EQ(m.At(1), 3u);
  EXPECT_EQ(m.At(100), 201u);
}

TEST(FlatHashMapTest, ClearResetsAndReuses) {
  FlatHashMap<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t k = 0; k < 100; ++k) m[k] = k;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(5), nullptr);
  m[5] = 50;
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.At(5), 50u);
}

TEST(FlatHashMapTest, NonTrivialValuesSurviveRehash) {
  FlatHashMap<std::uint64_t, std::vector<int>> m;
  for (std::uint64_t k = 0; k < 200; ++k) {
    m[k].push_back(static_cast<int>(k));
  }
  for (std::uint64_t k = 0; k < 200; ++k) {
    ASSERT_EQ(m.At(k).size(), 1u) << k;
    EXPECT_EQ(m.At(k)[0], static_cast<int>(k));
  }
}

TEST(FlatHashMapTest, PairKeysSortLexicographically) {
  using Key = std::pair<std::uint64_t, std::uint64_t>;
  FlatHashMap<Key, int, FlatPairHash> m;
  m[{2, 1}] = 1;
  m[{1, 9}] = 2;
  m[{1, 3}] = 3;
  m[{2, 0}] = 4;
  const auto keys = m.SortedKeys();
  const std::vector<Key> expected = {{1, 3}, {1, 9}, {2, 0}, {2, 1}};
  EXPECT_EQ(keys, expected);
  EXPECT_EQ(m.At({1, 3}), 3);
}

TEST(FlatHashSetTest, InsertReportsNovelty) {
  FlatHashSet<std::uint64_t> s;
  EXPECT_TRUE(s.Insert(1));
  EXPECT_FALSE(s.Insert(1));
  EXPECT_TRUE(s.Insert(2));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.Contains(1));
  EXPECT_FALSE(s.Contains(3));
}

TEST(FlatHashSetTest, SortedElementsAndGrowth) {
  FlatHashSet<std::uint64_t> s;
  for (std::uint64_t k = 500; k > 0; --k) s.Insert(k);
  EXPECT_EQ(s.size(), 500u);
  for (std::uint64_t k = 1; k <= 500; ++k) EXPECT_TRUE(s.Contains(k)) << k;
  EXPECT_FALSE(s.Contains(501));
}

TEST(FlatHashMapTest, ReserveAvoidsNothingButStaysCorrect) {
  // reserve() is a hint; behavior must be identical with or without it.
  FlatHashMap<std::uint64_t, std::uint64_t> a, b;
  a.reserve(1000);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    a[k] = k;
    b[k] = k;
  }
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.SortedKeys(), b.SortedKeys());
}

}  // namespace
}  // namespace atlas::util
