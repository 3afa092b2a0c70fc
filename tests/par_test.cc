#include "util/par.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/hash.h"

namespace atlas::util {
namespace {

TEST(DefaultThreadsTest, AlwaysAtLeastOne) {
  EXPECT_GE(DefaultThreads(), 1);
  EXPECT_GE(ResolveThreads(0), 1);
  EXPECT_GE(ResolveThreads(-3), 1);
  EXPECT_EQ(ResolveThreads(5), 5);
}

TEST(DefaultThreadsTest, PinAndRestore) {
  const int hardware = DefaultThreads();
  SetDefaultThreads(3);
  EXPECT_EQ(DefaultThreads(), 3);
  EXPECT_EQ(ResolveThreads(0), 3);
  SetDefaultThreads(0);  // restore hardware default
  EXPECT_EQ(DefaultThreads(), hardware);
}

TEST(ParallelForTest, EmptyRangeNeverCalls) {
  std::atomic<int> calls{0};
  ParallelFor(0, [&](std::size_t) { ++calls; }, 4);
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, SingleElement) {
  std::atomic<int> calls{0};
  std::size_t seen = 99;
  ParallelFor(1, [&](std::size_t i) { ++calls; seen = i; }, 8);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen, 0u);
}

TEST(ParallelForTest, EveryIndexExactlyOnce) {
  constexpr std::size_t kN = 2000;
  std::vector<std::atomic<int>> counts(kN);
  ParallelFor(kN, [&](std::size_t i) { ++counts[i]; }, 4);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, WritesToDisjointSlotsAreDeterministic) {
  // The determinism contract: shard i's output depends only on i.
  std::vector<std::uint64_t> once(512), twice(512);
  const auto fill = [](std::vector<std::uint64_t>& out, int threads) {
    ParallelFor(out.size(),
                [&](std::size_t i) { out[i] = Mix64(i * 2654435761u); },
                threads);
  };
  fill(once, 1);
  fill(twice, 8);
  EXPECT_EQ(once, twice);
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  EXPECT_THROW(
      ParallelFor(
          100,
          [](std::size_t i) {
            if (i == 57) throw std::runtime_error("shard 57 failed");
          },
          4),
      std::runtime_error);
}

TEST(ParallelForTest, ExceptionAbortsRemainingShards) {
  std::atomic<int> executed{0};
  try {
    ParallelFor(
        100000,
        [&](std::size_t i) {
          ++executed;
          if (i == 0) throw std::runtime_error("early failure");
        },
        2);
    FAIL() << "expected throw";
  } catch (const std::runtime_error&) {
  }
  // A failure at shard 0 stops the dispatch of every higher shard, long
  // before the full range drains. Keep the bound loose: the other workers
  // may each complete a few shards first.
  EXPECT_LT(executed.load(), 100000);
}

TEST(ParallelForTest, NestedCallsRunInline) {
  std::vector<std::atomic<int>> counts(64);
  std::atomic<int> nested_regions{0};
  ParallelFor(
      8,
      [&](std::size_t outer) {
        if (InParallelRegion()) ++nested_regions;
        // A nested ParallelFor must degrade to an inline serial loop rather
        // than spawning a pool inside a pool.
        ParallelFor(
            8, [&](std::size_t inner) { ++counts[outer * 8 + inner]; }, 4);
      },
      4);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
  // With >1 resolved threads every shard executes inside a region.
  EXPECT_EQ(nested_regions.load(), 8);
}

TEST(ThreadPoolTest, SizeCountsCallerAsExecutor) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  ThreadPool solo(1);
  EXPECT_EQ(solo.size(), 1);
}

TEST(ThreadPoolTest, RunsAllShards) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(333);
  pool.Run(counts.size(), [&](std::size_t i) { ++counts[i]; });
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ReusableAcrossJobsAndAfterFailure) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  pool.Run(10, [&](std::size_t) { ++total; });
  EXPECT_THROW(
      pool.Run(10, [](std::size_t i) {
        if (i == 3) throw std::invalid_argument("boom");
      }),
      std::invalid_argument);
  pool.Run(10, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 20);
}

TEST(ThreadPoolTest, LowestFailingShardIsRaised) {
  // Shard 3 fails late and shard 7 fails at once, so shard 7 is usually the
  // first failure in wall time; the serial loop raises shard 3's.
  constexpr std::size_t kShards = 16;
  for (const int threads : {2, 8}) {
    ThreadPool pool(threads);
    for (int attempt = 0; attempt < 100; ++attempt) {
      std::vector<std::atomic<int>> ran(kShards);
      try {
        pool.Run(kShards, [&](std::size_t i) {
          ++ran[i];
          if (i == 3) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            throw std::runtime_error("shard 3 failed");
          }
          if (i == 7) throw std::runtime_error("shard 7 failed");
        });
        FAIL() << "expected throw";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "shard 3 failed")
            << "threads=" << threads << ", attempt " << attempt;
      }
      for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(ran[i].load(), 1)
            << "shard " << i << ", threads=" << threads << ", attempt "
            << attempt;
      }
    }
  }
}

TEST(ThreadPoolTest, NestedRunRejected) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.Run(4, [&](std::size_t) { pool.Run(2, [](std::size_t) {}); }),
      std::logic_error);
  // Nested use of a *different* pool is rejected too (it would deadlock the
  // waiting outer workers just the same under exhaustion).
  ThreadPool other(2);
  EXPECT_THROW(
      pool.Run(4, [&](std::size_t) { other.Run(2, [](std::size_t) {}); }),
      std::logic_error);
}

TEST(ParallelReduceTest, EmptyRangeReturnsInit) {
  const auto sum = ParallelReduce<std::uint64_t>(
      0, 42, [](std::size_t i) { return i; },
      [](const std::uint64_t& a, const std::uint64_t& b) { return a + b; }, 4);
  EXPECT_EQ(sum, 42u);
}

TEST(ParallelReduceTest, OrderedFoldMatchesSerial) {
  constexpr std::size_t kN = 10000;
  const auto map = [](std::size_t i) { return static_cast<double>(i) * 0.1; };
  const auto combine = [](const double& a, const double& b) { return a + b; };
  const double serial =
      ParallelReduce<double>(kN, 0.0, map, combine, 1);
  const double parallel =
      ParallelReduce<double>(kN, 0.0, map, combine, 8);
  // Bit-identical, not just approximately equal: the fold is ordered.
  EXPECT_EQ(serial, parallel);
}

TEST(ShardedRngTest, DeterministicPerShard) {
  ShardedRng a(1234, 16);
  ShardedRng b(1234, 16);
  ASSERT_EQ(a.shards(), 16u);
  for (std::size_t s = 0; s < a.shards(); ++s) {
    EXPECT_EQ(a.seed(s), b.seed(s));
  }
}

TEST(ShardedRngTest, StreamsAreDistinct) {
  ShardedRng streams(99, 64);
  std::set<std::uint64_t> seeds;
  for (std::size_t s = 0; s < streams.shards(); ++s) {
    seeds.insert(streams.seed(s));
  }
  EXPECT_EQ(seeds.size(), 64u);
  // Different base seeds give different stream families.
  ShardedRng other(100, 64);
  EXPECT_NE(streams.seed(0), other.seed(0));
}

TEST(ApportionTest, QuotasSumExactly) {
  const std::vector<double> weights = {3.0, 1.0, 0.5, 0.0, 10.0};
  for (std::uint64_t total : {0ULL, 1ULL, 7ULL, 1000ULL, 99999ULL}) {
    const auto quotas = ApportionByWeight(total, weights);
    ASSERT_EQ(quotas.size(), weights.size());
    EXPECT_EQ(std::accumulate(quotas.begin(), quotas.end(), 0ULL), total);
  }
}

TEST(ApportionTest, ProportionalAndDeterministic) {
  const std::vector<double> weights = {1.0, 3.0};
  const auto quotas = ApportionByWeight(1000, weights);
  EXPECT_EQ(quotas[0], 250u);
  EXPECT_EQ(quotas[1], 750u);
  EXPECT_EQ(ApportionByWeight(1000, weights), quotas);
  // Zero mass falls back to an even split.
  const auto even = ApportionByWeight(10, {0.0, 0.0, 0.0});
  EXPECT_EQ(std::accumulate(even.begin(), even.end(), 0ULL), 10u);
}

// Stress case sized to surface races under TSan: many small jobs with
// shared-counter traffic and cross-thread visibility of the results vector.
TEST(ParallelForTest, StressManyJobs) {
  constexpr std::size_t kJobs = 50;
  constexpr std::size_t kShards = 400;
  std::atomic<std::uint64_t> checksum{0};
  for (std::size_t job = 0; job < kJobs; ++job) {
    std::vector<std::uint64_t> slots(kShards, 0);
    ParallelFor(
        kShards,
        [&](std::size_t i) { slots[i] = Mix64(job * kShards + i); },
        8);
    std::uint64_t folded = 0;
    for (const auto v : slots) folded = HashCombine(folded, v);
    checksum.fetch_add(folded);
  }
  EXPECT_NE(checksum.load(), 0u);
}

}  // namespace
}  // namespace atlas::util
