#include "cdn/revalidation.h"

#include "cdn/policies.h"
#include "ckpt/checkpoint.h"

#include <gtest/gtest.h>

#include <sstream>

namespace atlas::cdn {
namespace {

using synth::PatternType;

constexpr std::int64_t kHourMs = 3600 * 1000LL;

TEST(RevalidationOracleTest, DefaultsForUnknownObjects) {
  RevalidationOracle oracle;
  EXPECT_EQ(oracle.TtlFor(12345), 6 * kHourMs);
  EXPECT_EQ(oracle.classified_count(), 0u);
}

TEST(RevalidationOracleTest, PaperPrescription) {
  // Daily expiry for diurnal/long-lived, hourly for short-lived and flash
  // crowds, in between for outliers.
  RevalidationOracle oracle;
  EXPECT_EQ(oracle.TtlForPattern(PatternType::kDiurnal), 24 * kHourMs);
  EXPECT_EQ(oracle.TtlForPattern(PatternType::kLongLived), 24 * kHourMs);
  EXPECT_EQ(oracle.TtlForPattern(PatternType::kShortLived), kHourMs);
  EXPECT_EQ(oracle.TtlForPattern(PatternType::kFlashCrowd), kHourMs);
  EXPECT_EQ(oracle.TtlForPattern(PatternType::kOutlier), 4 * kHourMs);
}

TEST(RevalidationOracleTest, ClassifiedObjectsUseTheirPattern) {
  RevalidationOracle oracle;
  oracle.Classify(1, PatternType::kDiurnal);
  oracle.Classify(2, PatternType::kShortLived);
  EXPECT_EQ(oracle.TtlFor(1), 24 * kHourMs);
  EXPECT_EQ(oracle.TtlFor(2), kHourMs);
  EXPECT_EQ(oracle.classified_count(), 2u);
  // Reclassification overwrites.
  oracle.Classify(1, PatternType::kShortLived);
  EXPECT_EQ(oracle.TtlFor(1), kHourMs);
}

TEST(OracleTtlCacheTest, PerKeyLifetimes) {
  // Key 1 lives 100ms, key 2 lives 1000ms.
  OracleTtlCache cache(1 << 20, [](std::uint64_t key) {
    return key == 1 ? 100LL : 1000LL;
  });
  cache.Access(1, 10, 0);
  cache.Access(2, 10, 0);
  // At t=150: key 1 expired, key 2 fresh.
  EXPECT_EQ(cache.Access(1, 10, 150), trace::CacheStatus::kMiss);
  EXPECT_EQ(cache.Access(2, 10, 150), trace::CacheStatus::kHit);
  EXPECT_EQ(cache.expired_lookups(), 1u);
}

TEST(OracleTtlCacheTest, BehavesLikeCacheOtherwise) {
  OracleTtlCache cache(100, [](std::uint64_t) { return 1000000LL; });
  EXPECT_EQ(cache.Access(1, 60, 0), trace::CacheStatus::kMiss);
  EXPECT_EQ(cache.Access(1, 60, 1), trace::CacheStatus::kHit);
  // Evicts LRU under pressure.
  cache.Access(2, 60, 2);
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_LE(cache.used_bytes(), 100u);
}

TEST(OracleTtlCacheTest, RejectsBadConstruction) {
  EXPECT_THROW(OracleTtlCache(100, nullptr), std::invalid_argument);
}

TEST(OracleTtlCacheTest, OracleDrivenReplayBeatsUniformShortTtl) {
  // Synthetic demand: a "diurnal" object re-requested every 2h for a long
  // time; a "short-lived" object requested densely then never again. A
  // uniform 1h TTL forces constant refetches of the diurnal object; the
  // oracle's 24h diurnal TTL does not.
  RevalidationOracle oracle;
  oracle.Classify(1, PatternType::kDiurnal);
  oracle.Classify(2, PatternType::kShortLived);

  const auto replay = [](Cache& cache) {
    constexpr std::int64_t kHour = 3600 * 1000;
    // Short-lived burst: every 5 min for 2 hours.
    for (int i = 0; i < 24; ++i) {
      cache.Access(2, 1000, i * 5 * 60 * 1000);
    }
    // Diurnal: every 2 hours all week.
    for (int i = 0; i < 84; ++i) {
      cache.Access(1, 1000, i * 2 * kHour);
    }
    return cache.stats().HitRatio();
  };

  OracleTtlCache oracle_cache(1 << 20, [&](std::uint64_t key) {
    return oracle.TtlFor(key);
  });
  TtlLruCache uniform_short(1 << 20, 3600 * 1000);
  const double oracle_ratio = replay(oracle_cache);
  const double uniform_ratio = replay(uniform_short);
  EXPECT_GT(oracle_ratio, uniform_ratio + 0.2);
}

TEST(OracleTtlCacheTest, CheckpointRoundTripPreservesExpiryAndRecency) {
  const auto ttl_fn = [](std::uint64_t key) {
    return key == 1 ? 100LL : 1000LL;
  };
  OracleTtlCache cache(200, ttl_fn);
  cache.Access(1, 50, 0);
  cache.Access(2, 50, 0);
  cache.Access(3, 50, 0);
  cache.Access(2, 50, 1);  // promote 2; LRU order is now 2, 3, 1
  cache.Access(1, 50, 150);  // expired -> counted + reinserted

  std::ostringstream buf;
  {
    ckpt::Writer w(buf);
    w.BeginSection("cache", 1);
    cache.SaveState(w);
    w.EndSection();
    w.Finish();
  }
  OracleTtlCache restored(200, ttl_fn);
  {
    std::istringstream in(buf.str());
    ckpt::Reader r(in);
    r.BeginSection("cache", 1);
    restored.RestoreState(r);
    r.EndSection();
  }
  EXPECT_EQ(restored.expired_lookups(), cache.expired_lookups());
  EXPECT_EQ(restored.used_bytes(), cache.used_bytes());
  EXPECT_EQ(restored.stats().hits, cache.stats().hits);
  EXPECT_EQ(restored.stats().misses, cache.stats().misses);
  // Entry 1 was reinserted at t=150 with a 100ms lifetime: fresh at 200,
  // stale at 300 — the latched expiry must survive the round trip.
  EXPECT_EQ(restored.Access(1, 50, 200), trace::CacheStatus::kHit);
  OracleTtlCache restored2(200, ttl_fn);
  {
    std::istringstream in(buf.str());
    ckpt::Reader r(in);
    r.BeginSection("cache", 1);
    restored2.RestoreState(r);
    r.EndSection();
  }
  EXPECT_EQ(restored2.Access(1, 50, 300), trace::CacheStatus::kMiss);
  // Under pressure both evict the same victim: the LRU tail (entry 3, since
  // 1 and 2 were both touched later).
  cache.Access(9, 150, 200);
  restored.Access(9, 150, 200);
  EXPECT_EQ(cache.Contains(3), restored.Contains(3));
  EXPECT_FALSE(restored.Contains(3));
}

}  // namespace
}  // namespace atlas::cdn
