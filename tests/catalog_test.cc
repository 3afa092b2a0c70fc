#include "synth/catalog.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>

#include "trace/content_class.h"

namespace atlas::synth {
namespace {

Catalog MakeCatalog(const SiteProfile& profile, std::uint64_t seed = 1) {
  util::Rng rng(seed);
  return Catalog(profile, rng);
}

TEST(CatalogTest, SizeMatchesProfile) {
  const auto profile = SiteProfile::V2(0.02);
  const auto catalog = MakeCatalog(profile);
  EXPECT_EQ(catalog.size(), profile.num_objects);
}

TEST(CatalogTest, UrlHashesUnique) {
  const auto catalog = MakeCatalog(SiteProfile::P1(0.05));
  std::set<std::uint64_t> hashes;
  catalog.ForEachObject(
      [&](std::size_t, const ObjectMeta& obj) { hashes.insert(obj.url_hash); });
  EXPECT_EQ(hashes.size(), catalog.size());
}

TEST(CatalogTest, ClassMixMatchesProfile) {
  const auto profile = SiteProfile::V2(0.1);  // 5560 objects
  const auto catalog = MakeCatalog(profile);
  std::array<std::size_t, trace::kNumContentClasses> counts{};
  catalog.ForEachObject([&](std::size_t, const ObjectMeta& obj) {
    ++counts[static_cast<std::size_t>(obj.content_class)];
  });
  const double n = static_cast<double>(catalog.size());
  EXPECT_NEAR(counts[0] / n, 0.15, 0.02);  // video
  EXPECT_NEAR(counts[1] / n, 0.84, 0.02);  // image
}

TEST(CatalogTest, FileTypesAgreeWithClasses) {
  const auto catalog = MakeCatalog(SiteProfile::V1(0.05));
  catalog.ForEachObject([](std::size_t, const ObjectMeta& obj) {
    EXPECT_EQ(trace::ClassOf(obj.file_type), obj.content_class);
  });
}

TEST(CatalogTest, PatternMixRoughlyMatches) {
  SiteProfile profile = SiteProfile::V2(0.1);
  const auto catalog = MakeCatalog(profile);
  // Count video-object patterns; compare against the profile's video mix.
  std::array<double, kNumPatternTypes> counts{};
  double video_total = 0;
  catalog.ForEachObject([&](std::size_t, const ObjectMeta& obj) {
    if (obj.content_class == trace::ContentClass::kVideo) {
      ++counts[static_cast<std::size_t>(obj.pattern.type)];
      ++video_total;
    }
  });
  ASSERT_GT(video_total, 100);
  for (int t = 0; t < kNumPatternTypes; ++t) {
    EXPECT_NEAR(counts[static_cast<std::size_t>(t)] / video_total,
                profile.video_patterns.fractions[static_cast<std::size_t>(t)],
                0.05)
        << ToString(static_cast<PatternType>(t));
  }
}

TEST(CatalogTest, InjectionSplitMatchesPreexistingFraction) {
  SiteProfile profile = SiteProfile::P2(0.1);
  profile.preexisting_fraction = 0.5;
  const auto catalog = MakeCatalog(profile);
  double preexisting = 0;
  catalog.ForEachObject([&](std::size_t, const ObjectMeta& obj) {
    if (obj.injected_at_ms <= 0) ++preexisting;
    EXPECT_LT(obj.injected_at_ms, util::kMillisPerWeek);
    EXPECT_GE(obj.injected_at_ms, -3 * util::kMillisPerDay);
  });
  EXPECT_NEAR(preexisting / static_cast<double>(catalog.size()), 0.5, 0.05);
}

TEST(CatalogTest, SizesWithinModelBounds) {
  const auto profile = SiteProfile::V1(0.05);
  const auto catalog = MakeCatalog(profile);
  catalog.ForEachObject([](std::size_t, const ObjectMeta& obj) {
    EXPECT_GT(obj.size_bytes, 0u);
    if (obj.content_class == trace::ContentClass::kImage) {
      EXPECT_LE(obj.size_bytes, 2e6);  // image model caps at 1.5 MB
    }
  });
}

TEST(CatalogTest, DiurnalVideosSmallerThanLongLived) {
  // Paper §IV-B: diurnal videos are smaller; long-lived are the largest.
  const auto catalog = MakeCatalog(SiteProfile::V1(0.3), 9);
  double diurnal_sum = 0, diurnal_n = 0, long_sum = 0, long_n = 0;
  catalog.ForEachObject([&](std::size_t, const ObjectMeta& obj) {
    if (obj.content_class != trace::ContentClass::kVideo) return;
    if (obj.pattern.type == PatternType::kDiurnal) {
      diurnal_sum += static_cast<double>(obj.size_bytes);
      ++diurnal_n;
    } else if (obj.pattern.type == PatternType::kLongLived) {
      long_sum += static_cast<double>(obj.size_bytes);
      ++long_n;
    }
  });
  ASSERT_GT(diurnal_n, 50);
  ASSERT_GT(long_n, 50);
  EXPECT_GT(long_sum / long_n, diurnal_sum / diurnal_n);
}

TEST(CatalogTest, SampleObjectRespectsInjectionTime) {
  // At hour 0, only objects already injected can be drawn.
  SiteProfile profile = SiteProfile::P2(0.02);
  profile.preexisting_fraction = 0.3;
  util::Rng rng(11);
  Catalog catalog(profile, rng);
  for (int i = 0; i < 2000; ++i) {
    const auto idx = catalog.SampleObject(util::kMillisPerMinute, rng);
    EXPECT_LE(catalog.object(idx).injected_at_ms, util::kMillisPerMinute);
  }
}

TEST(CatalogTest, SampleObjectFavorsPopularObjects) {
  const auto profile = SiteProfile::V1(0.02);
  util::Rng rng(13);
  Catalog catalog(profile, rng);
  std::map<std::size_t, int> counts;
  const std::int64_t t = 3 * util::kMillisPerDay;
  for (int i = 0; i < 30000; ++i) ++counts[catalog.SampleObject(t, rng)];
  // The most-sampled object should own a clearly super-uniform share.
  int max_count = 0;
  for (const auto& [idx, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 30000 / static_cast<int>(catalog.size()) * 5);
}

TEST(CatalogTest, DeterministicUnderSeed) {
  const auto profile = SiteProfile::V2(0.01);
  util::Rng rng1(7), rng2(7);
  Catalog a(profile, rng1), b(profile, rng2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.object(i).url_hash, b.object(i).url_hash);
    EXPECT_EQ(a.object(i).size_bytes, b.object(i).size_bytes);
    EXPECT_EQ(a.object(i).pattern.type, b.object(i).pattern.type);
  }
}

}  // namespace
}  // namespace atlas::synth
