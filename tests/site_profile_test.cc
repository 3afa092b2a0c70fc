#include "synth/site_profile.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>
#include <string>

#include "util/rng.h"

namespace atlas::synth {
namespace {

TEST(SizeModelTest, LogNormalMedianRoughlyRight) {
  util::Rng rng(1);
  const auto model = SizeModel::LogNormal(1e6, 0.5, 1e3, 1e9);
  std::vector<double> v;
  for (int i = 0; i < 20001; ++i) {
    v.push_back(static_cast<double>(model.Sample(rng)));
  }
  std::nth_element(v.begin(), v.begin() + 10000, v.end());
  EXPECT_NEAR(v[10000] / 1e6, 1.0, 0.05);
}

TEST(SizeModelTest, ClampsToBounds) {
  util::Rng rng(2);
  const auto model = SizeModel::LogNormal(1e6, 3.0, 1e4, 1e7);
  for (int i = 0; i < 5000; ++i) {
    const auto s = model.Sample(rng);
    EXPECT_GE(s, 10000u);
    EXPECT_LE(s, 10000000u);
  }
}

TEST(SizeModelTest, BimodalHitsBothModes) {
  util::Rng rng(3);
  const auto model =
      SizeModel::Bimodal(1e4, 0.3, 1e6, 0.3, 0.5, 1e2, 1e8);
  int small = 0, large = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto s = model.Sample(rng);
    if (s < 1e5) ++small;
    else ++large;
  }
  EXPECT_NEAR(small / 10000.0, 0.5, 0.05);
  EXPECT_NEAR(large / 10000.0, 0.5, 0.05);
}

TEST(PatternMixTest, ValidateRejectsBadMixes) {
  PatternMix mix;
  mix.fractions = {0.5, 0.5, 0.0, 0.0, 0.0};
  EXPECT_NO_THROW(mix.Validate());
  mix.fractions = {0.5, 0.4, 0.0, 0.0, 0.0};
  EXPECT_THROW(mix.Validate(), std::invalid_argument);
  mix.fractions = {1.5, -0.5, 0.0, 0.0, 0.0};
  EXPECT_THROW(mix.Validate(), std::invalid_argument);
}

TEST(PatternMixTest, SampleRespectsMix) {
  util::Rng rng(5);
  PatternMix mix;
  mix.fractions = {0.7, 0.0, 0.3, 0.0, 0.0};
  int diurnal = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto p = mix.Sample(rng);
    EXPECT_TRUE(p == PatternType::kDiurnal || p == PatternType::kShortLived);
    diurnal += p == PatternType::kDiurnal ? 1 : 0;
  }
  EXPECT_NEAR(diurnal / 10000.0, 0.7, 0.03);
}

struct PaperSite {
  const char* name;
  SiteProfile (*make)(double);
};

// Print the site by name: the default printer shows the factory's address,
// which changes from run to run and would leak into the test's name.
void PrintTo(const PaperSite& site, std::ostream* os) { *os << site.name; }

class PaperProfileTest : public ::testing::TestWithParam<PaperSite> {};

TEST_P(PaperProfileTest, ValidatesAtAnyScale) {
  for (double scale : {1.0, 0.1, 0.01, 0.001}) {
    const SiteProfile p = GetParam().make(scale);
    EXPECT_NO_THROW(p.Validate()) << p.name << " scale " << scale;
    EXPECT_GE(p.num_objects, 50u);
    EXPECT_GE(p.num_users, 20u);
    EXPECT_GE(p.total_requests, 500u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, PaperProfileTest,
    ::testing::Values(PaperSite{"V1", &SiteProfile::V1},
                      PaperSite{"V2", &SiteProfile::V2},
                      PaperSite{"P1", &SiteProfile::P1},
                      PaperSite{"P2", &SiteProfile::P2},
                      PaperSite{"S1", &SiteProfile::S1},
                      PaperSite{"N1", &SiteProfile::NonAdult}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(SiteProfileTest, PaperCatalogSizes) {
  // Fig. 1's catalog sizes at scale 1.
  EXPECT_EQ(SiteProfile::V1().num_objects, 6600u);
  EXPECT_EQ(SiteProfile::V2().num_objects, 55600u);
  EXPECT_EQ(SiteProfile::P1().num_objects, 16300u);
  EXPECT_EQ(SiteProfile::P2().num_objects, 29600u);
  EXPECT_EQ(SiteProfile::S1().num_objects, 22900u);
}

TEST(SiteProfileTest, V1IsVideoHeavy) {
  const auto p = SiteProfile::V1();
  EXPECT_NEAR(p.object_class_mix[0], 0.98, 1e-9);
  EXPECT_EQ(p.kind, trace::SiteKind::kAdultVideo);
}

TEST(SiteProfileTest, S1IsMobileHeavy) {
  // Fig. 4: >1/3 of S-1 users are non-desktop.
  const auto p = SiteProfile::S1();
  EXPECT_GT(1.0 - p.device_mix[0], 1.0 / 3.0);
}

TEST(SiteProfileTest, V2IsDesktopDominated) {
  EXPECT_GT(SiteProfile::V2().device_mix[0], 0.95);
}

TEST(SiteProfileTest, V1PeaksLateNight) {
  // Fig. 3: V-1 peaks in late-night/early-morning hours.
  const auto p = SiteProfile::V1();
  EXPECT_GE(p.peak_local_hour, 0.0);
  EXPECT_LE(p.peak_local_hour, 6.0);
  // The non-adult control peaks in the classic evening band.
  const auto n = SiteProfile::NonAdult();
  EXPECT_GE(n.peak_local_hour, 19.0);
  EXPECT_LE(n.peak_local_hour, 23.0);
}

TEST(SiteProfileTest, VideoSitesMoreAddictive) {
  EXPECT_GT(SiteProfile::V1().repeat_request_prob,
            SiteProfile::P1().repeat_request_prob);
  EXPECT_GT(SiteProfile::V2().repeat_request_prob,
            SiteProfile::P2().repeat_request_prob);
}

TEST(SiteProfileTest, ScaleOutOfRangeThrows) {
  EXPECT_THROW(SiteProfile::V1(0.0), std::invalid_argument);
  EXPECT_THROW(SiteProfile::V1(-1.0), std::invalid_argument);
  EXPECT_THROW(SiteProfile::V1(kMaxProfileScale * 2), std::invalid_argument);
  EXPECT_THROW(SiteProfile::V1(std::nan("")), std::invalid_argument);
  EXPECT_THROW(SiteProfile::V1(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(SiteProfileTest, ScaleAboveOneExtrapolates) {
  // Scale > 1 is the paper-scale regime: populations keep growing linearly
  // instead of truncating or silently overflowing.
  const auto base = SiteProfile::V1(1.0);
  const auto big = SiteProfile::V1(5.0);
  EXPECT_NO_THROW(big.Validate());
  EXPECT_NEAR(static_cast<double>(big.num_objects),
              5.0 * static_cast<double>(base.num_objects),
              static_cast<double>(base.num_objects) * 0.01 + 1.0);
  EXPECT_NEAR(static_cast<double>(big.num_users),
              5.0 * static_cast<double>(base.num_users),
              static_cast<double>(base.num_users) * 0.01 + 1.0);
  EXPECT_NEAR(static_cast<double>(big.total_requests),
              5.0 * static_cast<double>(base.total_requests),
              static_cast<double>(base.total_requests) * 0.01 + 1.0);
  EXPECT_EQ(SiteProfile::V1(kMaxProfileScale).num_objects,
            static_cast<std::uint32_t>(kMaxProfileScale) * base.num_objects);
}

TEST(SiteProfileTest, PaperAdultSitesOrder) {
  const auto sites = SiteProfile::PaperAdultSites(0.1);
  ASSERT_EQ(sites.size(), 5u);
  EXPECT_EQ(sites[0].name, "V-1");
  EXPECT_EQ(sites[1].name, "V-2");
  EXPECT_EQ(sites[2].name, "P-1");
  EXPECT_EQ(sites[3].name, "P-2");
  EXPECT_EQ(sites[4].name, "S-1");
}

TEST(SiteProfileTest, ValidateCatchesBrokenProfiles) {
  SiteProfile p = SiteProfile::V1(0.01);
  p.object_class_mix = {0.5, 0.2, 0.2};  // sums to 0.9
  EXPECT_THROW(p.Validate(), std::invalid_argument);

  p = SiteProfile::V1(0.01);
  p.device_mix = {2.0, 0.0, 0.0, 0.0};
  EXPECT_THROW(p.Validate(), std::invalid_argument);

  p = SiteProfile::V1(0.01);
  p.diurnal_amplitude = 1.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);

  p = SiteProfile::V1(0.01);
  p.mean_requests_per_session = 0.5;
  EXPECT_THROW(p.Validate(), std::invalid_argument);

  p = SiteProfile::V1(0.01);
  p.watch_fraction_mean = 0.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
}

}  // namespace
}  // namespace atlas::synth
