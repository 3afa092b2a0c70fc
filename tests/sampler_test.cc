#include "stats/sampler.h"

#include <gtest/gtest.h>

#include <cmath>

#include <cmath>
#include <map>
#include <numeric>

namespace atlas::stats {
namespace {

TEST(ZipfSamplerTest, RanksInRange) {
  util::Rng rng(1);
  ZipfSampler zipf(100, 0.9);
  for (int i = 0; i < 10000; ++i) {
    const auto k = zipf.Sample(rng);
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, 100u);
  }
}

TEST(ZipfSamplerTest, PmfSumsToOne) {
  ZipfSampler zipf(50, 1.2);
  double total = 0.0;
  for (std::uint64_t k = 1; k <= 50; ++k) total += zipf.Pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(zipf.Pmf(0), 0.0);
  EXPECT_DOUBLE_EQ(zipf.Pmf(51), 0.0);
}

// Empirical frequencies must match the analytic PMF — the key guarantee of
// rejection-inversion, checked across exponents including s = 1 (the
// logarithmic special case) and s = 0 (uniform).
class ZipfFidelityTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfFidelityTest, EmpiricalMatchesPmf) {
  const double s = GetParam();
  const std::uint64_t n = 20;
  util::Rng rng(99);
  ZipfSampler zipf(n, s);
  std::map<std::uint64_t, int> counts;
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++counts[zipf.Sample(rng)];
  for (std::uint64_t k = 1; k <= n; ++k) {
    const double expected = zipf.Pmf(k);
    const double observed = static_cast<double>(counts[k]) / draws;
    EXPECT_NEAR(observed, expected, 0.01) << "s=" << s << " rank=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfFidelityTest,
                         ::testing::Values(0.0, 0.5, 0.9, 1.0, 1.5, 2.5));

TEST(ZipfSamplerTest, SingletonAlwaysOne) {
  util::Rng rng(1);
  ZipfSampler zipf(1, 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(rng), 1u);
}

TEST(ZipfSamplerTest, RejectsBadArgs) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -0.5), std::invalid_argument);
}

TEST(AliasTableTest, MatchesWeights) {
  util::Rng rng(7);
  const std::vector<double> w = {1.0, 2.0, 3.0, 4.0};
  AliasTable alias(w);
  std::vector<int> counts(4, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++counts[alias.Sample(rng)];
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / draws, w[i] / 10.0, 0.01);
  }
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  util::Rng rng(7);
  AliasTable alias({1.0, 0.0, 1.0});
  for (int i = 0; i < 10000; ++i) EXPECT_NE(alias.Sample(rng), 1u);
}

TEST(AliasTableTest, SingleEntry) {
  util::Rng rng(7);
  AliasTable alias({5.0});
  for (int i = 0; i < 100; ++i) EXPECT_EQ(alias.Sample(rng), 0u);
}

TEST(AliasTableTest, HighlySkewed) {
  util::Rng rng(7);
  AliasTable alias({1e6, 1.0});
  int rare = 0;
  for (int i = 0; i < 100000; ++i) rare += alias.Sample(rng) == 1 ? 1 : 0;
  EXPECT_LT(rare, 50);
}

TEST(AliasTableTest, RejectsBadInput) {
  EXPECT_THROW(AliasTable({}), std::invalid_argument);
  EXPECT_THROW(AliasTable({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(AliasTable({1.0, -1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace atlas::stats
