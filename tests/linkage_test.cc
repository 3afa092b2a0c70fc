#include "cluster/linkage.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace atlas::cluster {
namespace {

// Three well-separated 1-D groups, encoded as a distance matrix.
DistanceMatrix ThreeGroups() {
  // Points: {0.0, 0.1, 0.2} {10.0, 10.1} {50.0}.
  const std::vector<double> pts = {0.0, 0.1, 0.2, 10.0, 10.1, 50.0};
  DistanceMatrix m(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      m.Set(i, j, std::abs(pts[i] - pts[j]));
    }
  }
  return m;
}

class LinkageParamTest : public ::testing::TestWithParam<Linkage> {};

TEST_P(LinkageParamTest, MergeCountIsLeavesMinusOne) {
  const auto dendro = AgglomerativeCluster(ThreeGroups(), GetParam());
  EXPECT_EQ(dendro.CutAtK(1).size(), 6u);  // one label per leaf
  EXPECT_EQ(dendro.merges().size(), 5u);
}

TEST_P(LinkageParamTest, HeightsNondecreasing) {
  const auto dendro = AgglomerativeCluster(ThreeGroups(), GetParam());
  for (std::size_t i = 1; i < dendro.merges().size(); ++i) {
    EXPECT_GE(dendro.merges()[i].height, dendro.merges()[i - 1].height);
  }
}

TEST_P(LinkageParamTest, RecoversThreeGroupsAtK3) {
  const auto dendro = AgglomerativeCluster(ThreeGroups(), GetParam());
  const auto labels = dendro.CutAtK(3);
  // Group members share labels; cross-group labels differ.
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_NE(labels[0], labels[5]);
  EXPECT_NE(labels[3], labels[5]);
  // Labels ordered by size: the triple is label 0, the pair label 1.
  EXPECT_EQ(labels[0], 0u);
  EXPECT_EQ(labels[3], 1u);
  EXPECT_EQ(labels[5], 2u);
}

std::string LinkageName(const ::testing::TestParamInfo<Linkage>& info) {
  constexpr const char* kNames[] = {"single", "complete", "average"};
  return kNames[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(AllLinkages, LinkageParamTest,
                         ::testing::Values(Linkage::kSingle, Linkage::kComplete,
                                           Linkage::kAverage),
                         LinkageName);

TEST(DendrogramTest, CutAtKExtremes) {
  const auto dendro = AgglomerativeCluster(ThreeGroups());
  const auto all_one = dendro.CutAtK(1);
  for (const auto l : all_one) EXPECT_EQ(l, 0u);
  const auto singletons = dendro.CutAtK(6);
  std::set<std::size_t> distinct(singletons.begin(), singletons.end());
  EXPECT_EQ(distinct.size(), 6u);
  EXPECT_THROW(dendro.CutAtK(0), std::invalid_argument);
  EXPECT_THROW(dendro.CutAtK(7), std::invalid_argument);
}

TEST(DendrogramTest, ClusterSizes) {
  const auto sizes = Dendrogram::ClusterSizes({0, 1, 0, 2, 0});
  EXPECT_EQ(sizes, (std::vector<std::size_t>{3, 1, 1}));
}

TEST(DendrogramTest, InvalidConstructionThrows) {
  EXPECT_THROW(Dendrogram(0, {}), std::invalid_argument);
  EXPECT_THROW(Dendrogram(3, {}), std::invalid_argument);
}

TEST(SilhouetteTest, WellSeparatedScoresHigh) {
  const auto dendro = AgglomerativeCluster(ThreeGroups());
  const auto labels = dendro.CutAtK(3);
  EXPECT_GT(SilhouetteScore(ThreeGroups(), labels), 0.8);
}

TEST(SilhouetteTest, RandomLabelsScoreLow) {
  const auto good = AgglomerativeCluster(ThreeGroups()).CutAtK(3);
  const std::vector<std::size_t> bad = {0, 1, 2, 0, 1, 2};
  EXPECT_GT(SilhouetteScore(ThreeGroups(), good),
            SilhouetteScore(ThreeGroups(), bad));
}

TEST(SilhouetteTest, SingleClusterIsZero) {
  const std::vector<std::size_t> one(6, 0);
  EXPECT_DOUBLE_EQ(SilhouetteScore(ThreeGroups(), one), 0.0);
}

TEST(SilhouetteTest, MismatchedLabelsThrow) {
  EXPECT_THROW(SilhouetteScore(ThreeGroups(), {0, 1}), std::invalid_argument);
}

TEST(AgglomerativeClusterTest, LargerRandomInputStaysConsistent) {
  util::Rng rng(3);
  const std::size_t n = 60;
  std::vector<double> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(rng.NextGaussian(i < 30 ? 0.0 : 100.0, 1.0));
  }
  DistanceMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      m.Set(i, j, std::abs(pts[i] - pts[j]));
    }
  }
  const auto labels = AgglomerativeCluster(m, Linkage::kAverage).CutAtK(2);
  for (std::size_t i = 1; i < 30; ++i) EXPECT_EQ(labels[i], labels[0]);
  for (std::size_t i = 31; i < n; ++i) EXPECT_EQ(labels[i], labels[30]);
  EXPECT_NE(labels[0], labels[30]);
}

}  // namespace
}  // namespace atlas::cluster
