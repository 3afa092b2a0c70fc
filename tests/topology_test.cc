#include "cdn/topology.h"

#include <gtest/gtest.h>

#include <map>

#include "cdn/scenario.h"
#include "synth/site_profile.h"
#include "trace/sink.h"

namespace atlas::cdn {
namespace {

TEST(TopologyTest, OneDcPerContinentByDefault) {
  EXPECT_EQ(DcCount(TopologyConfig{}), 4u);
}

TEST(TopologyTest, MultipleDcsPerContinent) {
  TopologyConfig config;
  config.dcs_per_continent = 3;
  EXPECT_EQ(DcCount(config), 12u);
}

TEST(TopologyTest, RoutesToOwnContinent) {
  TopologyConfig config;
  config.dcs_per_continent = 3;
  for (int c = 0; c < synth::kNumContinents; ++c) {
    const auto continent = static_cast<synth::Continent>(c);
    // DC order is continent-major.
    EXPECT_EQ(RouteIndex(config, continent, 12345) / 3,
              static_cast<std::size_t>(c));
  }
}

TEST(TopologyTest, RoutingIsStablePerUser) {
  TopologyConfig config;
  config.dcs_per_continent = 4;
  for (std::uint64_t user = 1; user < 50; ++user) {
    EXPECT_EQ(RouteIndex(config, synth::Continent::kEurope, user),
              RouteIndex(config, synth::Continent::kEurope, user));
  }
}

TEST(TopologyTest, ShardingSpreadsUsers) {
  TopologyConfig config;
  config.dcs_per_continent = 4;
  std::map<std::size_t, int> counts;
  for (std::uint64_t user = 0; user < 4000; ++user) {
    ++counts[RouteIndex(config, synth::Continent::kAsia,
                        user * 2654435761ULL)];
  }
  EXPECT_EQ(counts.size(), 4u);
  for (const auto& [dc, count] : counts) {
    EXPECT_LT(dc, DcCount(config));
    EXPECT_GT(count, 700);  // ~1000 expected per shard
  }
}

// The engine builds every edge cache from TopologyConfig.
TEST(TopologyTest, EdgePolicyApplied) {
  SimulatorConfig lru;
  lru.topology.edge_capacity_bytes = 4ULL << 20;
  SimulatorConfig gdsf = lru;
  gdsf.topology.edge_policy = PolicyKind::kGdsf;
  trace::CountingSink sink;
  const auto a = SimulateSite(synth::SiteProfile::P2(0.01), 0, lru, 1, sink);
  const auto b = SimulateSite(synth::SiteProfile::P2(0.01), 0, gdsf, 1, sink);
  EXPECT_EQ(a.edge_stats.accesses(), b.edge_stats.accesses());
  EXPECT_NE(a.edge_stats.hits, b.edge_stats.hits);
}

// Every edge miss is filled from a sibling DC or from the origin.
TEST(TopologyTest, OriginAccounting) {
  SimulatorConfig config;
  config.topology.edge_capacity_bytes = 16ULL << 20;
  config.topology.dcs_per_continent = 2;
  config.peer_fill = true;
  trace::CountingSink sink;
  const auto r =
      SimulateSite(synth::SiteProfile::P2(0.01), 0, config, 1, sink);
  EXPECT_GT(r.origin.fetches, 0u);
  EXPECT_GT(r.peer_fetches, 0u);
  EXPECT_EQ(r.origin.fetches + r.peer_fetches, r.edge_stats.misses);
}

// The site's edge stats are the sum of its DCs'.
TEST(TopologyTest, TotalEdgeStatsAggregates) {
  SimulatorConfig config;
  config.topology.edge_capacity_bytes = 16ULL << 20;
  config.topology.dcs_per_continent = 2;
  trace::CountingSink sink;
  const auto r =
      SimulateSite(synth::SiteProfile::P2(0.01), 0, config, 1, sink);
  ASSERT_EQ(r.per_dc_stats.size(), DcCount(config.topology));
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const auto& dc : r.per_dc_stats) {
    hits += dc.hits;
    misses += dc.misses;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(r.edge_stats.hits, hits);
  EXPECT_EQ(r.edge_stats.misses, misses);
}

TEST(TopologyTest, RejectsBadConfig) {
  SimulatorConfig config;
  config.topology.dcs_per_continent = 0;
  trace::CountingSink sink;
  EXPECT_THROW(
      SimulateSite(synth::SiteProfile::P2(0.01), 0, config, 1, sink),
      std::invalid_argument);
}

}  // namespace
}  // namespace atlas::cdn
