// Scale-hardening tests (ctest -L scale).
//
// The memory-bounded synth tables (synth::ShardStore) must be invisible in
// the output: a run whose tables are forced into lazy RNG-snapshot shards
// has to reproduce the resident run byte-for-byte, at every thread count.
// Both sides are pinned to a golden digest captured before the lazy-shard
// refactor, so neither mode can drift. The remaining tests enforce the
// memory-budget contract itself: cache accounting, bounded RSS while
// streaming a table that exceeds its budget, and the guarantee that the
// paper-scale profiles (scale 1.0–5.0) stay resident under the default
// budget — the regime the BENCH_scale.json sweep measures.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <utility>

#include "cdn/engine.h"
#include "cdn/scenario.h"
#include "synth/catalog.h"
#include "synth/site_profile.h"
#include "synth/user_model.h"
#include "synth/workload.h"
#include "trace/sink.h"
#include "trace/stream.h"
#include "trace/trace_io.h"
#include "util/hash.h"
#include "util/mem.h"
#include "util/rng.h"

namespace atlas {
namespace {

// Golden scale-0.05 scenario digest, captured from the tree *before* the
// ShardStore refactor (resident tables only). 251519 records across the
// five paper sites; invariant across thread counts.
constexpr std::uint64_t kScale005Digest = 0x29813041e2fc5820ULL;
constexpr std::uint64_t kScale005Records = 251519;

cdn::SimulatorConfig GoldenConfig() {
  cdn::SimulatorConfig config;
  config.topology.edge_capacity_bytes = 256ULL << 20;
  config.peer_fill = true;
  config.push.enabled = true;
  config.push.top_n = 100;
  return config;
}

// Runs the five-site scale-0.05 scenario with the given synth-table budget
// and returns {records, digest of the serialized trace}.
std::pair<std::uint64_t, std::uint64_t> RunScenario(std::uint64_t budget_bytes,
                                                    int threads) {
  auto sites = synth::SiteProfile::PaperAdultSites(0.05);
  for (auto& site : sites) site.synth_table_budget_bytes = budget_bytes;
  std::ostringstream out;
  trace::TraceWriter writer(out);
  trace::WriterSink sink(writer);
  cdn::StreamScenario(sites, GoldenConfig(), 42, sink, threads);
  writer.Finish();
  return {writer.written(), util::Fnv1a64(out.str())};
}

TEST(ScaleDigestTest, ResidentRunMatchesPinnedGolden) {
  for (int threads : {1, 2, 8}) {
    const auto [records, digest] = RunScenario(256ULL << 20, threads);
    EXPECT_EQ(records, kScale005Records) << "threads=" << threads;
    EXPECT_EQ(digest, kScale005Digest) << "threads=" << threads;
  }
}

TEST(ScaleDigestTest, LazyShardRunMatchesPinnedGolden) {
  // 64 KB forces every site's catalog and user table into lazy shards; the
  // trace must still be byte-identical to the resident golden.
  for (int threads : {1, 2, 8}) {
    const auto [records, digest] = RunScenario(1u << 16, threads);
    EXPECT_EQ(records, kScale005Records) << "threads=" << threads;
    EXPECT_EQ(digest, kScale005Digest) << "threads=" << threads;
  }
}

TEST(ScaleStoreTest, LazyCatalogEqualsResidentFieldByField) {
  const auto profile = synth::SiteProfile::V2(0.1);
  auto lazy_profile = profile;
  lazy_profile.synth_table_budget_bytes = 1u << 16;

  util::Rng rng_a(7), rng_b(7);
  const synth::Catalog resident(profile, rng_a);
  const synth::Catalog lazy(lazy_profile, rng_b);
  ASSERT_FALSE(resident.lazy());
  ASSERT_TRUE(lazy.lazy());
  ASSERT_EQ(resident.size(), lazy.size());

  // Both RNG streams must be in the same place after construction.
  EXPECT_EQ(rng_a.Next(), rng_b.Next());

  for (std::size_t i = 0; i < resident.size(); ++i) {
    const synth::ObjectMeta a = resident.object(i);
    const synth::ObjectMeta b = lazy.object(i);
    ASSERT_EQ(a.url_hash, b.url_hash) << i;
    ASSERT_EQ(a.content_class, b.content_class) << i;
    ASSERT_EQ(a.file_type, b.file_type) << i;
    ASSERT_EQ(a.size_bytes, b.size_bytes) << i;
    ASSERT_EQ(a.popularity_weight, b.popularity_weight) << i;
    ASSERT_EQ(a.injected_at_ms, b.injected_at_ms) << i;
    ASSERT_EQ(a.pattern.type, b.pattern.type) << i;
  }
}

TEST(ScaleStoreTest, LazyUserTableEqualsResidentFieldByField) {
  const auto profile = synth::SiteProfile::P1(0.1);
  auto lazy_profile = profile;
  lazy_profile.synth_table_budget_bytes = 1u << 16;

  util::Rng rng_a(11), rng_b(11);
  const synth::UserPopulation resident(profile, rng_a);
  const synth::UserPopulation lazy(lazy_profile, rng_b);
  ASSERT_FALSE(resident.lazy());
  ASSERT_TRUE(lazy.lazy());
  ASSERT_EQ(resident.size(), lazy.size());
  EXPECT_EQ(rng_a.Next(), rng_b.Next());

  for (std::size_t i = 0; i < resident.size(); ++i) {
    const synth::UserInfo a = resident.user(i);
    const synth::UserInfo b = lazy.user(i);
    ASSERT_EQ(a.user_id, b.user_id) << i;
    ASSERT_EQ(a.device, b.device) << i;
    ASSERT_EQ(a.user_agent_id, b.user_agent_id) << i;
    ASSERT_EQ(a.continent, b.continent) << i;
    ASSERT_EQ(a.tz_offset_quarter_hours, b.tz_offset_quarter_hours) << i;
    ASSERT_EQ(a.activity, b.activity) << i;
    ASSERT_EQ(a.incognito, b.incognito) << i;
  }
}

TEST(ScaleStoreTest, LazyCacheStaysWithinItsShardBudget) {
  auto profile = synth::SiteProfile::V2(0.1);
  profile.synth_table_budget_bytes = 1u << 20;  // 512 KB per table
  util::Rng rng(3);
  const synth::Catalog catalog(profile, rng);
  ASSERT_TRUE(catalog.lazy());
  const auto& store = catalog.store();

  // Hammer random indices, then check the cache never exceeded its cap.
  util::Rng access(17);
  for (int i = 0; i < 5000; ++i) {
    (void)catalog.object(access.NextBounded(catalog.size()));
    ASSERT_LE(store.cached_shards(), store.max_cached_shards());
  }
  EXPECT_GT(store.materializations(), 0u);
  // The cap itself honors the budget: cached bytes <= budget plus at most
  // one shard of slack (the floor of two shards).
  const std::uint64_t shard_bytes =
      store.shard_items() * sizeof(synth::ObjectMeta);
  EXPECT_LE(store.max_cached_shards() * shard_bytes,
            profile.synth_table_budget_bytes / 2 + 2 * shard_bytes);
}

TEST(ScaleStoreTest, StreamingALazyTableBoundsRss) {
  // A user table 20x its budget must stream (construct + ForEach) without
  // ever holding the full table: the RSS growth stays far below the
  // resident footprint. Skipped where RSS metering is unavailable.
  if (util::CurrentRssBytes() == 0) GTEST_SKIP() << "no RSS source";

  auto profile = synth::SiteProfile::V1(8.0);
  profile.synth_table_budget_bytes = 4u << 20;  // 2 MB per table
  const std::uint64_t resident_bytes =
      static_cast<std::uint64_t>(profile.num_users) * sizeof(synth::UserInfo);
  ASSERT_GT(resident_bytes, 20 * (profile.synth_table_budget_bytes / 2));

  const std::uint64_t rss_before = util::CurrentRssBytes();
  util::Rng rng(5);
  const synth::UserPopulation users(profile, rng);
  ASSERT_TRUE(users.lazy());
  std::uint64_t seen = 0;
  users.ForEachUser([&](std::size_t, const synth::UserInfo&) { ++seen; });
  EXPECT_EQ(seen, users.size());
  const std::uint64_t rss_after = util::CurrentRssBytes();

  // Budget math (documented in DESIGN.md): what stays resident is the
  // activity alias table (~16 B/user) plus its 8 B/user build buffer and
  // shard snapshots — not the 32 B UserInfo records themselves. The growth
  // must stay within that resident-regardless budget plus allocator slack,
  // which is well below the table + alias footprint a resident build pays
  // (~90 MB here).
  const std::uint64_t grown = rss_after > rss_before ? rss_after - rss_before : 0;
  EXPECT_LT(grown, 24u * users.size() + (32u << 20))
      << "lazy user table RSS exceeds alias-table + slack budget";
  EXPECT_LT(grown, resident_bytes + 24u * users.size())
      << "lazy streaming paid the full resident footprint";
}

TEST(ScalePaperRangeTest, DefaultBudgetKeepsPaperScalesResident) {
  // The documented workflow (README): scale 1.0–5.0 runs fit the default
  // 256 MB synth-table budget with everything resident — lazy shards are
  // the backstop for larger populations or explicitly tightened budgets.
  for (double scale : {1.0, 5.0}) {
    for (const auto& profile : synth::SiteProfile::PaperAdultSites(scale)) {
      EXPECT_LE(static_cast<std::uint64_t>(profile.num_objects) *
                    sizeof(synth::ObjectMeta),
                profile.synth_table_budget_bytes / 2)
          << profile.name << " scale " << scale;
      EXPECT_LE(static_cast<std::uint64_t>(profile.num_users) *
                    sizeof(synth::UserInfo),
                profile.synth_table_budget_bytes / 2)
          << profile.name << " scale " << scale;
    }
  }
  synth::WorkloadGenerator gen(synth::SiteProfile::V1(1.0), 1);
  EXPECT_FALSE(gen.catalog().lazy());
  EXPECT_FALSE(gen.users().lazy());
}

TEST(ScalePaperRangeTest, ScaleOneSiteSimulatesWithBoundedRss) {
  // One paper site at full scale 1.0, simulated end to end. The synth
  // tables stay inside their budget; total RSS growth is dominated by the
  // event buffers and must stay within the documented envelope.
  const std::uint64_t rss_before = util::CurrentRssBytes();
  auto profile = synth::SiteProfile::P2(1.0);
  std::ostringstream out;
  trace::TraceWriter writer(out);
  trace::WriterSink sink(writer);
  cdn::StreamScenario({profile}, GoldenConfig(), 42, sink, 1);
  writer.Finish();
  EXPECT_GT(writer.written(), 0u);
  if (rss_before > 0) {
    const std::uint64_t rss_after = util::CurrentRssBytes();
    const std::uint64_t grown =
        rss_after > rss_before ? rss_after - rss_before : 0;
    EXPECT_LT(grown, 2ull << 30) << "scale-1.0 site exceeded the 2 GB envelope";
  }
}

}  // namespace
}  // namespace atlas
