// Golden-digest harness for the SoA block analysis path.
//
// Every reader yields RecordBlocks (trace/block.h) and every accumulator
// folds them through AddBatch. FNV-1a digests of the rendered report (all
// ten per-site modules plus trend clustering) prove the path changes
// nothing observable:
//
//   1. the default-block run matches the golden digest — pinned when the
//      per-record path this replaced was still the reference — at 1/2/8
//      analysis threads;
//   2. that digest is invariant to block size — swept over {1, 7, 97, 1024,
//      4096, 8191, 8192}, sizes chosen so the sweep covers single-record
//      blocks, prime sizes that never divide the trace, and a ragged final
//      partial block.
//
// Labeled `batch-diff` so CI gates the equivalence proof explicitly.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/suite.h"
#include "cdn/scenario.h"
#include "scenario_fixtures.h"
#include "synth/site_profile.h"
#include "trace/block.h"
#include "util/hash.h"
#include "util/logging.h"

namespace atlas {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};
// Single-record blocks, primes that divide nothing, the defaults, and the
// default's prime neighbor. The golden trace is not a multiple of any of
// the sizes > 1, so every sweep point ends on a partial final block.
constexpr std::size_t kBlockSweep[] = {1, 7, 97, 1024, 4096, 8191, 8192};

// Pinned digest of the full rendered report for the analysis scenario
// below (the kill-resume suite's golden scenario: PaperAdultSites(0.01),
// seed 42, peer fill + push). If this moves, a generator or analysis
// change moved it; say which in the commit message.
constexpr std::uint64_t kGoldenReportDigest = 0x673b3ee6fc5b043ULL;

cdn::SimulatorConfig GoldenConfig() {
  cdn::SimulatorConfig config;
  config.topology.edge_capacity_bytes = 256ULL << 20;
  config.peer_fill = true;
  config.push.enabled = true;
  config.push.top_n = 100;
  return config;
}

analysis::SuiteConfig ReportConfig(int threads) {
  analysis::SuiteConfig config;
  config.trend.min_requests = 60;
  config.trend.max_objects = 40;
  config.threads = threads;
  return config;
}

const testutil::BufferedScenario& GoldenScenario() {
  static const testutil::BufferedScenario* scenario = [] {
    util::SetLogLevel(util::LogLevel::kWarn);
    return new testutil::BufferedScenario(testutil::RunPaperStudy(
        0.01, GoldenConfig(), 42, /*threads=*/2));
  }();
  return *scenario;
}

const trace::TraceBuffer& GoldenMerged() { return GoldenScenario().trace; }

std::uint64_t ReportDigest(analysis::AnalysisSuite& suite) {
  std::ostringstream out;
  suite.Render(out);
  return util::Fnv1a64(out.str());
}

std::uint64_t BlockReportDigest(int threads, std::size_t block_records) {
  trace::BufferBlockSource source(GoldenMerged(), block_records);
  analysis::AnalysisSuite suite(source, GoldenScenario().registry(),
                                ReportConfig(threads));
  return ReportDigest(suite);
}

TEST(BatchDiffReportTest, BlockPathMatchesPerRecordAtAnyThreadCount) {
  // kGoldenReportDigest is the per-record path's digest; the block path
  // that replaced it must keep matching it.
  for (const int threads : kThreadCounts) {
    EXPECT_EQ(BlockReportDigest(threads, trace::kDefaultBlockRecords),
              kGoldenReportDigest)
        << "threads=" << threads;
  }
}

TEST(BatchDiffReportTest, ReportInvariantToBlockSizeSweep) {
  // None of the swept sizes > 1 divides the golden trace, so every run
  // decodes a ragged final partial block; size 1 degenerates the batch
  // path to one-record blocks.
  for (const std::size_t block_records : kBlockSweep) {
    if (block_records > 1) {
      ASSERT_NE(GoldenMerged().size() % block_records, 0u)
          << "sweep size " << block_records
          << " divides the trace; partial-final-block coverage lost";
    }
    EXPECT_EQ(BlockReportDigest(/*threads=*/2, block_records),
              kGoldenReportDigest)
        << "block_records=" << block_records;
  }
}

}  // namespace
}  // namespace atlas
