// StreamingAnalysis on its analysis pool: each block's (site, accumulator)
// pairs run as tasks, so these tests pin what must not depend on the
// scheduling — which failure a bad block raises, that a serial config
// stays on the calling thread, and that an analysis fed from inside a
// parallel region runs inline. Labeled `sanitize` so the TSan job runs them.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/suite.h"
#include "analysis_fixtures.h"
#include "trace/block.h"
#include "util/logging.h"
#include "util/par.h"
#include "util/rng.h"

namespace atlas::analysis {
namespace {

using testing::MakeRecord;

trace::PublisherRegistry TwoSites() {
  trace::PublisherRegistry registry;
  registry.Register("A", trace::SiteKind::kAdultVideo);
  registry.Register("B", trace::SiteKind::kAdultImage);
  return registry;
}

SuiteConfig Config(int threads) {
  SuiteConfig config;
  config.run_trend_clusters = false;
  config.threads = threads;
  return config;
}

// Block `index` of a synthetic two-site stream: `rows` records, one
// second apart and continuing the previous block's clock, over 20k users
// and 5k objects per site.
trace::RecordBlock SyntheticBlock(std::size_t index, std::size_t rows) {
  util::Rng rng(1000 + index);
  trace::RecordBlock block;
  block.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto t = static_cast<std::int64_t>(index * rows + i) * 1000;
    const bool video = rng.NextBool(0.3);
    const std::uint64_t size = video ? 4000000 : 30000;
    block.PushBack(MakeRecord(
        {.t = t,
         .url = rng.NextBounded(5000),
         .user = rng.NextBounded(20000),
         .type = video ? trace::FileType::kMp4 : trace::FileType::kJpg,
         .size = size,
         .bytes = video ? size / 4 : size,
         .cache = rng.NextBool(0.6) ? trace::CacheStatus::kHit
                                    : trace::CacheStatus::kMiss,
         .pub = static_cast<std::uint32_t>(rng.NextBounded(2))}));
  }
  return block;
}

double CpuSeconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

std::string Report(StreamingAnalysis& stream) {
  AnalysisSuite suite(stream.Finalize());
  std::ostringstream out;
  suite.Render(out);
  return out.str();
}

// Aging and Sessions both reject the same out-of-order row. Serially Aging
// (the earlier part) throws first; as tasks, the lowest-index failure is
// the one rethrown, so the message never depends on which task lost a race.
// The rows make that race real: every row is a new object for Aging's
// table but the same user for Sessions', so Sessions reaches the bad last
// row first whenever the two run side by side.
TEST(SuiteTaskFailureTest, OutOfOrderBlockRaisesAgingAtAnyThreadCount) {
  util::SetLogLevel(util::LogLevel::kWarn);
  const auto registry = TwoSites();
  constexpr std::int64_t kRows = 10000;
  trace::RecordBlock block;
  for (std::int64_t t = 0; t < kRows; ++t) {
    // Both sites run forward, then step back on their last row.
    const std::int64_t ts = t + 1 < kRows ? t * 1000 : 0;
    for (std::uint32_t pub = 0; pub < 2; ++pub) {
      block.PushBack(MakeRecord(
          {.t = ts, .url = static_cast<std::uint64_t>(t), .pub = pub}));
    }
  }
  for (const int threads : {1, 2, 8}) {
    for (int attempt = 0; attempt < 10; ++attempt) {
      StreamingAnalysis stream(registry, Config(threads));
      try {
        stream.AddBlock(block);
        ADD_FAILURE() << "out-of-order block accepted, threads=" << threads;
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()),
                  "AgingAccumulator: input not sorted by time")
            << "threads=" << threads << " attempt=" << attempt;
      }
    }
  }
}

// threads = 1 must accumulate on the calling thread even when the process
// default is 4: every CPU second the process spent feeding blocks is the
// calling thread's own.
TEST(SuiteThreadsTest, SerialConfigAccumulatesOnCallingThread) {
  util::SetLogLevel(util::LogLevel::kWarn);
  const auto registry = TwoSites();
  std::vector<trace::RecordBlock> blocks;
  for (std::size_t b = 0; b < 48; ++b) {
    blocks.push_back(SyntheticBlock(b, trace::kDefaultBlockRecords));
  }
  StreamingAnalysis stream(registry, Config(1));

  util::SetDefaultThreads(4);
  const double self_before = CpuSeconds(RUSAGE_SELF);
  const double thread_before = CpuSeconds(RUSAGE_THREAD);
  for (const auto& block : blocks) stream.AddBlock(block);
  const double thread_cpu = CpuSeconds(RUSAGE_THREAD) - thread_before;
  const double self_cpu = CpuSeconds(RUSAGE_SELF) - self_before;
  util::SetDefaultThreads(0);  // restore the hardware default

  EXPECT_EQ(stream.records_consumed(),
            blocks.size() * trace::kDefaultBlockRecords);
  EXPECT_LE(self_cpu, thread_cpu + 0.05)
      << "other threads used " << self_cpu - thread_cpu << " s of CPU";
}

// Fed from inside a ParallelFor body, an analysis configured for 4 threads
// runs its tasks inline (ThreadPool::Run would throw its nested-use
// logic_error) and renders the report a pooled analysis renders.
TEST(SuiteThreadsTest, NestedAnalysisRunsInlineWithSameReport) {
  util::SetLogLevel(util::LogLevel::kWarn);
  const auto registry = TwoSites();
  std::vector<trace::RecordBlock> blocks;
  for (std::size_t b = 0; b < 6; ++b) blocks.push_back(SyntheticBlock(b, 997));

  StreamingAnalysis pooled(registry, Config(4));
  for (const auto& block : blocks) pooled.AddBlock(block);
  const std::string expected = Report(pooled);

  std::vector<std::string> nested(2);
  util::ParallelFor(
      nested.size(),
      [&](std::size_t i) {
        ASSERT_TRUE(util::InParallelRegion());
        StreamingAnalysis stream(registry, Config(4));
        for (const auto& block : blocks) stream.AddBlock(block);
        nested[i] = Report(stream);
      },
      2);
  for (const auto& report : nested) EXPECT_EQ(report, expected);
}

}  // namespace
}  // namespace atlas::analysis
