// Crash-consistency property of the checkpointed pipeline (ckpt/, engine.h):
// a run that checkpoints every epoch, dies, and resumes from its snapshot
// produces a merged v2 trace byte-identical to an uninterrupted run — at
// any thread count, at any kill point, even when the crash tears the tail
// of the output file. The analysis suite holds the same property through
// StreamingAnalysis save/restore: the resumed report is character-identical.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/suite.h"
#include "cdn/engine.h"
#include "cdn/scenario.h"
#include "ckpt/checkpoint.h"
#include "scenario_fixtures.h"
#include "synth/site_profile.h"
#include "trace/block.h"
#include "trace/sink.h"
#include "trace/stream.h"
#include "util/hash.h"
#include "util/logging.h"

namespace atlas {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};
// Barrier counts to die at: right after the first snapshot, mid-run, and
// near the end of the simulated week (168 hourly epochs).
constexpr std::uint64_t kKillBarriers[] = {1, 60, 150};

// Pinned FNV-1a digest of the complete v2 output for the golden scenario
// below (PaperAdultSites 0.01, seed 42, peer fill + push). Every resumed
// run must reproduce these bytes exactly; if this moves, resume is no
// longer crash-consistent (or the generator/simulator changed — say which
// in the commit message).
constexpr std::uint64_t kGoldenV2Digest = 0xef475dbcd9a33c2dULL;
constexpr std::uint64_t kGoldenRecords = 53664;

// Pinned FNV-1a digests of the checkpoint file KilledRun leaves at each of
// kKillBarriers. A snapshot is a pure function of the engine state at its
// barrier, so the file must be the same at every thread count, however its
// sections are encoded; if one moves, the checkpoint format changed.
constexpr std::uint64_t kGoldenSnapshotDigests[] = {
    0xbb3c107293057c5cULL, 0xa945859822b46197ULL, 0xb74602bd18fbdd90ULL};

cdn::SimulatorConfig GoldenConfig() {
  cdn::SimulatorConfig config;
  config.topology.edge_capacity_bytes = 256ULL << 20;
  config.peer_fill = true;
  config.push.enabled = true;
  config.push.top_n = 100;
  return config;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::uint64_t SimulateToFile(const std::string& path, int threads) {
  std::ofstream out(path, std::ios::binary);
  trace::TraceWriter writer(out);
  trace::WriterSink sink(writer);
  cdn::StreamScenario(synth::SiteProfile::PaperAdultSites(0.01),
                      GoldenConfig(), 42, sink, threads);
  writer.Finish();
  return writer.written();
}

// Runs with a snapshot every epoch and "dies" (in-process) right after the
// snapshot at `kill_barrier` commits — the writer is never Finished, as in
// a real crash. Then tears the file's tail with garbage, as a crash during
// a block write would.
void KilledRun(const std::string& path, const std::string& ckpt_path,
               int threads, std::uint64_t kill_barrier) {
  {
    std::ofstream out(path, std::ios::binary);
    trace::TraceWriter writer(out);
    trace::WriterSink sink(writer);
    cdn::CheckpointOptions opts;
    opts.every_epochs = 1;
    opts.path = ckpt_path;
    opts.save_extra = [&](ckpt::Writer& w) { writer.SaveState(w); };
    opts.after_save = [kill_barrier](std::uint64_t done) {
      return done < kill_barrier;
    };
    cdn::StreamScenario(synth::SiteProfile::PaperAdultSites(0.01),
                        GoldenConfig(), 42, sink, threads, opts);
  }
  std::ofstream torn(path, std::ios::binary | std::ios::app);
  torn << "TORN-TAIL-GARBAGE";
}

std::uint64_t ResumeRun(const std::string& path, const std::string& ckpt_path,
                        int threads) {
  auto snapshot = ckpt::ReadCheckpointFile(ckpt_path);
  trace::ResumedTraceFile resumed(path, snapshot);
  trace::WriterSink sink(resumed.writer());
  cdn::CheckpointOptions opts;
  opts.resume = &snapshot;
  cdn::StreamScenario(synth::SiteProfile::PaperAdultSites(0.01),
                      GoldenConfig(), 42, sink, threads, opts);
  resumed.writer().Finish();
  return resumed.writer().written();
}

TEST(KillResumeTest, ResumedRunsAreByteIdenticalAtAnyThreadAndKillPoint) {
  util::SetLogLevel(util::LogLevel::kWarn);
  const std::string golden_path = ::testing::TempDir() + "/atlas_kr_golden.v2";
  ASSERT_EQ(SimulateToFile(golden_path, 1), kGoldenRecords);
  const std::string golden = ReadFileBytes(golden_path);
  ASSERT_EQ(util::Fnv1a64(golden), kGoldenV2Digest);

  for (const int threads : kThreadCounts) {
    for (std::size_t k = 0; k < std::size(kKillBarriers); ++k) {
      const std::uint64_t kill = kKillBarriers[k];
      const std::string tag =
          "_t" + std::to_string(threads) + "_k" + std::to_string(kill);
      const std::string path =
          ::testing::TempDir() + "/atlas_kr" + tag + ".v2";
      const std::string ckpt_path =
          ::testing::TempDir() + "/atlas_kr" + tag + ".ckpt";

      KilledRun(path, ckpt_path, threads, kill);
      EXPECT_EQ(util::Fnv1a64(ReadFileBytes(ckpt_path)),
                kGoldenSnapshotDigests[k])
          << "snapshot bytes moved (threads=" << threads << ", kill=" << kill
          << ")";

      // The torn file must be detected as corrupt before recovery...
      const auto scan = trace::ScanV2File(path);
      EXPECT_FALSE(scan.error.empty())
          << "torn tail not detected (threads=" << threads << ", kill="
          << kill << ")";
      EXPECT_LT(scan.valid_records, kGoldenRecords);

      // ...and recovery + resume must reproduce the golden bytes exactly.
      EXPECT_EQ(ResumeRun(path, ckpt_path, threads), kGoldenRecords);
      const std::string resumed = ReadFileBytes(path);
      EXPECT_EQ(util::Fnv1a64(resumed), kGoldenV2Digest)
          << "threads=" << threads << ", kill=" << kill;
      EXPECT_EQ(resumed, golden);

      std::remove(path.c_str());
      std::remove(ckpt_path.c_str());
    }
  }
  std::remove(golden_path.c_str());
}

TEST(KillResumeTest, ResumeWithDifferentSeedFailsClearly) {
  util::SetLogLevel(util::LogLevel::kWarn);
  const std::string path = ::testing::TempDir() + "/atlas_kr_seed.v2";
  const std::string ckpt_path = ::testing::TempDir() + "/atlas_kr_seed.ckpt";
  KilledRun(path, ckpt_path, 2, 1);

  auto snapshot = ckpt::ReadCheckpointFile(ckpt_path);
  trace::ResumedTraceFile resumed(path, snapshot);
  trace::WriterSink sink(resumed.writer());
  cdn::CheckpointOptions opts;
  opts.resume = &snapshot;
  try {
    cdn::StreamScenario(synth::SiteProfile::PaperAdultSites(0.01),
                        GoldenConfig(), 43, sink, 2, opts);
    FAIL() << "seed mismatch not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("scenario mismatch"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
  std::remove(ckpt_path.c_str());
}

TEST(KillResumeTest, ResumeWithDifferentConfigFailsClearly) {
  util::SetLogLevel(util::LogLevel::kWarn);
  const std::string path = ::testing::TempDir() + "/atlas_kr_cfg.v2";
  const std::string ckpt_path = ::testing::TempDir() + "/atlas_kr_cfg.ckpt";
  KilledRun(path, ckpt_path, 2, 1);

  auto snapshot = ckpt::ReadCheckpointFile(ckpt_path);
  trace::ResumedTraceFile resumed(path, snapshot);
  trace::WriterSink sink(resumed.writer());
  cdn::CheckpointOptions opts;
  opts.resume = &snapshot;
  auto config = GoldenConfig();
  config.peer_fill = false;  // not the workload the snapshot was taken with
  try {
    cdn::StreamScenario(synth::SiteProfile::PaperAdultSites(0.01), config, 42,
                        sink, 2, opts);
    FAIL() << "config mismatch not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
  std::remove(ckpt_path.c_str());
}

// The analysis-side half of the property: interrupting a streaming analysis
// pass, checkpointing it, and restoring into a fresh StreamingAnalysis must
// render a report character-identical to an uninterrupted pass. Here the
// resumed pass reads the same block size, so the cursor lands on a block
// boundary and the skip drops whole blocks only.
TEST(KillResumeTest, StreamingAnalysisSaveRestoreReproducesReport) {
  util::SetLogLevel(util::LogLevel::kWarn);
  const auto scenario = testutil::RunPaperStudy(0.004, GoldenConfig(), 11, 2);
  const trace::TraceBuffer& merged = scenario.trace;
  ASSERT_GT(merged.size(), 1000u);
  constexpr std::size_t kBlock = 500;

  analysis::SuiteConfig config;
  config.threads = 2;

  // Uninterrupted pass.
  std::string golden_report;
  {
    trace::BufferBlockSource source(merged);
    analysis::AnalysisSuite suite(source, scenario.registry(), config);
    std::ostringstream out;
    suite.Render(out);
    golden_report = out.str();
  }

  // Interrupted pass: consume half, checkpoint, restore into a fresh
  // analysis, feed the rest from the cursor onward.
  const std::string ckpt_path = ::testing::TempDir() + "/atlas_kr_suite.ckpt";
  {
    analysis::StreamingAnalysis first(scenario.registry(), config);
    trace::BufferBlockSource source(merged, kBlock);
    const std::uint64_t half = merged.size() / 2;
    for (const auto* block = source.NextBlock();
         block != nullptr && first.records_consumed() < half;
         block = source.NextBlock()) {
      first.AddBlock(*block);
    }
    ckpt::WriteCheckpointFile(ckpt_path, [&](ckpt::Writer& w) {
      w.BeginSection("analysis.suite", 1);
      first.SaveState(w);
      w.EndSection();
    });
  }
  analysis::StreamingAnalysis second(scenario.registry(), config);
  {
    auto snapshot = ckpt::ReadCheckpointFile(ckpt_path);
    snapshot.BeginSection("analysis.suite", 1);
    second.RestoreState(snapshot);
    snapshot.EndSection();
  }
  std::uint64_t skip = second.records_consumed();
  EXPECT_GT(skip, 0u);
  EXPECT_EQ(skip % kBlock, 0u);
  {
    trace::BufferBlockSource source(merged, kBlock);
    for (const auto* block = source.NextBlock(); block != nullptr;
         block = source.NextBlock()) {
      if (skip > 0) {
        ASSERT_GE(skip, block->size());
        skip -= block->size();
        continue;
      }
      second.AddBlock(*block);
    }
  }
  EXPECT_EQ(second.records_consumed(), merged.size());
  analysis::AnalysisSuite resumed_suite(second.Finalize());
  std::ostringstream out;
  resumed_suite.Render(out);
  EXPECT_EQ(out.str(), golden_report);
  std::remove(ckpt_path.c_str());
}

// Same property with the cursor inside a block: consume blocks, checkpoint,
// restore into a fresh analysis, and resume with a *different* block size
// so the cursor lands mid-block — AddBlock's first_row skip must consume
// exactly the unseen suffix. The resumed report must be
// character-identical.
TEST(KillResumeTest, BatchStreamingAnalysisSaveRestoreReproducesReport) {
  util::SetLogLevel(util::LogLevel::kWarn);
  const auto scenario = testutil::RunPaperStudy(0.004, GoldenConfig(), 11, 2);
  const trace::TraceBuffer& merged = scenario.trace;
  ASSERT_GT(merged.size(), 1000u);

  analysis::SuiteConfig config;
  config.threads = 2;

  // Uninterrupted pass.
  std::string golden_report;
  {
    trace::BufferBlockSource source(merged, /*block_records=*/512);
    analysis::AnalysisSuite suite(source, scenario.registry(), config);
    std::ostringstream out;
    suite.Render(out);
    golden_report = out.str();
  }

  const std::string ckpt_path =
      ::testing::TempDir() + "/atlas_kr_batch_suite.ckpt";
  {
    analysis::StreamingAnalysis first(scenario.registry(), config);
    trace::BufferBlockSource source(merged, /*block_records=*/512);
    const std::uint64_t half = merged.size() / 2;
    for (const auto* block = source.NextBlock();
         block != nullptr && first.records_consumed() < half;
         block = source.NextBlock()) {
      first.AddBlock(*block);
    }
    ckpt::WriteCheckpointFile(ckpt_path, [&](ckpt::Writer& w) {
      w.BeginSection("analysis.suite", 1);
      first.SaveState(w);
      w.EndSection();
    });
  }

  analysis::StreamingAnalysis second(scenario.registry(), config);
  {
    auto snapshot = ckpt::ReadCheckpointFile(ckpt_path);
    snapshot.BeginSection("analysis.suite", 1);
    second.RestoreState(snapshot);
    snapshot.EndSection();
  }
  std::uint64_t skip = second.records_consumed();
  EXPECT_GT(skip, 0u);
  // 384 does not divide the 512-aligned cursor, so the resume point falls
  // inside a block and first_row does real work.
  EXPECT_NE(skip % 384, 0u);
  {
    trace::BufferBlockSource source(merged, /*block_records=*/384);
    for (const auto* block = source.NextBlock(); block != nullptr;
         block = source.NextBlock()) {
      if (skip >= block->size()) {
        skip -= block->size();
        continue;
      }
      second.AddBlock(*block, static_cast<std::size_t>(skip));
      skip = 0;
    }
  }
  EXPECT_EQ(second.records_consumed(), merged.size());
  analysis::AnalysisSuite resumed_suite(second.Finalize());
  std::ostringstream out;
  resumed_suite.Render(out);
  EXPECT_EQ(out.str(), golden_report);
  std::remove(ckpt_path.c_str());
}

// Lazy-shard runs are crash-consistent too — and the synth-table budget is
// a pure execution knob, deliberately excluded from the scenario
// fingerprint: a run killed with its tables forced into lazy RNG-snapshot
// shards resumes against a *resident* reconstruction (and vice versa) and
// still reproduces the golden bytes exactly.
TEST(KillResumeTest, LazyShardRunResumesAcrossBudgetsToGoldenBytes) {
  util::SetLogLevel(util::LogLevel::kWarn);
  constexpr int kThreads = 2;
  constexpr std::uint64_t kKill = 60;
  // {budget at kill, budget at resume}: lazy->resident and resident->lazy.
  constexpr std::uint64_t kLazyBudget = 1u << 16;
  constexpr std::uint64_t kResidentBudget = 256ULL << 20;
  const std::uint64_t budget_pairs[][2] = {
      {kLazyBudget, kResidentBudget},
      {kResidentBudget, kLazyBudget},
  };

  for (const auto& budgets : budget_pairs) {
    const std::string tag = budgets[0] == kLazyBudget ? "_l2r" : "_r2l";
    const std::string path = ::testing::TempDir() + "/atlas_kr_lazy" + tag + ".v2";
    const std::string ckpt_path =
        ::testing::TempDir() + "/atlas_kr_lazy" + tag + ".ckpt";

    auto sites = synth::SiteProfile::PaperAdultSites(0.01);
    {
      for (auto& site : sites) site.synth_table_budget_bytes = budgets[0];
      std::ofstream out(path, std::ios::binary);
      trace::TraceWriter writer(out);
      trace::WriterSink sink(writer);
      cdn::CheckpointOptions opts;
      opts.every_epochs = 1;
      opts.path = ckpt_path;
      opts.save_extra = [&](ckpt::Writer& w) { writer.SaveState(w); };
      opts.after_save = [](std::uint64_t done) { return done < kKill; };
      cdn::StreamScenario(sites, GoldenConfig(), 42, sink, kThreads, opts);
    }
    std::ofstream torn(path, std::ios::binary | std::ios::app);
    torn << "TORN-TAIL-GARBAGE";
    torn.close();

    for (auto& site : sites) site.synth_table_budget_bytes = budgets[1];
    auto snapshot = ckpt::ReadCheckpointFile(ckpt_path);
    trace::ResumedTraceFile resumed(path, snapshot);
    trace::WriterSink sink(resumed.writer());
    cdn::CheckpointOptions opts;
    opts.resume = &snapshot;
    cdn::StreamScenario(sites, GoldenConfig(), 42, sink, kThreads, opts);
    resumed.writer().Finish();
    EXPECT_EQ(resumed.writer().written(), kGoldenRecords) << tag;
    EXPECT_EQ(util::Fnv1a64(ReadFileBytes(path)), kGoldenV2Digest) << tag;

    std::remove(path.c_str());
    std::remove(ckpt_path.c_str());
  }
}

}  // namespace
}  // namespace atlas
