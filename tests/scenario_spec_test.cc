// The declarative scenario engine end to end: every shipped scenario file
// under scenarios/ reproduces its pinned golden digest at 1/2/8 threads,
// each operational event produces its claimed effect in the trace,
// malformed spec files fail loudly with positions, the canonical form
// round-trips byte-exactly, and a checkpointed spec run refuses to resume
// against a mutated spec.
#include "cdn/scenario_spec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cdn/engine.h"
#include "cdn/scenario.h"
#include "ckpt/checkpoint.h"
#include "synth/catalog.h"
#include "synth/workload.h"
#include "synth/site_profile.h"
#include "trace/sink.h"
#include "trace/stream.h"
#include "trace/trace_buffer.h"
#include "util/config.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/time.h"

namespace atlas {
namespace {

using util::config::ConfigError;

constexpr int kThreadCounts[] = {1, 2, 8};

// Pinned FNV-1a digests of the complete v2 output for every scenario file
// shipped under scenarios/. paper_study matches kGoldenV2Digest in
// kill_resume_test.cc by construction: the spec is the declarative twin of
// that test's golden config. If a digest moves, either the file changed or
// the generator/engine changed — say which in the commit message.
struct GoldenScenario {
  const char* file;
  std::uint64_t digest;
  std::uint64_t records;
};
constexpr GoldenScenario kGoldenScenarios[] = {
    {"paper_study.toml", 0xef475dbcd9a33c2dULL, 53664},
    {"flash_crowd.toml", 0x46f44269337038c8ULL, 16410},
    {"takedown.toml", 0xf8ec9a7a9514ef6fULL, 14957},
    {"dc_outage.toml", 0xf73728864137927aULL, 17597},
    {"cache_flush.toml", 0xded9a1d09f02cba8ULL, 15766},
    {"live_event.toml", 0x8bcb964a1d3a3ef7ULL, 5925},
};

std::string SpecPath(const std::string& name) {
  return std::string(ATLAS_SOURCE_DIR) + "/scenarios/" + name;
}

struct SpecRun {
  std::string bytes;
  std::uint64_t records = 0;
  cdn::ScenarioStreamResult result;
};

SpecRun RunSpec(const cdn::ScenarioSpec& spec, int threads) {
  std::ostringstream out;
  trace::TraceWriter writer(out);
  trace::WriterSink sink(writer);
  SpecRun run;
  run.result = cdn::StreamScenario(spec, sink, threads);
  writer.Finish();
  run.bytes = out.str();
  run.records = writer.written();
  return run;
}

trace::TraceBuffer MaterializeSpec(const cdn::ScenarioSpec& spec,
                                   int threads = 2) {
  trace::TraceBuffer out;
  trace::BufferSink sink(out);
  cdn::StreamScenario(spec, sink, threads);
  return out;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Most-requested url for one publisher within [from_ms, to_ms), plus its
// share of that publisher's in-window requests.
struct ModalUrl {
  std::uint64_t url = 0;
  std::uint64_t count = 0;
  std::uint64_t total = 0;
  double Share() const {
    return total == 0 ? 0.0
                      : static_cast<double>(count) / static_cast<double>(total);
  }
};

ModalUrl ModalUrlInWindow(const trace::TraceBuffer& trace, std::uint32_t pub,
                          std::int64_t from_ms, std::int64_t to_ms) {
  std::map<std::uint64_t, std::uint64_t> counts;
  ModalUrl modal;
  for (const auto& r : trace.records()) {
    if (r.publisher_id != pub) continue;
    if (r.timestamp_ms < from_ms || r.timestamp_ms >= to_ms) continue;
    ++modal.total;
    const std::uint64_t c = ++counts[r.url_hash];
    if (c > modal.count) {
      modal.count = c;
      modal.url = r.url_hash;
    }
  }
  return modal;
}

double HitRatioInWindow(const trace::TraceBuffer& trace, std::int64_t from_ms,
                        std::int64_t to_ms) {
  std::uint64_t hits = 0, total = 0;
  for (const auto& r : trace.records()) {
    if (r.timestamp_ms < from_ms || r.timestamp_ms >= to_ms) continue;
    ++total;
    if (r.cache_status == trace::CacheStatus::kHit) ++hits;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

class ScenarioSpecTest : public ::testing::Test {
 protected:
  void SetUp() override { util::SetLogLevel(util::LogLevel::kWarn); }
  void TearDown() override { util::SetLogLevel(util::LogLevel::kInfo); }
};

// ---------------------------------------------------------------------------
// Golden digests: every shipped scenario, every thread count.

TEST_F(ScenarioSpecTest, EveryShippedScenarioReproducesItsGoldenDigest) {
  for (const auto& golden : kGoldenScenarios) {
    const auto spec = cdn::ScenarioSpec::ParseFile(SpecPath(golden.file));
    for (const int threads : kThreadCounts) {
      const SpecRun run = RunSpec(spec, threads);
      EXPECT_EQ(run.records, golden.records)
          << golden.file << " threads=" << threads;
      EXPECT_EQ(util::Fnv1a64(run.bytes), golden.digest)
          << golden.file << " threads=" << threads;
    }
  }
}

TEST_F(ScenarioSpecTest, PaperStudySpecMatchesHardcodedPaperStudy) {
  // The declarative twin produces the same bytes as the constructor
  // pipeline it replaced (same profiles, config, seed).
  const auto spec =
      cdn::ScenarioSpec::ParseFile(SpecPath("paper_study.toml"));
  cdn::SimulatorConfig config;
  config.topology.edge_capacity_bytes = 256ULL << 20;
  config.peer_fill = true;
  config.push.enabled = true;
  config.push.top_n = 100;
  std::ostringstream out;
  trace::TraceWriter writer(out);
  trace::WriterSink sink(writer);
  cdn::StreamScenario(synth::SiteProfile::PaperAdultSites(0.01), config, 42,
                      sink, 2);
  writer.Finish();
  const SpecRun run = RunSpec(spec, 2);
  EXPECT_EQ(run.bytes, out.str());
}

// ---------------------------------------------------------------------------
// Event semantics: each scenario's claimed effect is visible in its trace.

TEST_F(ScenarioSpecTest, FlashCrowdConcentratesInWindowDemand) {
  const auto spec =
      cdn::ScenarioSpec::ParseFile(SpecPath("flash_crowd.toml"));
  const auto trace = MaterializeSpec(spec);
  // V-1 is the first [[site]], publisher id 0; the event window is hours
  // 50-56 with share 0.6: the modal object must dominate in-window and be
  // an ordinary Zipf head outside it.
  const auto in_window = ModalUrlInWindow(trace, 0, 50 * util::kMillisPerHour,
                                          56 * util::kMillisPerHour);
  const auto before = ModalUrlInWindow(trace, 0, 0, 50 * util::kMillisPerHour);
  ASSERT_GT(in_window.total, 100u);
  EXPECT_GT(in_window.Share(), 0.45);
  EXPECT_LT(before.Share(), 0.30);
}

TEST_F(ScenarioSpecTest, TakedownRemovesTheObjectInWindow) {
  const auto spec = cdn::ScenarioSpec::ParseFile(SpecPath("takedown.toml"));
  cdn::ScenarioSpec without = spec;
  without.events.clear();
  // Ground truth: the taken-down url is catalog object 0 of the first (and
  // only) site, read from a generator built the way StreamScenario builds
  // it (site 0's seed is the first draw of the spec seed's stream).
  const synth::WorkloadGenerator generator(spec.BuildProfiles()[0],
                                           util::Rng(spec.seed).Next());
  const std::uint64_t taken_down = generator.catalog().object(0).url_hash;
  const auto trace = MaterializeSpec(spec);
  const auto baseline = MaterializeSpec(without);
  auto count = [taken_down](const trace::TraceBuffer& t, bool in_window) {
    std::uint64_t n = 0;
    for (const auto& r : t.records()) {
      if (r.publisher_id != 0 || r.url_hash != taken_down) continue;
      if ((r.timestamp_ms >= 72 * util::kMillisPerHour) == in_window) ++n;
    }
    return n;
  };
  // Without the event the object keeps drawing requests all week; with it,
  // demand vanishes at hour 72 (redirected to the catalog neighbour) while
  // the pre-window demand is byte-identical.
  ASSERT_GT(count(baseline, true), 0u)
      << "object 0 draws no organic demand after hour 72 — dead test";
  EXPECT_EQ(count(trace, true), 0u)
      << "taken-down object still requested after hour 72";
  EXPECT_EQ(count(trace, false), count(baseline, false))
      << "takedown changed demand before its window opened";
}

TEST_F(ScenarioSpecTest, DcOutageShiftsTrafficToFailoverDc) {
  const auto spec = cdn::ScenarioSpec::ParseFile(SpecPath("dc_outage.toml"));
  cdn::ScenarioSpec without = spec;
  without.events.clear();
  const SpecRun outage = RunSpec(spec, 2);
  const SpecRun baseline = RunSpec(without, 2);

  // The demand timeline is untouched, but delivery is not byte-invariant:
  // requests rerouted to the failover DC hit different cache state, so
  // revalidations that would have been 304s at the home DC can come back as
  // full 200s (and vice versa). Record counts therefore drift by a handful,
  // not by orders of magnitude.
  const auto drift = outage.records > baseline.records
                         ? outage.records - baseline.records
                         : baseline.records - outage.records;
  EXPECT_LT(drift, baseline.records / 100)
      << "outage=" << outage.records << " baseline=" << baseline.records;

  // DC 0 serves nothing for 12 of 168 hours; those requests land on DC 1.
  auto dc_requests = [](const cdn::ScenarioStreamResult& r, std::size_t dc) {
    std::uint64_t total = 0;
    for (const auto& site : r.site_results) {
      total += site.per_dc_stats[dc].hits + site.per_dc_stats[dc].misses;
    }
    return total;
  };
  EXPECT_LT(dc_requests(outage.result, 0), dc_requests(baseline.result, 0));
  EXPECT_GT(dc_requests(outage.result, 1), dc_requests(baseline.result, 1));
}

TEST_F(ScenarioSpecTest, CacheFlushDropsHitRatioAfterTheFlush) {
  const auto spec =
      cdn::ScenarioSpec::ParseFile(SpecPath("cache_flush.toml"));
  const auto trace = MaterializeSpec(spec);
  // Warm caches just before hour 84, cold caches just after.
  const double warm = HitRatioInWindow(trace, 80 * util::kMillisPerHour,
                                       84 * util::kMillisPerHour);
  const double cold = HitRatioInWindow(trace, 84 * util::kMillisPerHour,
                                       88 * util::kMillisPerHour);
  EXPECT_GT(warm, cold + 0.05)
      << "warm=" << warm << " cold=" << cold
      << " (flush at hour 84 did not cool the caches)";
}

TEST_F(ScenarioSpecTest, LiveEventConcentratesTheHeadlineStream) {
  const auto spec = cdn::ScenarioSpec::ParseFile(SpecPath("live_event.toml"));
  const auto trace = MaterializeSpec(spec);
  const auto in_window = ModalUrlInWindow(trace, 0, 20 * util::kMillisPerHour,
                                          25 * util::kMillisPerHour);
  ASSERT_GT(in_window.total, 50u);
  EXPECT_GT(in_window.Share(), 0.5);
}

// ---------------------------------------------------------------------------
// Canonical form and fingerprint.

TEST_F(ScenarioSpecTest, CanonicalFormRoundTripsForEveryShippedScenario) {
  for (const auto& golden : kGoldenScenarios) {
    const auto spec = cdn::ScenarioSpec::ParseFile(SpecPath(golden.file));
    const std::string canonical = spec.CanonicalToml();
    const auto reparsed = cdn::ScenarioSpec::Parse(canonical, "<canonical>");
    EXPECT_EQ(reparsed.CanonicalToml(), canonical) << golden.file;
    EXPECT_EQ(reparsed.Fingerprint(), spec.Fingerprint()) << golden.file;
  }
}

TEST_F(ScenarioSpecTest, FingerprintSeesEveryKnob) {
  const auto base = cdn::ScenarioSpec::ParseFile(SpecPath("takedown.toml"));
  cdn::ScenarioSpec edited = base;
  edited.seed += 1;
  EXPECT_NE(edited.Fingerprint(), base.Fingerprint());
  edited = base;
  edited.scale = 0.005;
  EXPECT_NE(edited.Fingerprint(), base.Fingerprint());
  edited = base;
  edited.events[0].end_hours += 1.0;
  EXPECT_NE(edited.Fingerprint(), base.Fingerprint());
  edited = base;
  edited.sim.push.enabled = !edited.sim.push.enabled;
  EXPECT_NE(edited.Fingerprint(), base.Fingerprint());
}

// ---------------------------------------------------------------------------
// Malformed-file corpus: every defect fails loudly, nothing half-loads.

std::string ParseError(const std::string& text) {
  try {
    cdn::ScenarioSpec::Parse(text, "<bad>");
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

constexpr char kMinimalSite[] = "[[site]]\nprofile = \"V-1\"\n";

TEST_F(ScenarioSpecTest, RejectsUnknownTopLevelKey) {
  const std::string err =
      ParseError(std::string("name = \"x\"\nsped = 1\n") + kMinimalSite);
  EXPECT_NE(err.find("unknown key 'sped'"), std::string::npos) << err;
  EXPECT_NE(err.find("<bad>:2:"), std::string::npos) << err;
}

TEST_F(ScenarioSpecTest, RejectsUnknownSiteKey) {
  const std::string err = ParseError(
      "name = \"x\"\n[[site]]\nprofile = \"V-1\"\nzpif_s = 1.1\n");
  EXPECT_NE(err.find("unknown key 'zpif_s'"), std::string::npos) << err;
  EXPECT_NE(err.find("site[0]"), std::string::npos) << err;
}

TEST_F(ScenarioSpecTest, RejectsWrongType) {
  const std::string err =
      ParseError(std::string("name = \"x\"\nscale = \"big\"\n") +
                 kMinimalSite);
  EXPECT_NE(err.find("expected float"), std::string::npos) << err;
}

TEST_F(ScenarioSpecTest, RejectsOutOfRangeScale) {
  const std::string err =
      ParseError(std::string("name = \"x\"\nscale = 100.0\n") + kMinimalSite);
  EXPECT_NE(err.find("scale"), std::string::npos) << err;
}

TEST_F(ScenarioSpecTest, RejectsMissingName) {
  const std::string err = ParseError(kMinimalSite);
  EXPECT_NE(err.find("missing required key 'name'"), std::string::npos)
      << err;
}

TEST_F(ScenarioSpecTest, RejectsEmptySiteList) {
  const std::string err = ParseError("name = \"x\"\n");
  EXPECT_NE(err.find("at least one [[site]]"), std::string::npos) << err;
}

TEST_F(ScenarioSpecTest, RejectsUnknownBaseProfile) {
  const std::string err =
      ParseError("name = \"x\"\n[[site]]\nprofile = \"V-9\"\n");
  EXPECT_NE(err.find("unknown base profile 'V-9'"), std::string::npos) << err;
}

TEST_F(ScenarioSpecTest, RejectsDuplicateSiteNames) {
  const std::string err = ParseError(
      "name = \"x\"\n"
      "[[site]]\nprofile = \"V-1\"\n"
      "[[site]]\nprofile = \"V-2\"\nname = \"V-1\"\n");
  EXPECT_NE(err.find("duplicate site name 'V-1'"), std::string::npos) << err;
}

TEST_F(ScenarioSpecTest, RejectsUnknownEventKind) {
  const std::string err = ParseError(
      std::string("name = \"x\"\n") + kMinimalSite +
      "[[event]]\nkind = \"flashcrowd\"\n");
  EXPECT_NE(err.find("unknown event kind"), std::string::npos) << err;
}

TEST_F(ScenarioSpecTest, RejectsEventForUnknownSite) {
  const std::string err = ParseError(
      std::string("name = \"x\"\n") + kMinimalSite +
      "[[event]]\nkind = \"takedown\"\nsite = \"V-2\"\n"
      "start_hours = 1.0\nend_hours = 2.0\nobject = 0\n");
  EXPECT_NE(err.find("unknown site 'V-2'"), std::string::npos) << err;
}

TEST_F(ScenarioSpecTest, RejectsInvertedEventWindow) {
  const std::string err = ParseError(
      std::string("name = \"x\"\n") + kMinimalSite +
      "[[event]]\nkind = \"takedown\"\nsite = \"V-1\"\n"
      "start_hours = 5.0\nend_hours = 2.0\nobject = 0\n");
  EXPECT_NE(err.find("0 <= start < end"), std::string::npos) << err;
}

TEST_F(ScenarioSpecTest, RejectsOverlappingEventWindows) {
  const std::string err = ParseError(
      std::string("name = \"x\"\n") + kMinimalSite +
      "[[event]]\nkind = \"flash-crowd\"\nsite = \"V-1\"\n"
      "start_hours = 1.0\nend_hours = 10.0\nobject = 0\nshare = 0.5\n"
      "[[event]]\nkind = \"flash-crowd\"\nsite = \"V-1\"\n"
      "start_hours = 5.0\nend_hours = 12.0\nobject = 1\nshare = 0.5\n");
  EXPECT_NE(err.find("overlapping flash-crowd event windows"),
            std::string::npos)
      << err;
}

TEST_F(ScenarioSpecTest, RejectsOutOfRangeShare) {
  const std::string err = ParseError(
      std::string("name = \"x\"\n") + kMinimalSite +
      "[[event]]\nkind = \"flash-crowd\"\nsite = \"V-1\"\n"
      "start_hours = 1.0\nend_hours = 2.0\nobject = 0\nshare = 1.5\n");
  EXPECT_NE(err.find("share"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Checkpoint identity: a spec run refuses to resume against a mutated spec.

TEST_F(ScenarioSpecTest, KilledSpecRunResumesByteIdentically) {
  auto spec = cdn::ScenarioSpec::ParseFile(SpecPath("takedown.toml"));
  const SpecRun golden = RunSpec(spec, 2);

  const std::string path = ::testing::TempDir() + "/atlas_spec_kr.v2";
  const std::string ckpt_path = ::testing::TempDir() + "/atlas_spec_kr.ckpt";
  {
    std::ofstream out(path, std::ios::binary);
    trace::TraceWriter writer(out);
    trace::WriterSink sink(writer);
    cdn::CheckpointOptions opts;
    opts.every_epochs = 1;
    opts.path = ckpt_path;
    opts.save_extra = [&](ckpt::Writer& w) { writer.SaveState(w); };
    opts.after_save = [](std::uint64_t done) { return done < 60; };
    cdn::StreamScenario(spec, sink, 2, opts);
  }
  std::ofstream torn(path, std::ios::binary | std::ios::app);
  torn << "TORN-TAIL";
  torn.close();

  auto snapshot = ckpt::ReadCheckpointFile(ckpt_path);
  trace::ResumedTraceFile resumed(path, snapshot);
  trace::WriterSink sink(resumed.writer());
  cdn::CheckpointOptions opts;
  opts.resume = &snapshot;
  cdn::StreamScenario(spec, sink, 2, opts);
  resumed.writer().Finish();
  EXPECT_EQ(resumed.writer().written(), golden.records);
  EXPECT_EQ(util::Fnv1a64(ReadFileBytes(path)), util::Fnv1a64(golden.bytes));
}

TEST_F(ScenarioSpecTest, ResumeRejectsMutatedSpec) {
  auto spec = cdn::ScenarioSpec::ParseFile(SpecPath("takedown.toml"));
  const std::string path = ::testing::TempDir() + "/atlas_spec_mut.v2";
  const std::string ckpt_path = ::testing::TempDir() + "/atlas_spec_mut.ckpt";
  {
    std::ofstream out(path, std::ios::binary);
    trace::TraceWriter writer(out);
    trace::WriterSink sink(writer);
    cdn::CheckpointOptions opts;
    opts.every_epochs = 1;
    opts.path = ckpt_path;
    opts.save_extra = [&](ckpt::Writer& w) { writer.SaveState(w); };
    opts.after_save = [](std::uint64_t done) { return done < 3; };
    cdn::StreamScenario(spec, sink, 2, opts);
  }

  // Same shape (sites, seed) but a different event timeline: the scenario
  // layer's seed/site check passes, only the spec fingerprint can catch it.
  cdn::ScenarioSpec mutated = spec;
  mutated.events[0].end_hours += 1.0;
  auto snapshot = ckpt::ReadCheckpointFile(ckpt_path);
  trace::ResumedTraceFile resumed(path, snapshot);
  trace::WriterSink sink(resumed.writer());
  cdn::CheckpointOptions opts;
  opts.resume = &snapshot;
  try {
    cdn::StreamScenario(mutated, sink, 2, opts);
    FAIL() << "resume against a mutated spec must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ScenarioSpecTest, SpecResumeRejectsProfilesCheckpoint) {
  // A checkpoint written by the profiles-based pipeline has no
  // scenario.spec section; resuming it through the spec path must say so
  // rather than restore unverified state.
  auto spec = cdn::ScenarioSpec::ParseFile(SpecPath("takedown.toml"));
  const std::string path = ::testing::TempDir() + "/atlas_spec_nospec.v2";
  const std::string ckpt_path =
      ::testing::TempDir() + "/atlas_spec_nospec.ckpt";
  {
    std::ofstream out(path, std::ios::binary);
    trace::TraceWriter writer(out);
    trace::WriterSink sink(writer);
    cdn::CheckpointOptions opts;
    opts.every_epochs = 1;
    opts.path = ckpt_path;
    opts.save_extra = [&](ckpt::Writer& w) { writer.SaveState(w); };
    opts.after_save = [](std::uint64_t done) { return done < 3; };
    cdn::StreamScenario(spec.BuildProfiles(), spec.BuildConfig(), spec.seed,
                        sink, 2, opts);
  }
  auto snapshot = ckpt::ReadCheckpointFile(ckpt_path);
  trace::ResumedTraceFile resumed(path, snapshot);
  trace::WriterSink sink(resumed.writer());
  cdn::CheckpointOptions opts;
  opts.resume = &snapshot;
  try {
    cdn::StreamScenario(spec, sink, 2, opts);
    FAIL() << "spec resume of a spec-less checkpoint must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("scenario.spec"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Duplicate site names in the programmatic entry point (regression).

TEST_F(ScenarioSpecTest, StreamScenarioRejectsDuplicateSiteNames) {
  std::vector<synth::SiteProfile> profiles = {
      synth::SiteProfile::P1(0.001), synth::SiteProfile::P1(0.001)};
  cdn::SimulatorConfig config;
  trace::TraceBuffer out;
  trace::BufferSink sink(out);
  try {
    cdn::StreamScenario(profiles, config, 42, sink, 1);
    FAIL() << "duplicate site names must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate site name 'P-1'"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace atlas
