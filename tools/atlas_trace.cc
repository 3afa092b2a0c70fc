// atlas_trace — command-line trace utility.
//
//   atlas_trace info    <trace.bin>                summary + per-publisher stats
//   atlas_trace head    <trace.bin> [--n 20]       print the first records
//   atlas_trace tocsv   <trace.bin> <out.csv>      binary -> CSV
//   atlas_trace tobin   <trace.csv> <out.bin>      CSV -> binary
//   atlas_trace filter  <in.bin> <out.bin> [--publisher N] [--class video]
//                       [--from-ms T] [--to-ms T]  subset a trace
//   atlas_trace simulate <out.v2> [--spec scenario.toml] [--scale 0.05]
//                       [--seed 42] [--threads N]
//                       [--peer-fill] [--epoch-min 60]
//                       [--energy-report]
//                       [--checkpoint-every N] [--checkpoint-file F]
//                       [--resume F]            run the paper study fully
//                                                  out-of-core: the sharded
//                                                  engine streams the merged
//                                                  trace straight to a v2
//                                                  file, so peak memory is
//                                                  independent of trace length.
//                                                  --spec runs a declarative
//                                                  scenario file instead
//                                                  (scenarios/*.toml);
//                                                  --scale/--seed override
//                                                  the spec's values, other
//                                                  config flags are rejected
//                                                  (the file owns the config)
//   atlas_trace verify  <trace.v2>                 walk every block CRC and
//                                                  report how much of the
//                                                  file is intact
//   atlas_trace analyze <trace.bin> [--spec scenario.toml] [--report F]
//                       [--threads N] [--no-trends]
//                       [--checkpoint-every N] [--checkpoint-file F]
//                       [--resume F]               stream the full analysis
//                                                  suite over a trace file;
//                                                  --spec takes the publisher
//                                                  registry from a scenario
//                                                  file instead of the
//                                                  default paper-study sites
//
// Binary traces are the v2 block format (trace/stream.h). Every command but
// `tobin` runs in bounded memory — one block at a time — so they work on
// traces larger than RAM. CSV files are directly loadable in pandas/DuckDB.
//
// Crash recovery: `simulate --checkpoint-every N` snapshots the engine,
// generators, and the trace writer's partial tail block every N epoch
// barriers (atomic tmp+rename, see ckpt/checkpoint.h). After a crash,
// `simulate --resume <snapshot>` truncates the torn output back to the
// snapshot's flushed prefix and continues — the finished trace is
// byte-identical to an uninterrupted run. `analyze --checkpoint-every N`
// does the same for the analysis pass (cursor = records consumed).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "analysis/suite.h"
#include "cdn/scenario.h"
#include "cdn/scenario_spec.h"
#include "ckpt/checkpoint.h"
#include "energy/run.h"
#include "trace/content_class.h"
#include "trace/stream.h"
#include "trace/trace_io.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/par.h"
#include "util/str.h"
#include "util/time.h"

namespace {

using namespace atlas;

int Usage(const char* prog) {
  std::cerr << "usage: " << prog
            << " <info|head|tocsv|tobin|filter|simulate|verify|analyze> "
               "<args...>\n"
               "  info    <trace.bin>\n"
               "  head    <trace.bin> [--n 20]\n"
               "  tocsv   <trace.bin> <out.csv>\n"
               "  tobin   <trace.csv> <out.bin>\n"
               "  filter  <in.bin> <out.bin> [--publisher N] [--class C] "
               "[--from-ms T] [--to-ms T]\n"
               "  simulate <out.v2> [--spec scenario.toml] [--scale 0.05] "
               "[--seed 42] [--threads N] [--peer-fill] [--epoch-min 60] "
               "[--energy-report] "
               "[--checkpoint-every N] [--checkpoint-file F] [--resume F]\n"
               "  verify  <trace.v2>\n"
               "  analyze <trace.bin> [--spec scenario.toml] [--report F] "
               "[--threads N] [--no-trends] [--checkpoint-every N] "
               "[--checkpoint-file F] [--resume F]\n";
  return 2;
}

// Everything `info` prints, gathered in one pass over a record stream. The
// per-user/object sets are O(distinct), not O(records), so memory is
// bounded by the population, never the trace length.
struct InfoStats {
  struct PerPublisher {
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    std::uint64_t video_requests = 0;
    std::uint64_t image_requests = 0;
    std::unordered_set<std::uint32_t> users;
    std::unordered_set<std::uint64_t> objects;
  };
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::int64_t start_ms = 0;
  std::int64_t end_ms = 0;
  std::unordered_set<std::uint32_t> users;
  std::unordered_set<std::uint64_t> objects;
  std::map<std::uint32_t, PerPublisher> by_publisher;  // ordered for output

  void Add(const trace::LogRecord& r) {
    if (records == 0) {
      start_ms = end_ms = r.timestamp_ms;
    } else {
      start_ms = std::min(start_ms, r.timestamp_ms);
      end_ms = std::max(end_ms, r.timestamp_ms);
    }
    ++records;
    bytes += r.response_bytes;
    users.insert(r.user_id);
    objects.insert(r.url_hash);
    auto& pub = by_publisher[r.publisher_id];
    ++pub.records;
    pub.bytes += r.response_bytes;
    pub.users.insert(r.user_id);
    pub.objects.insert(r.url_hash);
    const auto cls = trace::ClassOf(r.file_type);
    if (cls == trace::ContentClass::kVideo) ++pub.video_requests;
    if (cls == trace::ContentClass::kImage) ++pub.image_requests;
  }
};

int CmdInfo(const std::string& path, int argc, char** argv) {
  util::Flags flags;
  flags.Parse(argc, argv);

  InfoStats stats;
  trace::TraceFileReader source(path);
  for (const auto* block = source.NextBlock(); block != nullptr;
       block = source.NextBlock()) {
    for (std::size_t i = 0; i < block->size(); ++i) stats.Add(block->Row(i));
  }

  std::cout << path << ": " << stats.records << " records, "
            << stats.users.size() << " users, " << stats.objects.size()
            << " objects, "
            << util::FormatBytes(static_cast<double>(stats.bytes))
            << " delivered, span "
            << util::FormatDuration(stats.end_ms - stats.start_ms) << "\n\n";
  std::cout << util::PadRight("publisher", 11) << util::PadLeft("records", 10)
            << util::PadLeft("users", 9) << util::PadLeft("objects", 9)
            << util::PadLeft("bytes", 11) << util::PadLeft("video%", 8)
            << util::PadLeft("image%", 8) << '\n';
  std::cout << std::string(66, '-') << '\n';
  for (const auto& [pub, sub] : stats.by_publisher) {
    const double n = static_cast<double>(sub.records);
    std::cout << util::PadRight(std::to_string(pub), 11)
              << util::PadLeft(util::FormatCount(static_cast<double>(sub.records)), 10)
              << util::PadLeft(
                     util::FormatCount(static_cast<double>(sub.users.size())), 9)
              << util::PadLeft(
                     util::FormatCount(static_cast<double>(sub.objects.size())),
                     9)
              << util::PadLeft(
                     util::FormatBytes(static_cast<double>(sub.bytes)), 11)
              << util::PadLeft(
                     util::FormatPercent(
                         n == 0.0 ? 0.0
                                  : static_cast<double>(sub.video_requests) / n,
                         1),
                     8)
              << util::PadLeft(
                     util::FormatPercent(
                         n == 0.0 ? 0.0
                                  : static_cast<double>(sub.image_requests) / n,
                         1),
                     8)
              << '\n';
  }
  return 0;
}

int CmdHead(const std::string& path, int argc, char** argv) {
  util::Flags flags;
  flags.DefineInt("n", 20, "records to print");
  flags.Parse(argc, argv);
  // Reads only as many blocks as the first --n rows span.
  trace::TraceFileReader source(path);
  std::cout << util::PadRight("time", 14) << util::PadRight("pub", 5)
            << util::PadRight("type", 6) << util::PadLeft("size", 11)
            << util::PadLeft("sent", 11) << util::PadLeft("code", 6)
            << util::PadLeft("cache", 7) << "  url_hash\n";
  std::cout << std::string(78, '-') << '\n';
  auto left = static_cast<std::size_t>(flags.GetInt("n"));
  while (left > 0) {
    const auto* block = source.NextBlock();
    if (block == nullptr) break;
    for (std::size_t i = 0; i < block->size() && left > 0; ++i, --left) {
      const trace::LogRecord r = block->Row(i);
      char hash[20];
      std::snprintf(hash, sizeof(hash), "%016llx",
                    static_cast<unsigned long long>(r.url_hash));
      std::cout << util::PadRight(util::FormatTimestamp(r.timestamp_ms), 14)
                << util::PadRight(std::to_string(r.publisher_id), 5)
                << util::PadRight(trace::ToString(r.file_type), 6)
                << util::PadLeft(
                       util::FormatBytes(static_cast<double>(r.object_size)),
                       11)
                << util::PadLeft(
                       util::FormatBytes(static_cast<double>(r.response_bytes)),
                       11)
                << util::PadLeft(std::to_string(r.response_code), 6)
                << util::PadLeft(trace::ToString(r.cache_status), 7) << "  "
                << hash << '\n';
    }
  }
  return 0;
}

int CmdToCsv(const std::string& in, const std::string& out) {
  trace::TraceFileReader source(in);
  std::ofstream stream(out);
  if (!stream) {
    std::cerr << "cannot open " << out << '\n';
    return 1;
  }
  const std::uint64_t written = trace::WriteCsv(source, stream);
  std::cout << "wrote " << written << " records to " << out << '\n';
  return 0;
}

int CmdToBin(const std::string& in, const std::string& out) {
  std::ifstream stream(in);
  if (!stream) {
    std::cerr << "cannot open " << in << '\n';
    return 1;
  }
  const auto trace = trace::ReadCsv(stream);
  trace::WriteV2File(trace, out);
  std::cout << "wrote " << trace.size() << " records to " << out << '\n';
  return 0;
}

int CmdFilter(const std::string& in, const std::string& out, int argc,
              char** argv) {
  util::Flags flags;
  flags.DefineInt("publisher", -1, "keep only this publisher id");
  flags.DefineString("class", "", "keep only this class (video/image/other)");
  flags.DefineInt("from-ms", -1, "keep records at/after this timestamp");
  flags.DefineInt("to-ms", -1, "keep records before this timestamp");
  flags.Parse(argc, argv);
  trace::TraceFileReader source(in);
  const std::int64_t pub = flags.GetInt("publisher");
  const std::string cls_name = flags.GetString("class");
  const std::int64_t from = flags.GetInt("from-ms");
  const std::int64_t to = flags.GetInt("to-ms");
  const bool use_class = !cls_name.empty();
  const trace::ContentClass cls =
      use_class ? trace::ContentClassFromString(cls_name)
                : trace::ContentClass::kOther;
  const auto keep = [&](const trace::LogRecord& r) {
    if (pub >= 0 && r.publisher_id != static_cast<std::uint32_t>(pub)) {
      return false;
    }
    if (use_class && trace::ClassOf(r.file_type) != cls) return false;
    if (from >= 0 && r.timestamp_ms < from) return false;
    if (to >= 0 && r.timestamp_ms >= to) return false;
    return true;
  };
  std::ofstream stream(out, std::ios::binary);
  if (!stream) {
    std::cerr << "cannot open " << out << '\n';
    return 1;
  }
  // Streams block by block: the kept rows go straight to the writer, so
  // memory stays bounded whatever the trace length.
  trace::TraceWriter writer(stream);
  std::uint64_t total = 0;
  for (const auto* block = source.NextBlock(); block != nullptr;
       block = source.NextBlock()) {
    for (std::size_t i = 0; i < block->size(); ++i) {
      const trace::LogRecord r = block->Row(i);
      if (keep(r)) writer.Add(r);
    }
    total += block->size();
  }
  writer.Finish();
  stream.close();
  if (stream.fail()) throw std::runtime_error("close failed: " + out);
  std::cout << "kept " << writer.written() << " / " << total
            << " records -> " << out << '\n';
  return 0;
}

int CmdSimulate(const std::string& out, int argc, char** argv) {
  util::Flags flags;
  flags.DefineString("spec", "",
                     "run this declarative scenario file (scenarios/*.toml) "
                     "instead of the paper study; --scale/--seed override "
                     "the spec, other config flags are rejected");
  flags.DefineDouble("scale", 0.05, "population scale");
  flags.DefineInt("seed", 42, "RNG seed");
  flags.DefineInt("threads", 0,
                  "worker threads (0 = hardware concurrency); the trace is "
                  "identical at any value");
  flags.DefineBool("peer-fill", false,
                   "serve edge misses from sibling data centers that hold "
                   "the object (epoch-snapshot lookups; see engine.h)");
  flags.DefineInt("epoch-min", 60,
                  "engine epoch length in minutes; trace-invariant, only "
                  "the peer-fill/origin split depends on it");
  flags.DefineInt("checkpoint-every", 0,
                  "snapshot the whole run every N epoch barriers (0 = off); "
                  "snapshots are trace-invariant and atomically committed");
  flags.DefineString("checkpoint-file", "",
                     "snapshot destination (default: <out>.ckpt)");
  flags.DefineString("resume", "",
                     "resume a killed run from this snapshot: the torn "
                     "output is truncated back to the snapshot's flushed "
                     "prefix and the run continues byte-identically");
  flags.DefineInt("synth-budget-mb", 0,
                  "per-site synth-table byte budget in MB (0 = profile "
                  "default, 256); catalogs/user tables past it switch to "
                  "lazy RNG-snapshot shards — trace-invariant");
  flags.DefineBool("energy-report", false,
                   "attach per-DC energy/dollar accounting ([energy] spec "
                   "table or defaults) and print the report after the run; "
                   "observation-only, the trace stays byte-identical");
  flags.Parse(argc, argv);
  util::SetLogLevel(util::LogLevel::kWarn);
  const std::int64_t epoch_min = flags.GetInt("epoch-min");
  if (epoch_min <= 0) {
    std::cerr << "--epoch-min must be > 0\n";
    return 2;
  }
  const std::int64_t every = flags.GetInt("checkpoint-every");
  if (every < 0) {
    std::cerr << "--checkpoint-every must be >= 0\n";
    return 2;
  }
  const std::string spec_path = flags.GetString("spec");
  std::optional<cdn::ScenarioSpec> spec;
  cdn::SimulatorConfig config;
  if (!spec_path.empty()) {
    // The scenario file owns the simulator config; only scale and seed may
    // be overridden from the command line (and the override feeds the spec
    // fingerprint, so a resume with different overrides fails loudly).
    for (const char* owned : {"peer-fill", "epoch-min", "synth-budget-mb"}) {
      if (flags.Provided(owned)) {
        std::cerr << "--" << owned
                  << " cannot be combined with --spec (the scenario file "
                     "owns the simulator config)\n";
        return 2;
      }
    }
    spec = cdn::ScenarioSpec::ParseFile(spec_path);
    if (flags.Provided("scale")) spec->scale = flags.GetDouble("scale");
    if (flags.Provided("seed")) {
      spec->seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
    }
    spec->Validate();
    config = spec->BuildConfig();
  } else {
    config.peer_fill = flags.GetBool("peer-fill");
    config.epoch_ms = epoch_min * 60'000;
  }

  std::string ckpt_path = flags.GetString("checkpoint-file");
  if (ckpt_path.empty()) ckpt_path = out + ".ckpt";
  const std::string resume_path = flags.GetString("resume");

  // Fresh runs write `out` from scratch; resumed runs recover the torn v2
  // file (ResumedTraceFile truncates past the snapshot's flushed prefix)
  // and re-attach the writer with its saved partial tail block.
  std::ofstream stream;
  std::optional<trace::TraceWriter> fresh_writer;
  std::optional<ckpt::Reader> snapshot;
  std::optional<trace::ResumedTraceFile> resumed;
  cdn::CheckpointOptions ckpt_options;
  ckpt_options.every_epochs = static_cast<std::uint64_t>(every);
  ckpt_options.path = ckpt_path;
  trace::TraceWriter* writer = nullptr;
  if (!resume_path.empty()) {
    snapshot.emplace(ckpt::ReadCheckpointFile(resume_path));
    resumed.emplace(out, *snapshot);
    writer = &resumed->writer();
    ckpt_options.resume = &*snapshot;
    std::cout << "resuming " << out << " at " << writer->written()
              << " records\n";
  } else {
    stream.open(out, std::ios::binary);
    if (!stream) {
      std::cerr << "cannot open " << out << '\n';
      return 1;
    }
    fresh_writer.emplace(stream);
    writer = &*fresh_writer;
  }
  ckpt_options.save_extra = [&](ckpt::Writer& w) { writer->SaveState(w); };

  // Energy accounting rides the run as a pure observer: it joins the
  // checkpoint (its section is chained ahead of the writer state above) but
  // cannot shape a record, so the trace and its digests are unchanged.
  std::optional<energy::EnergyAccumulator> energy_acc;
  if (flags.GetBool("energy-report")) {
    energy_acc.emplace();
    ckpt_options = energy::AttachEnergy(*energy_acc, config, ckpt_options);
  }

  // Progress/ETA on the checkpoint cadence: each committed snapshot reports
  // how far into the simulated week the run is and extrapolates the wall
  // time remaining. Long scale>=1 runs are no longer silent.
  const std::uint64_t total_epochs = static_cast<std::uint64_t>(
      (util::kMillisPerWeek + config.epoch_ms - 1) / config.epoch_ms);
  const auto started = std::chrono::steady_clock::now();
  if (every > 0) {
    ckpt_options.after_save = [&](std::uint64_t barriers_done) {
      const double elapsed_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started)
              .count();
      const double frac = total_epochs == 0
                              ? 1.0
                              : static_cast<double>(barriers_done) /
                                    static_cast<double>(total_epochs);
      const double eta_s =
          frac > 0.0 ? elapsed_s * (1.0 - frac) / frac : 0.0;
      std::cerr << "checkpoint @ epoch " << barriers_done << "/"
                << total_epochs << " (" << util::FormatPercent(frac, 0)
                << "), " << writer->written() << " records, elapsed "
                << static_cast<std::uint64_t>(elapsed_s) << "s, eta "
                << static_cast<std::uint64_t>(eta_s) << "s\n";
      return true;
    };
  }

  trace::WriterSink sink(*writer);
  cdn::ScenarioStreamResult result;
  if (spec) {
    result = cdn::StreamScenario(*spec, config, sink,
                                 static_cast<int>(flags.GetInt("threads")),
                                 ckpt_options);
  } else {
    auto sites = synth::SiteProfile::PaperAdultSites(flags.GetDouble("scale"));
    const std::int64_t budget_mb = flags.GetInt("synth-budget-mb");
    if (budget_mb < 0) {
      std::cerr << "--synth-budget-mb must be >= 0\n";
      return 2;
    }
    if (budget_mb > 0) {
      for (auto& site : sites) {
        site.synth_table_budget_bytes =
            static_cast<std::uint64_t>(budget_mb) << 20;
      }
    }
    result = cdn::StreamScenario(
        sites, config, static_cast<std::uint64_t>(flags.GetInt("seed")), sink,
        static_cast<int>(flags.GetInt("threads")), ckpt_options);
  }
  writer->Finish();

  std::cout << "simulated " << writer->written() << " records -> " << out
            << " (v2)\n\n";
  std::cout << util::PadRight("site", 8) << util::PadLeft("records", 10)
            << util::PadLeft("edge-hit", 10) << util::PadLeft("origin", 11)
            << util::PadLeft("peer", 10) << '\n';
  std::cout << std::string(49, '-') << '\n';
  for (std::size_t i = 0; i < result.site_results.size(); ++i) {
    const auto& r = result.site_results[i];
    std::cout << util::PadRight(
                     result.registry.Get(static_cast<std::uint32_t>(i)).name,
                     8)
              << util::PadLeft(util::FormatCount(static_cast<double>(r.records)),
                               10)
              << util::PadLeft(util::FormatPercent(r.edge_stats.HitRatio(), 1),
                               10)
              << util::PadLeft(
                     util::FormatBytes(static_cast<double>(r.origin.bytes)), 11)
              << util::PadLeft(
                     util::FormatBytes(static_cast<double>(r.peer_bytes)), 10)
              << '\n';
  }
  const auto& t = result.totals;
  std::cout << "\ntotals: edge hit ratio "
            << util::FormatPercent(t.edge_stats.HitRatio(), 1)
            << ", origin "
            << util::FormatBytes(static_cast<double>(t.origin.bytes))
            << ", browser-absorbed " << t.browser_fresh_hits
            << " requests, " << t.revalidations << " revalidations\n";

  if (energy_acc) {
    const energy::EnergyModel model(spec ? spec->energy : cdn::EnergySpec{});
    const energy::EnergyReport report = energy_acc->Report(model);
    std::cout << "\nenergy (" << report.epochs << " epochs, "
              << (report.span_ms / 60'000) << " simulated minutes)\n";
    std::cout << util::PadRight("dc", 4) << util::PadLeft("served", 11)
              << util::PadLeft("duty", 7) << util::PadLeft("server", 10)
              << util::PadLeft("network", 10) << util::PadLeft("storage", 10)
              << util::PadLeft("kWh", 9) << util::PadLeft("USD", 9) << '\n';
    std::cout << std::string(70, '-') << '\n';
    for (const auto& dc : report.dcs) {
      const auto& e = dc.energy;
      std::cout << util::PadRight("dc" + std::to_string(dc.dc), 4)
                << util::PadLeft(util::FormatBytes(
                                     static_cast<double>(dc.served_bytes)),
                                 11)
                << util::PadLeft(util::FormatPercent(dc.duty, 1), 7)
                << util::PadLeft(util::FormatCount(e.server_j) + "J", 10)
                << util::PadLeft(util::FormatCount(e.network_j) + "J", 10)
                << util::PadLeft(util::FormatCount(e.storage_j) + "J", 10)
                << util::PadLeft(util::FormatCount(e.TotalKwh()), 9)
                << util::PadLeft(util::FormatCount(e.TotalUsd()), 9) << '\n';
    }
    const auto& te = report.total;
    std::cout << "total: " << util::FormatCount(te.TotalJoules())
              << "J = " << util::FormatCount(te.TotalKwh()) << " kWh, $"
              << util::FormatCount(te.TotalUsd()) << " ($"
              << util::FormatCount(te.electricity_usd) << " electricity + $"
              << util::FormatCount(te.transit_usd) << " transit)\n";
  }
  return 0;
}

int CmdVerify(const std::string& path) {
  // Never throws on corruption: the scan stops at the first defect and
  // reports the intact prefix — the same walk crash recovery truncates to.
  const auto scan = trace::ScanV2File(path);
  std::cout << path << ": " << scan.valid_records << " valid records in "
            << scan.valid_blocks << " intact blocks, data ends at byte "
            << scan.data_end_offset << '\n';
  if (scan.header_count) {
    std::cout << "header count: " << *scan.header_count << '\n';
  } else {
    std::cout << "header count: unknown (non-seekable writer)\n";
  }
  if (!scan.error.empty()) {
    std::cout << "CORRUPT: " << scan.error << '\n'
              << "last valid record ends at byte offset "
              << scan.data_end_offset << '\n';
    return 1;
  }
  if (!scan.terminated) {
    std::cout << "TRUNCATED: no terminator/trailer (writer crashed before "
                 "Finish, or the stream is still being written)\n";
    return 1;
  }
  std::cout << "OK: stream is intact and properly terminated\n";
  return 0;
}

// Section wrapping the StreamingAnalysis blob in an analyze checkpoint.
constexpr char kAnalysisSection[] = "analysis.suite";
constexpr std::uint32_t kAnalysisSectionVersion = 1;

int CmdAnalyze(const std::string& in, int argc, char** argv) {
  util::Flags flags;
  flags.DefineString("spec", "",
                     "take the publisher registry from this scenario file "
                     "(for traces produced by simulate --spec) instead of "
                     "the default paper-study sites");
  flags.DefineString("report", "", "write the report here instead of stdout");
  flags.DefineInt("threads", 0,
                  "worker threads for accumulation, finalization and trend "
                  "clustering (0 = hardware concurrency); the report is "
                  "identical at any value");
  flags.DefineBool("no-trends", false,
                   "skip trend clustering (Figs. 8-10); it is O(n^2) in "
                   "qualifying objects");
  flags.DefineInt("checkpoint-every", 0,
                  "checkpoint the accumulator state every N record blocks "
                  "(0 = off); atomically committed");
  flags.DefineString("checkpoint-file", "",
                     "checkpoint destination (default: <trace>.analysis.ckpt)");
  flags.DefineString("resume", "",
                     "resume from this checkpoint: the trace is re-opened "
                     "and exactly records-consumed records are skipped");
  flags.Parse(argc, argv);
  util::SetLogLevel(util::LogLevel::kWarn);
  const std::int64_t every = flags.GetInt("checkpoint-every");
  if (every < 0) {
    std::cerr << "--checkpoint-every must be >= 0\n";
    return 2;
  }
  std::string ckpt_path = flags.GetString("checkpoint-file");
  if (ckpt_path.empty()) ckpt_path = in + ".analysis.ckpt";

  analysis::SuiteConfig config;
  config.run_trend_clusters = !flags.GetBool("no-trends");
  config.threads = static_cast<int>(flags.GetInt("threads"));

  // ATLAS traces carry the publisher ids their producer registered: the
  // paper-study sites in PaperSites order by default, or a scenario file's
  // sites in [[site]] order for simulate --spec output. Unknown ids are
  // counted by the cursor but not analyzed.
  trace::PublisherRegistry registry;
  const std::string spec_path = flags.GetString("spec");
  if (spec_path.empty()) {
    registry = trace::PublisherRegistry::PaperSites();
  } else {
    const auto spec = cdn::ScenarioSpec::ParseFile(spec_path);
    for (const auto& profile : spec.BuildProfiles()) {
      registry.Register(profile.name, profile.kind);
    }
  }
  analysis::StreamingAnalysis stream(registry, config);

  std::uint64_t skip = 0;
  const std::string resume_path = flags.GetString("resume");
  if (!resume_path.empty()) {
    auto snapshot = ckpt::ReadCheckpointFile(resume_path);
    snapshot.BeginSection(kAnalysisSection, kAnalysisSectionVersion);
    stream.RestoreState(snapshot);
    snapshot.EndSection();
    skip = stream.records_consumed();
    std::cout << "resuming analysis at record " << skip << '\n';
  }

  // SoA batch path: one decoded block at a time through the demultiplexer.
  trace::TraceFileReader source(in);
  std::uint64_t blocks = 0;
  for (const auto* block = source.NextBlock(); block != nullptr;
       block = source.NextBlock()) {
    std::size_t first_row = 0;
    if (skip > 0) {
      // The cursor contract: records the checkpoint already consumed are
      // skipped, never re-added (re-adding would double-count). A resume
      // point inside a block consumes only the block's unseen suffix.
      const auto drop = std::min<std::uint64_t>(
          skip, static_cast<std::uint64_t>(block->size()));
      first_row = static_cast<std::size_t>(drop);
      skip -= drop;
      if (first_row >= block->size()) continue;
    }
    stream.AddBlock(*block, first_row);
    ++blocks;
    if (every > 0 && blocks % static_cast<std::uint64_t>(every) == 0) {
      ckpt::WriteCheckpointFile(ckpt_path, [&](ckpt::Writer& w) {
        w.BeginSection(kAnalysisSection, kAnalysisSectionVersion);
        stream.SaveState(w);
        w.EndSection();
      });
    }
  }
  if (skip > 0) {
    std::cerr << "error: " << in << " holds fewer records than the "
              << "checkpoint consumed (wrong trace for this checkpoint?)\n";
    return 1;
  }
  const std::uint64_t consumed = stream.records_consumed();

  analysis::AnalysisSuite suite(stream.Finalize());
  const std::string report_path = flags.GetString("report");
  if (report_path.empty()) {
    suite.Render(std::cout);
  } else {
    std::ofstream report(report_path);
    if (!report) {
      std::cerr << "cannot open " << report_path << '\n';
      return 1;
    }
    suite.Render(report);
    report.flush();
    if (!report) {
      std::cerr << "error writing " << report_path << '\n';
      return 1;
    }
    std::cout << "analyzed " << consumed << " records -> " << report_path
              << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage(argv[0]);
  const std::string cmd = argv[1];
  try {
    if (cmd == "info") return CmdInfo(argv[2], argc - 2, argv + 2);
    if (cmd == "head") return CmdHead(argv[2], argc - 2, argv + 2);
    if (cmd == "tocsv" && argc >= 4) return CmdToCsv(argv[2], argv[3]);
    if (cmd == "tobin" && argc >= 4) return CmdToBin(argv[2], argv[3]);
    if (cmd == "filter" && argc >= 4) {
      return CmdFilter(argv[2], argv[3], argc - 3, argv + 3);
    }
    if (cmd == "simulate") return CmdSimulate(argv[2], argc - 2, argv + 2);
    if (cmd == "verify") return CmdVerify(argv[2]);
    if (cmd == "analyze") return CmdAnalyze(argv[2], argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return Usage(argv[0]);
}
