#include "pipeline.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/suite.h"
#include "cdn/engine.h"
#include "cdn/scenario.h"
#include "ckpt/checkpoint.h"
#include "synth/workload.h"
#include "trace/sink.h"
#include "trace/stream.h"
#include "util/hash.h"
#include "util/mem.h"
#include "util/rng.h"

namespace atlas::bench {
namespace {

// Appended to the killed run's file, as a crash during a block write would
// leave it; recovery must truncate it away.
constexpr char kTornTail[] = "TORN-TAIL-GARBAGE";

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// StreamScenario's logical-request calibration, so the synth probe generates
// exactly the events the scenario run did (the cdn probe's record count
// checks that it does).
std::uint64_t LogicalBudget(const synth::WorkloadGenerator& generator,
                            const synth::SiteProfile& profile,
                            const cdn::SimulatorConfig& config) {
  const double inflation =
      generator.EstimateRecordsPerRequest(config.chunk_bytes);
  return static_cast<std::uint64_t>(std::max(
      1.0, static_cast<double>(profile.total_requests) / inflation));
}

// Observes one StreamScenario call from outside: the engine writes into this
// sink wrapper, and the epoch observer and after_save hook report here.
// Untraced, it keeps only the two instants the end-to-end metrics need, the
// first record and the first barrier. Traced, it tiles the call into
// top-level spans: scenario.setup up to the first record, then cdn.epoch
// between barriers, ckpt.save from a barrier to its committed snapshot, and
// cdn.assemble from the last barrier to the return; each sink write is a
// trace.write child of the span it falls in.
class ScenarioHooks final : public trace::RecordSink {
 public:
  ScenarioHooks(trace::RecordSink& inner, Tracer* tracer,
                Clock::time_point call)
      : inner_(inner), tracer_(tracer), call_(call) {}

  void Write(std::span<const trace::LogRecord> records) override {
    if (tracer_ == nullptr) {
      if (!first_record_) first_record_ = Clock::now();
      inner_.Write(records);
      return;
    }
    const auto start = Clock::now();
    if (!first_record_) first_record_ = start;
    Start(start);
    inner_.Write(records);
    tracer_->Add("trace.write", start, Clock::now(), open_);
  }

  // Installs the epoch observer. It is execution-only (outside the engine
  // fingerprint), so neither the records nor the checkpoints change.
  cdn::SimulatorConfig Observe(cdn::SimulatorConfig config) {
    config.epoch_observer = [this](const cdn::EpochSample&) {
      const auto now = Clock::now();
      if (!first_barrier_) first_barrier_ = now;
      if (tracer_ == nullptr) return;
      if (!Start(now)) tracer_->Close(open_, now);
      open_ = tracer_->Open("cdn.epoch", now);
    };
    return config;
  }

  // From after_save: the snapshot at `path` has just been committed.
  void Saved(const std::string& path) {
    if (tracer_ == nullptr) return;
    const auto now = Clock::now();
    snapshot_bytes_.push_back(std::filesystem::file_size(path));
    tracer_->Close(open_, now, "ckpt.save");
    open_ = tracer_->Open("cdn.epoch", now);
  }

  // StreamScenario returned.
  void Returned() {
    const auto now = Clock::now();
    if (!first_record_) first_record_ = now;
    if (tracer_ == nullptr) return;
    if (!Start(now)) tracer_->Close(open_, now, "cdn.assemble");
  }

  Clock::time_point first_record() const { return *first_record_; }
  Clock::time_point first_barrier() const {
    return first_barrier_.value_or(*first_record_);
  }
  const std::vector<std::uint64_t>& snapshot_bytes() const {
    return snapshot_bytes_;
  }

 private:
  // Closes scenario.setup at `now` and opens the first epoch, once; returns
  // whether it did.
  bool Start(Clock::time_point now) {
    if (open_ >= 0) return false;
    tracer_->Add("scenario.setup", call_, now);
    open_ = tracer_->Open("cdn.epoch", now);
    return true;
  }

  trace::RecordSink& inner_;
  Tracer* tracer_;
  Clock::time_point call_;
  std::optional<Clock::time_point> first_record_;
  std::optional<Clock::time_point> first_barrier_;
  int open_ = -1;  // the top-level span in progress
  std::vector<std::uint64_t> snapshot_bytes_;
};

void AddSpan(Tracer* tracer, std::string_view name, Clock::time_point start) {
  if (tracer != nullptr) tracer->Add(name, start, Clock::now());
}

void FinishTrace(trace::TraceWriter& writer, std::ofstream& out,
                 const std::string& path, Tracer* tracer) {
  const auto start = Clock::now();
  writer.Finish();
  out.close();
  if (!out) throw std::runtime_error("error writing " + path);
  AddSpan(tracer, "trace.finish", start);
}

// FNV-1a 64 of a file's bytes: util::Fnv1a64 over a read-only mapping.
std::uint64_t FileDigest(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("cannot open " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot stat " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return util::Fnv1a64({});
  }
  void* data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (data == MAP_FAILED) throw std::runtime_error("cannot map " + path);
  ::madvise(data, size, MADV_SEQUENTIAL);
  const std::uint64_t digest =
      util::Fnv1a64(std::string_view(static_cast<const char*>(data), size));
  ::munmap(data, size);
  return digest;
}

void CheckRecords(const cdn::ScenarioStreamResult& result,
                  std::uint64_t written, Rep& rep) {
  rep.totals = result.totals;
  if (result.totals.records != written) {
    rep.problems.push_back("engine counted " +
                           std::to_string(result.totals.records) +
                           " records, the trace holds " +
                           std::to_string(written));
  }
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kAll = {
      {"paper_week", Kind::kPaperWeek, "paper_week.toml", 3},
      {"sim_week", Kind::kSimWeek, "sim_week.toml", 5},
      {"replay_analyze", Kind::kReplayAnalyze, "sim_week.toml", 7},
      {"durable_week", Kind::kDurableWeek, "durable_week.toml", 3},
  };
  return kAll;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Pipeline::Pipeline(const Workload& workload, RunConfig config)
    : workload_(workload),
      config_(std::move(config)),
      spec_(LoadSpec(nullptr)),
      trace_path_(config_.dir + "/" + std::string(workload.name) + ".v2"),
      ckpt_path_(trace_path_ + ".ckpt"),
      input_path_(config_.dir + "/" + std::string(workload.name) +
                  ".input.v2") {}

Pipeline::~Pipeline() {
  RemoveOutputs();
  std::remove(input_path_.c_str());
}

void Pipeline::RemoveOutputs() const {
  for (const std::string& path :
       {trace_path_, ckpt_path_, ckpt_path_ + ".tmp"}) {
    std::remove(path.c_str());
  }
}

cdn::ScenarioSpec Pipeline::LoadSpec(Tracer* tracer) const {
  const auto start = Clock::now();
  cdn::ScenarioSpec spec = cdn::ScenarioSpec::ParseFile(config_.spec_path);
  spec.seed = config_.seed;
  if (config_.scale > 0.0) spec.scale = config_.scale;
  spec.Validate();
  AddSpan(tracer, "spec.parse", start);
  return spec;
}

template <typename Body>
Rep Pipeline::Measure(Body&& body) {
  RemoveOutputs();
  Rep rep;
  util::ResetPeakRss();
  const double cpu_start = CpuSeconds();
  const auto start = Clock::now();
  body(start, rep);
  rep.wall_s = Seconds(start, Clock::now());
  rep.cpu_s = CpuSeconds() - cpu_start;
  rep.peak_rss_mb = static_cast<double>(util::PeakRssBytes()) / 1e6;
  return rep;
}

void Pipeline::DigestTrace(const std::string& path, Rep& rep) const {
  rep.trace_bytes = std::filesystem::file_size(path);
  rep.trace_digest = FileDigest(path);
}

Rep Pipeline::PrepareInput(Tracer* tracer) {
  Rep rep = Measure([&](Clock::time_point start, Rep& r) {
    Simulate(input_path_, start, tracer, r);
  });
  DigestTrace(input_path_, rep);
  input_records_ = rep.records;
  return rep;
}

Rep Pipeline::RunUninterrupted() {
  Rep rep = Measure([&](Clock::time_point start, Rep& r) {
    Simulate(trace_path_, start, nullptr, r);
  });
  DigestTrace(trace_path_, rep);
  return rep;
}

Rep Pipeline::Run(Tracer* tracer) {
  std::string report;
  Rep rep = Measure([&](Clock::time_point start, Rep& r) {
    switch (workload_.kind) {
      case Kind::kPaperWeek:
        Simulate(trace_path_, start, tracer, r);
        report = Analyze(trace_path_, /*trends=*/true, start, tracer, r);
        break;
      case Kind::kSimWeek:
        Simulate(trace_path_, start, tracer, r);
        break;
      case Kind::kReplayAnalyze:
        report = Analyze(input_path_, /*trends=*/false, start, tracer, r);
        break;
      case Kind::kDurableWeek:
        SimulateDurable(start, tracer, r);
        break;
    }
  });
  if (workload_.kind != Kind::kReplayAnalyze) DigestTrace(trace_path_, rep);
  if (!report.empty()) rep.report_digest = util::Fnv1a64(report);
  return rep;
}

// spec -> v2 file, as `atlas-trace simulate <path> --spec F --seed N` runs.
void Pipeline::Simulate(const std::string& path, Clock::time_point start,
                        Tracer* tracer, Rep& rep) {
  const cdn::ScenarioSpec spec = LoadSpec(tracer);
  const auto call = Clock::now();
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path);
  trace::TraceWriter writer(out);
  trace::WriterSink sink(writer);
  ScenarioHooks hooks(sink, tracer, call);
  cdn::SimulatorConfig config = spec.BuildConfig();
  if (tracer != nullptr) config = hooks.Observe(std::move(config));
  const auto result = cdn::StreamScenario(spec, config, hooks, config_.threads,
                                          cdn::CheckpointOptions{});
  hooks.Returned();
  FinishTrace(writer, out, path, tracer);
  rep.setup_s = Seconds(start, hooks.first_record());
  rep.records = writer.written();
  CheckRecords(result, rep.records, rep);
}

// sim_week with a snapshot every kCheckpointEvery barriers, killed in
// process after the snapshot at kKillAfterBarrier, then recovered (torn
// tail truncated) and resumed to completion, as `atlas-trace simulate
// --checkpoint-every N` followed by `--resume` runs.
void Pipeline::SimulateDurable(Clock::time_point start, Tracer* tracer,
                               Rep& rep) {
  const cdn::ScenarioSpec spec = LoadSpec(tracer);
  const auto call = Clock::now();
  const cdn::SimulatorConfig config = spec.BuildConfig();
  cdn::CheckpointOptions opts;
  opts.every_epochs = kCheckpointEvery;
  opts.path = ckpt_path_;
  Clock::time_point killed;
  {
    std::ofstream out(trace_path_, std::ios::binary);
    if (!out) throw std::runtime_error("cannot open " + trace_path_);
    trace::TraceWriter writer(out);
    trace::WriterSink sink(writer);
    ScenarioHooks hooks(sink, tracer, call);
    opts.save_extra = [&writer](ckpt::Writer& w) { writer.SaveState(w); };
    opts.after_save = [&](std::uint64_t barriers_done) {
      hooks.Saved(ckpt_path_);
      return barriers_done < kKillAfterBarrier;
    };
    cdn::StreamScenario(spec,
                        tracer != nullptr ? hooks.Observe(config) : config,
                        hooks, config_.threads, opts);
    hooks.Returned();
    killed = Clock::now();
    rep.setup_s = Seconds(start, hooks.first_record());
    rep.snapshot_bytes = hooks.snapshot_bytes();
  }  // killed: the writer is abandoned without Finish(), as in a crash
  {
    std::ofstream torn(trace_path_, std::ios::binary | std::ios::app);
    torn << kTornTail;
  }
  AddSpan(tracer, "trace.tear", killed);

  const auto recover = Clock::now();
  ckpt::Reader snapshot = ckpt::ReadCheckpointFile(ckpt_path_);
  AddSpan(tracer, "ckpt.restore", recover);
  Clock::time_point finish;
  {
    const auto truncate = Clock::now();
    trace::ResumedTraceFile resumed(trace_path_, snapshot);
    AddSpan(tracer, "trace.recover", truncate);
    const auto resume = Clock::now();
    trace::WriterSink sink(resumed.writer());
    ScenarioHooks hooks(sink, tracer, resume);
    opts.save_extra = [&resumed](ckpt::Writer& w) {
      resumed.writer().SaveState(w);
    };
    opts.after_save = [&](std::uint64_t) {
      hooks.Saved(ckpt_path_);
      return true;
    };
    opts.resume = &snapshot;
    const auto result = cdn::StreamScenario(spec, hooks.Observe(config), hooks,
                                            config_.threads, opts);
    hooks.Returned();
    finish = Clock::now();
    resumed.writer().Finish();
    rep.recovery_s = Seconds(recover, hooks.first_barrier());
    rep.records = resumed.writer().written();
    const auto& more = hooks.snapshot_bytes();
    rep.snapshot_bytes.insert(rep.snapshot_bytes.end(), more.begin(),
                              more.end());
    CheckRecords(result, rep.records, rep);
  }  // closes the resumed file
  AddSpan(tracer, "trace.finish", finish);
}

// v2 file -> report, as `atlas-trace analyze <path> --spec F` runs.
std::string Pipeline::Analyze(const std::string& path, bool trends,
                              Clock::time_point start, Tracer* tracer,
                              Rep& rep) {
  const cdn::ScenarioSpec spec = LoadSpec(tracer);
  const auto setup = Clock::now();
  trace::PublisherRegistry registry;
  for (const auto& profile : spec.BuildProfiles()) {
    registry.Register(profile.name, profile.kind);
  }
  analysis::SuiteConfig suite_config;
  suite_config.run_trend_clusters = trends;
  suite_config.threads = config_.threads;
  analysis::StreamingAnalysis stream(registry, suite_config);
  trace::TraceFileReader source(path);
  AddSpan(tracer, "analysis.setup", setup);

  bool first = true;
  for (;;) {
    const auto read = Clock::now();
    const trace::RecordBlock* block = source.NextBlock();
    const auto decoded = Clock::now();
    if (tracer != nullptr) tracer->Add("trace.read", read, decoded);
    if (first && workload_.kind == Kind::kReplayAnalyze) {
      rep.setup_s = Seconds(start, decoded);
    }
    first = false;
    if (block == nullptr) break;
    stream.AddBlock(*block);
    AddSpan(tracer, "analysis.accumulate", decoded);
  }
  const std::uint64_t analyzed = stream.records_consumed();
  const std::uint64_t expected =
      workload_.kind == Kind::kReplayAnalyze ? input_records_ : rep.records;
  if (analyzed != expected) {
    rep.problems.push_back("analyzed " + std::to_string(analyzed) +
                           " records, expected " + std::to_string(expected));
  }
  rep.records = analyzed;

  const auto finalize = Clock::now();
  analysis::AnalysisSuite suite(stream.Finalize());
  AddSpan(tracer, "analysis.finalize", finalize);
  const auto render = Clock::now();
  std::ostringstream report;
  suite.Render(report);
  AddSpan(tracer, "analysis.render", render);
  for (const auto& site : suite.sites()) {
    for (const auto* panel : {&site.video_trends, &site.image_trends}) {
      if (*panel) rep.clustered_objects.push_back((*panel)->clustered_objects);
    }
  }
  return report.str();
}

ReadBack Pipeline::ReadBackTrace(Tracer& tracer) const {
  ReadBack out;
  trace::TraceFileReader source(trace_path_);
  for (;;) {
    const auto start = Clock::now();
    const trace::RecordBlock* block = source.NextBlock();
    tracer.Add("trace.read", start, Clock::now());
    if (block == nullptr) break;
    ++out.blocks;
    out.records += block->size();
  }
  return out;
}

Probes Pipeline::RunProbes(Tracer& tracer) const {
  Probes p;
  const auto profiles = spec_.BuildProfiles();
  const cdn::SimulatorConfig config = spec_.BuildConfig();
  trace::PublisherRegistry registry;
  util::Rng seeder(spec_.seed);  // StreamScenario's per-site seed plan
  std::vector<std::uint64_t> seeds;
  std::vector<std::uint64_t> budgets;
  std::vector<std::unique_ptr<synth::WorkloadGenerator>> generators;
  std::vector<std::vector<synth::RequestEvent>> events;
  for (const auto& profile : profiles) {
    seeds.push_back(seeder.Next());
    const auto setup = Clock::now();
    generators.push_back(
        std::make_unique<synth::WorkloadGenerator>(profile, seeds.back()));
    const auto generate = Clock::now();
    budgets.push_back(LogicalBudget(*generators.back(), profile, config));
    events.push_back(
        generators.back()->Generate(budgets.back(), config_.threads));
    const auto done = Clock::now();
    tracer.Add("synth.setup", setup, generate);
    tracer.Add("synth.generate", generate, done);
    p.synth_setup_s += Seconds(setup, generate);
    p.synth_generate_s += Seconds(generate, done);
    p.events += events.back().size();
  }
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    synth::WorkloadGenerator generator(profiles[i], seeds[i]);
    const auto start = Clock::now();
    const auto one_thread = generator.Generate(budgets[i], 1);
    const auto done = Clock::now();
    tracer.Add("synth.generate_1t", start, done);
    p.synth_generate_1t_s += Seconds(start, done);
    if (one_thread.size() != events[i].size()) {
      throw std::runtime_error("synth probe: one-thread generation differs");
    }
  }

  std::vector<cdn::SiteJob> jobs;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    jobs.push_back({generators[i].get(), &events[i],
                    registry.Register(profiles[i].name, profiles[i].kind)});
  }
  trace::CountingSink sink;
  const auto run = Clock::now();
  cdn::RunSharded(jobs, config, sink, config_.threads);
  const auto run_1t = Clock::now();
  trace::CountingSink sink_1t;
  cdn::RunSharded(jobs, config, sink_1t, 1);
  const auto done = Clock::now();
  tracer.Add("cdn.run", run, run_1t);
  tracer.Add("cdn.run_1t", run_1t, done);
  p.cdn_run_s = Seconds(run, run_1t);
  p.cdn_run_1t_s = Seconds(run_1t, done);
  p.cdn_records = sink.records();
  if (sink_1t.records() != sink.records()) {
    throw std::runtime_error("cdn probe: one-thread run differs");
  }
  return p;
}

}  // namespace atlas::bench
