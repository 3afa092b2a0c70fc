#include "run.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/time.h"

namespace atlas::bench {
namespace {

// What every rep must reproduce: a pinned golden, or else the first value
// this run saw.
class Expectation {
 public:
  Expectation(std::string what, bool hex) : what_(std::move(what)), hex_(hex) {}

  void Pin(std::optional<std::uint64_t> golden) { want_ = golden; }

  void Check(std::uint64_t got, Rep& rep) {
    if (!want_) {
      want_ = got;
    } else if (*want_ != got) {
      rep.problems.push_back(what_ + " " + Format(got) + ", expected " +
                             Format(*want_));
    }
  }

  const std::optional<std::uint64_t>& value() const { return want_; }

 private:
  std::string Format(std::uint64_t v) const {
    return hex_ ? Hex(v) : std::to_string(v);
  }

  std::string what_;
  bool hex_;
  std::optional<std::uint64_t> want_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<double> Millis(std::vector<double> seconds) {
  for (double& s : seconds) s *= 1e3;
  return seconds;
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

// Per-layer metrics from the traced rep, replay_analyze's input run, the
// read-back and the probes. A layer a workload does not run reads 0.
std::vector<Metric> LayerMetrics(const Workload& workload, const Rep& traced,
                                 const WorkloadRun& run, const Rep& simulated,
                                 const std::optional<ReadBack>& readback,
                                 const Probes& probes, double overhead) {
  std::vector<Metric> m;
  const auto add = [&](const char* name, const char* unit, double value) {
    m.push_back({name, unit, {value}});
  };
  const double wall = traced.wall_s;
  const Tracer& spans = run.rep_spans;
  // replay_analyze simulates only while preparing its input.
  const Tracer& sim_spans = workload.kind == Kind::kReplayAnalyze
                                ? run.input_spans
                                : run.rep_spans;

  add("synth.setup_s", "s", probes.synth_setup_s);
  add("synth.generate_s", "s", probes.synth_generate_s);
  add("synth.generate_1t_s", "s", probes.synth_generate_1t_s);
  add("synth.events", "count", static_cast<double>(probes.events));
  add("synth.events_per_s", "events/s",
      Ratio(static_cast<double>(probes.events), probes.synth_generate_s));

  const auto epochs = Millis(sim_spans.Durations("cdn.epoch"));
  const cdn::SimulatorResult& totals = simulated.totals;
  add("cdn.epochs", "count", static_cast<double>(epochs.size()));
  add("cdn.epoch_p50_ms", "ms", Percentile(epochs, 0.5));
  add("cdn.epoch_p90_ms", "ms", Percentile(epochs, 0.9));
  add("cdn.epoch_max_ms", "ms", Max(epochs));
  add("cdn.run_s", "s", probes.cdn_run_s);
  add("cdn.run_1t_s", "s", probes.cdn_run_1t_s);
  add("cdn.speedup", "ratio", Ratio(probes.cdn_run_1t_s, probes.cdn_run_s));
  add("cdn.records", "count", static_cast<double>(totals.records));
  add("cdn.edge_hit_ratio", "ratio", totals.edge_stats.HitRatio());
  add("cdn.peer_byte_share", "ratio",
      Ratio(static_cast<double>(totals.peer_bytes),
            static_cast<double>(totals.edge_stats.hit_bytes +
                                totals.edge_stats.miss_bytes)));
  add("cdn.origin_gb", "GB", static_cast<double>(totals.origin.bytes) / 1e9);

  const double write_s =
      sim_spans.Total("trace.write") + sim_spans.Total("trace.finish");
  const double trace_mb = static_cast<double>(simulated.trace_bytes) / 1e6;
  add("trace.write_s", "s", write_s);
  add("trace.write_calls", "count",
      static_cast<double>(sim_spans.Durations("trace.write").size()));
  add("trace.bytes", "B", static_cast<double>(simulated.trace_bytes));
  add("trace.write_mb_per_s", "MB/s", Ratio(trace_mb, write_s));
  // Reads: the analysis loop's NextBlock calls, or for a simulate-only
  // workload the read-back of the trace its rep wrote.
  const double read_s = readback ? run.probe_spans.Total("trace.read")
                                 : spans.Total("trace.read");
  const std::size_t blocks =
      readback ? readback->blocks
               : spans.Durations("analysis.accumulate").size();
  add("trace.read_s", "s", read_s);
  add("trace.blocks", "count", static_cast<double>(blocks));
  add("trace.read_mb_per_s", "MB/s", Ratio(trace_mb, read_s));

  const bool analyzes = workload.kind == Kind::kPaperWeek ||
                        workload.kind == Kind::kReplayAnalyze;
  const double analyzed = analyzes ? static_cast<double>(traced.records) : 0.0;
  const double accumulate_s = spans.Total("analysis.accumulate");
  const double finalize_s = spans.Total("analysis.finalize");
  const double render_s = spans.Total("analysis.render");
  add("analysis.records", "count", analyzed);
  add("analysis.accumulate_s", "s", accumulate_s);
  add("analysis.ns_per_record", "ns", Ratio(accumulate_s * 1e9, analyzed));
  add("analysis.records_per_s", "rec/s", Ratio(analyzed, accumulate_s));
  add("analysis.finalize_s", "s", finalize_s);
  add("analysis.render_s", "s", render_s);
  add("analysis.accumulate_share", "ratio", Ratio(accumulate_s, wall));
  add("analysis.finalize_share", "ratio", Ratio(finalize_s, wall));
  add("analysis.render_share", "ratio", Ratio(render_s, wall));

  // DTW runs over full 168-hour series (no Sakoe-Chiba band by default),
  // so every pair fills a 168 x 168 cost matrix.
  double objects = 0.0;
  double pairs = 0.0;
  for (const std::size_t count : traced.clustered_objects) {
    const auto n = static_cast<double>(count);
    objects += n;
    if (count > 1) pairs += n * (n - 1.0) / 2.0;
  }
  const double cells = pairs * util::kHoursPerWeek * util::kHoursPerWeek;
  add("cluster.objects", "count", objects);
  add("cluster.dtw_pairs", "count", pairs);
  add("cluster.dtw_cells", "count", cells);
  add("cluster.cells_per_s", "cells/s", Ratio(cells, finalize_s));

  const auto saves = Millis(spans.Durations("ckpt.save"));
  const double save_s = spans.Total("ckpt.save");
  double snapshot_bytes = 0.0;
  double largest = 0.0;
  for (const std::uint64_t b : traced.snapshot_bytes) {
    snapshot_bytes += static_cast<double>(b);
    largest = std::max(largest, static_cast<double>(b));
  }
  const double restore_s = spans.Total("ckpt.restore");
  add("ckpt.snapshots", "count",
      static_cast<double>(traced.snapshot_bytes.size()));
  add("ckpt.save_s", "s", save_s);
  add("ckpt.save_p50_ms", "ms", Percentile(saves, 0.5));
  add("ckpt.save_max_ms", "ms", Max(saves));
  add("ckpt.snapshot_mb", "MB", largest / 1e6);
  add("ckpt.write_mb_per_s", "MB/s", Ratio(snapshot_bytes / 1e6, save_s));
  add("ckpt.restore_s", "s", restore_s);
  add("ckpt.recovery_s", "s", traced.recovery_s);
  add("ckpt.save_share", "ratio", Ratio(save_s, wall));
  add("ckpt.restore_share", "ratio", Ratio(restore_s, wall));
  add("ckpt.recovery_share", "ratio", Ratio(traced.recovery_s, wall));

  add("util.cpu_per_wall", "ratio", Ratio(traced.cpu_s, wall));
  add("bench.span_coverage", "ratio", Ratio(spans.TopLevelTotal(), wall));
  add("bench.tracing_overhead", "ratio", overhead);
  return m;
}

}  // namespace

Goldens Goldens::Read(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  Goldens g;
  std::string line;
  for (int n = 1; std::getline(in, line); ++n) {
    line = line.substr(0, line.find('#'));
    std::istringstream fields(line);
    Entry e;
    std::string digest;
    if (!(fields >> e.workload)) continue;  // blank or comment
    if (!(fields >> e.scale >> e.artifact >> digest)) {
      throw std::runtime_error(path + ":" + std::to_string(n) +
                               ": expected `workload scale artifact digest`");
    }
    e.digest = std::stoull(digest, nullptr, 16);
    g.entries_.push_back(std::move(e));
  }
  return g;
}

std::optional<std::uint64_t> Goldens::Find(const std::string& workload,
                                           double scale,
                                           const std::string& artifact) const {
  for (const Entry& e : entries_) {
    if (e.workload == workload && e.scale == scale && e.artifact == artifact) {
      return e.digest;
    }
  }
  return std::nullopt;
}

WorkloadRun RunWorkload(const Workload& workload, const RunOptions& options,
                        const Goldens& goldens) {
  WorkloadRun run;
  WorkloadReport& report = run.report;
  report.workload = std::string(workload.name);
  report.seed = options.seed;
  report.threads = options.threads;
  Pipeline pipeline(workload, {std::string(kWorkloadDir) + "/" +
                                   std::string(workload.spec),
                               options.seed, options.scale, options.threads,
                               options.work_dir});
  report.scale = pipeline.spec().scale;

  Expectation trace("trace digest", true);
  Expectation rendered("report digest", true);
  Expectation input("input digest", true);
  Expectation records("records", false);
  if (options.seed == Goldens::kGoldenSeed) {
    trace.Pin(goldens.Find(report.workload, report.scale, "trace"));
    rendered.Pin(goldens.Find(report.workload, report.scale, "report"));
    input.Pin(goldens.Find(report.workload, report.scale, "input"));
  }
  const bool writes_trace = workload.kind != Kind::kReplayAnalyze;
  const bool renders = workload.kind == Kind::kPaperWeek ||
                       workload.kind == Kind::kReplayAnalyze;
  const auto check_rep = [&](Rep& rep) {
    if (writes_trace) trace.Check(rep.trace_digest, rep);
    if (renders) rendered.Check(rep.report_digest, rep);
    records.Check(rep.records, rep);
  };

  // Runs one rep, counting it, and keeps why it failed if it did. A rep
  // that fails a check still yields its measurements.
  const auto attempt = [&](const std::string& label, const auto& body,
                           const auto& check) -> std::optional<Rep> {
    ++report.attempted;
    std::optional<Rep> rep;
    try {
      rep = body();
      check(*rep);
    } catch (const std::exception& e) {
      ++report.failed;
      report.problems.push_back(label + ": " + e.what());
      return std::nullopt;
    }
    if (!rep->problems.empty()) {
      ++report.failed;
      for (const std::string& p : rep->problems) {
        report.problems.push_back(label + ": " + p);
      }
    }
    return rep;
  };

  std::optional<Rep> input_rep;
  if (workload.kind == Kind::kReplayAnalyze) {
    input_rep = attempt(
        "input",
        [&] {
          return pipeline.PrepareInput(options.traced ? &run.input_spans
                                                      : nullptr);
        },
        [&](Rep& rep) { input.Check(rep.trace_digest, rep); });
    if (!input_rep) return run;
  }

  // Return what earlier workloads and the input run freed to the kernel, so
  // peak RSS counts this workload's memory. Later reps reuse the memory the
  // warm-up leaves with the allocator, as a long-lived process would, which
  // keeps page-fault cost out of the reps.
  malloc_trim(0);
  // Discarded warm-up. durable_week's is the uninterrupted run whose trace
  // its killed-and-resumed reps must reproduce byte for byte.
  if (workload.kind == Kind::kDurableWeek) {
    attempt("warm-up", [&] { return pipeline.RunUninterrupted(); }, check_rep);
  } else {
    attempt("warm-up", [&] { return pipeline.Run(nullptr); }, check_rep);
  }

  std::vector<Rep> timed;
  const auto begin = Clock::now();
  for (int i = 0;; ++i) {
    if (options.reps > 0 || options.seconds <= 0.0) {
      if (i >= (options.reps > 0 ? options.reps : workload.reps)) break;
    } else if (i >= kMinTimedReps &&
               Seconds(begin, Clock::now()) >= options.seconds) {
      break;
    }
    auto rep = attempt("rep " + std::to_string(i + 1),
                       [&] { return pipeline.Run(nullptr); }, check_rep);
    if (rep) timed.push_back(std::move(*rep));
  }

  const auto series = [&](double (*field)(const Rep&)) {
    std::vector<double> out;
    for (const Rep& r : timed) out.push_back(field(r));
    return out;
  };
  report.end_to_end = {
      {"wall_s", "s", series([](const Rep& r) { return r.wall_s; })},
      {"records_per_s", "rec/s",
       series([](const Rep& r) {
         return static_cast<double>(r.records) / r.wall_s;
       })},
      {"setup_s", "s", series([](const Rep& r) { return r.setup_s; })},
      {"cpu_s", "s", series([](const Rep& r) { return r.cpu_s; })},
      {"peak_rss_mb", "MB", series([](const Rep& r) { return r.peak_rss_mb; })},
  };
  if (workload.kind == Kind::kDurableWeek) {
    report.end_to_end.push_back(
        {"recovery_s", "s", series([](const Rep& r) { return r.recovery_s; })});
  }

  if (options.traced) {
    // Traced and untraced reps alternate, starting and ending untraced.
    // bench.tracing_overhead is the median over the traced reps of each
    // one's wall against the mean of its two untraced neighbours, which
    // cancels the machine's drift from rep to rep. The traced rep with the
    // median wall supplies every per-layer metric.
    struct Traced {
      Rep rep;
      Tracer spans;
      double overhead = 0.0;
    };
    std::vector<Traced> traced_reps;
    const auto untraced = [&](int i) {
      return attempt("untraced neighbour " + std::to_string(i),
                     [&] { return pipeline.Run(nullptr); }, check_rep);
    };
    std::optional<Rep> before = untraced(1);
    for (int i = 1; i <= kTracedReps; ++i) {
      Tracer spans;
      auto rep = attempt("traced rep " + std::to_string(i),
                         [&] { return pipeline.Run(&spans); }, check_rep);
      std::optional<Rep> after = untraced(i + 1);
      if (before && rep && after) {
        const double overhead =
            rep->wall_s / ((before->wall_s + after->wall_s) / 2.0);
        traced_reps.push_back({std::move(*rep), std::move(spans), overhead});
      }
      before = std::move(after);
    }
    if (!traced_reps.empty()) {
      std::vector<double> overheads;
      for (const Traced& t : traced_reps) overheads.push_back(t.overhead);
      std::sort(traced_reps.begin(), traced_reps.end(),
                [](const Traced& x, const Traced& y) {
                  return x.rep.wall_s < y.rep.wall_s;
                });
      Traced& median = traced_reps[traced_reps.size() / 2];
      const Rep& traced = median.rep;
      run.rep_spans = std::move(median.spans);
      try {
        std::optional<ReadBack> readback;
        if (workload.kind == Kind::kSimWeek ||
            workload.kind == Kind::kDurableWeek) {
          readback = pipeline.ReadBackTrace(run.probe_spans);
          if (readback->records != traced.records) {
            report.problems.push_back("read-back decoded " +
                                      std::to_string(readback->records) +
                                      " records");
          }
        }
        const Probes probes = pipeline.RunProbes(run.probe_spans);
        const Rep& simulated = input_rep ? *input_rep : traced;
        if (probes.cdn_records != simulated.totals.records) {
          report.problems.push_back("cdn probe produced " +
                                    std::to_string(probes.cdn_records) +
                                    " records");
        }
        report.per_layer =
            LayerMetrics(workload, traced, run, simulated, readback, probes,
                         Summarize(overheads).median);
      } catch (const std::exception& e) {
        report.problems.push_back(std::string("probes: ") + e.what());
      }
    }
  }

  report.end_to_end.push_back(
      {"failure_rate", "ratio",
       {Ratio(static_cast<double>(report.failed),
              static_cast<double>(report.attempted))}});
  for (const auto& [artifact, expectation] :
       {std::pair{"input", &input}, std::pair{"trace", &trace},
        std::pair{"report", &rendered}}) {
    if (expectation->value()) {
      report.digests.emplace_back(artifact, *expectation->value());
    }
  }
  return run;
}

}  // namespace atlas::bench
