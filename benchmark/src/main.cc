// atlas-bench: the spec-to-report pipeline benchmark (see README.md).
//
//   atlas-bench [--workloads all|a,b] [--seed N] [--threads T]
//               [--out results.json] [--trace-json trace.json]
//       runs each workload's fixed rep count, then its traced rep, and
//       prints every metric as `workload metric value unit`.
//   atlas-bench --workload NAME --seed N --seconds S --trace 0|1
//       runs one workload for S seconds of timed reps (and with --trace 1
//       the traced rep and probes), then prints one JSON result line:
//       end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
//   atlas-bench --compare A.json... -- B.json...
//       compares two sets of results files (see compare.h).
//
// Run it from the repository root: it reads BENCHMARK.json and
// benchmark/workloads/ from there.
//
// Exit status: 0 when every rep ran and every output matched its expected
// digest, 1 on any failure (all metrics are still printed), 2 on bad usage.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compare.h"
#include "pipeline.h"
#include "report.h"
#include "run.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/par.h"

namespace {

using namespace atlas;
using namespace atlas::bench;

std::vector<const Workload*> SelectWorkloads(const std::string& single,
                                             const std::string& list) {
  std::vector<const Workload*> out;
  std::string names = single.empty() ? list : single;
  if (names == "all") {
    for (const Workload& w : AllWorkloads()) out.push_back(&w);
    return out;
  }
  std::istringstream in(names);
  for (std::string name; std::getline(in, name, ',');) {
    const Workload* w = FindWorkload(name);
    if (w == nullptr) throw std::invalid_argument("unknown workload " + name);
    out.push_back(w);
  }
  return out;
}

// Relative to the repository root, where the benchmark runs.
constexpr char kBenchmarkJson[] = "BENCHMARK.json";

// argv: atlas-bench --compare A.json... -- B.json...
int RunCompare(int argc, char** argv) {
  std::vector<std::string> a;
  std::vector<std::string> b;
  bool second = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--") == 0) {
      second = true;
    } else {
      (second ? b : a).push_back(argv[i]);
    }
  }
  return Compare(a, b, ReadBenchmarkSpec(kBenchmarkJson), std::cout);
}

int Main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--compare") == 0) {
    return RunCompare(argc, argv);
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  util::Flags flags;
  flags.DefineString("workload", "", "run this one workload");
  flags.DefineString("workloads", "all",
                     "comma-separated workloads, or all: paper_week, "
                     "sim_week, replay_analyze, durable_week");
  flags.DefineInt("seed", 42, "workload seed; overrides the specs' seed");
  flags.DefineDouble("scale", 0.0, "override every spec's scale (0 = keep)");
  flags.DefineInt("threads", 0, "worker threads (0 = min(4, nproc))");
  flags.DefineDouble("seconds", 0.0,
                     "time-box the timed reps to this many seconds (at "
                     "least 3 reps); 0 = each workload's fixed rep count");
  flags.DefineInt("reps", 0, "exactly this many timed reps (0 = default)");
  flags.DefineInt("trace", 1,
                  "1 = also run the traced rep and the per-layer probes");
  flags.DefineString("out", "", "write the results JSON here");
  flags.DefineString("trace-json", "",
                     "write the traced runs' spans here as Chrome "
                     "trace-event JSON");
  flags.DefineString("work-dir", "build-bench/run", "where outputs go");
  flags.DefineString("commit", "unknown", "commit id for the results JSON");
  flags.Parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.Usage(argv[0]);
    return 0;
  }
  if (!flags.positional().empty()) {
    throw std::invalid_argument("unexpected argument " +
                                flags.positional().front());
  }

  RunOptions options;
  options.work_dir = flags.GetString("work-dir");
  options.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  options.scale = flags.GetDouble("scale");
  options.threads = static_cast<int>(flags.GetInt("threads"));
  if (options.threads <= 0) {
    options.threads = static_cast<int>(std::min(4u, nproc));
  }
  if (options.threads > static_cast<int>(nproc)) {
    throw std::invalid_argument("--threads exceeds the " +
                                std::to_string(nproc) + " processors");
  }
  options.seconds = flags.GetDouble("seconds");
  options.reps = static_cast<int>(flags.GetInt("reps"));
  options.traced = flags.GetInt("trace") != 0;
  const auto workloads = SelectWorkloads(flags.GetString("workload"),
                                         flags.GetString("workloads"));
  const BenchmarkSpec spec = ReadBenchmarkSpec(kBenchmarkJson);
  const Goldens goldens =
      Goldens::Read(std::string(kWorkloadDir) + "/digests.txt");

  // Pinned so that calls taking threads = 0 (Generate inside StreamScenario,
  // PairwiseDtw inside Finalize) use the same count as the explicit ones.
  util::SetDefaultThreads(options.threads);
  util::SetLogLevel(util::LogLevel::kWarn);
  std::filesystem::create_directories(options.work_dir);

  const auto origin = Clock::now();
  std::vector<WorkloadRun> runs;
  bool ok = true;
  for (const Workload* w : workloads) {
    runs.push_back(RunWorkload(*w, options, goldens));
    PrintMetrics(std::cout, runs.back().report);
    std::cout.flush();
    ok = ok && runs.back().report.correct();
  }

  std::vector<WorkloadReport> reports;
  for (const WorkloadRun& r : runs) reports.push_back(r.report);
  const std::string out_path = flags.GetString("out");
  if (!out_path.empty()) {
    const RunMeta meta{nproc, ATLAS_BENCH_BUILD_TYPE, ATLAS_BENCH_COMPILER,
                       flags.GetString("commit")};
    std::ofstream out(out_path);
    WriteResults(out, meta, reports);
    if (!out) throw std::runtime_error("error writing " + out_path);
  }
  const std::string trace_path = flags.GetString("trace-json");
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    out << "{\"traceEvents\": [\n";
    bool first = true;
    int tid = 0;
    for (const WorkloadRun& r : runs) {
      const std::string& name = r.report.workload;
      r.rep_spans.WriteChromeEvents(out, origin, ++tid, name + " traced rep",
                                    first);
      r.input_spans.WriteChromeEvents(out, origin, ++tid, name + " input",
                                      first);
      r.probe_spans.WriteChromeEvents(out, origin, ++tid, name + " probes",
                                      first);
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("error writing " + trace_path);
  }
  if (reports.size() == 1) {
    ok = PrintResultLine(std::cout, std::cerr, reports.front(),
                         options.traced ? spec.per_layer : spec.end_to_end) &&
         ok;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "atlas-bench: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "atlas-bench: " << e.what() << '\n';
    return 1;
  }
}
