// Metrics and the benchmark's outputs: one `workload metric value unit` line
// per metric, the results JSON, and the one-line result that ends standard
// output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace atlas::bench {

// Median and quartiles as Python's statistics.median and
// statistics.quantiles(n=4) give them (the default "exclusive" method); a
// single sample is its own quartiles.
struct Summary {
  double median = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
  std::size_t n = 0;
};
Summary Summarize(std::vector<double> samples);

// Linearly interpolated percentile, q in [0, 1]; 0 for no samples.
double Percentile(std::vector<double> samples, double q);

struct Metric {
  std::string name;
  std::string unit;
  // One per timed rep for an end-to-end metric; a single value for a
  // per-layer metric.
  std::vector<double> samples;
};

// A metric as BENCHMARK.json declares it.
struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  // "lower" or "higher"
  double bound = 0.0;  // end-to-end only: allowed relative worsening
};

struct BenchmarkSpec {
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};
BenchmarkSpec ReadBenchmarkSpec(const std::string& path);

struct WorkloadReport {
  std::string workload;
  double scale = 0.0;
  std::uint64_t seed = 0;
  int threads = 0;
  std::uint64_t attempted = 0;  // reps run, warm-up and traced rep included
  std::uint64_t failed = 0;     // reps that threw or failed a check
  std::vector<std::string> problems;
  std::vector<std::pair<std::string, std::uint64_t>> digests;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  bool correct() const { return failed == 0 && problems.empty(); }
};

// The machine and build a results file came from.
struct RunMeta {
  unsigned nproc = 0;
  std::string build_type;
  std::string compiler;
  std::string commit;
};

std::string FormatNumber(double value);
std::string Hex(std::uint64_t value);

// Every metric as `workload metric value unit`; end-to-end timings carry
// p25, p75 and n after the four fields.
void PrintMetrics(std::ostream& out, const WorkloadReport& report);

void WriteResults(std::ostream& out, const RunMeta& meta,
                  const std::vector<WorkloadReport>& reports);

// The result line: {"correct", "attempted", "failed", "metrics"} holding the
// `wanted` metrics' values. Returns false, naming the defect on `err`, when
// a wanted metric is missing or carries another unit.
bool PrintResultLine(std::ostream& out, std::ostream& err,
                     const WorkloadReport& report,
                     const std::vector<MetricSpec>& wanted);

}  // namespace atlas::bench
