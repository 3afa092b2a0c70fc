#include "report.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "json.h"

namespace atlas::bench {

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  s.median = n % 2 == 1 ? samples[n / 2]
                        : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
  if (n == 1) {
    s.p25 = s.p75 = samples[0];
    return s;
  }
  // statistics.quantiles(data, n=4, method="exclusive").
  const auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
  };
  s.p25 = quartile(1);
  s.p75 = quartile(3);
  return s;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

BenchmarkSpec ReadBenchmarkSpec(const std::string& path) {
  const Json doc = ReadJsonFile(path);
  const auto read = [&](const char* key, bool bounded) {
    std::vector<MetricSpec> out;
    for (const Json& m : doc.At(key).array) {
      MetricSpec spec{m.At("name").string, m.At("unit").string,
                      m.At("better").string, 0.0};
      if (bounded) spec.bound = m.At("bound").number;
      out.push_back(std::move(spec));
    }
    return out;
  };
  return {read("end_to_end", true), read("per_layer", false)};
}

std::string FormatNumber(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

std::string Hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

void PrintMetrics(std::ostream& out, const WorkloadReport& report) {
  for (const Metric& m : report.end_to_end) {
    const Summary s = Summarize(m.samples);
    out << report.workload << ' ' << m.name << ' ' << FormatNumber(s.median)
        << ' ' << m.unit;
    if (m.samples.size() > 1) {
      out << " p25=" << FormatNumber(s.p25) << " p75=" << FormatNumber(s.p75)
          << " n=" << s.n;
    }
    out << '\n';
  }
  for (const Metric& m : report.per_layer) {
    out << report.workload << ' ' << m.name << ' '
        << FormatNumber(Summarize(m.samples).median) << ' ' << m.unit << '\n';
  }
  for (const auto& [artifact, digest] : report.digests) {
    out << report.workload << " digest." << artifact << ' ' << Hex(digest)
        << " fnv1a64\n";
  }
  for (const std::string& problem : report.problems) {
    out << report.workload << " FAILED " << problem << '\n';
  }
}

namespace {

void WriteMetrics(std::ostream& out, const std::vector<Metric>& metrics,
                  bool summarized) {
  out << '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const Summary s = Summarize(m.samples);
    out << (i ? ",\n      " : "\n      ") << JsonQuote(m.name)
        << ": {\"unit\": " << JsonQuote(m.unit);
    if (summarized) {
      out << ", \"median\": " << FormatNumber(s.median)
          << ", \"p25\": " << FormatNumber(s.p25)
          << ", \"p75\": " << FormatNumber(s.p75) << ", \"n\": " << s.n
          << ", \"samples\": [";
      for (std::size_t j = 0; j < m.samples.size(); ++j) {
        out << (j ? ", " : "") << FormatNumber(m.samples[j]);
      }
      out << ']';
    } else {
      out << ", \"value\": " << FormatNumber(s.median);
    }
    out << '}';
  }
  out << "\n    }";
}

}  // namespace

void WriteResults(std::ostream& out, const RunMeta& meta,
                  const std::vector<WorkloadReport>& reports) {
  out << "{\n  \"meta\": {\"nproc\": " << meta.nproc
      << ", \"build_type\": " << JsonQuote(meta.build_type)
      << ", \"compiler\": " << JsonQuote(meta.compiler)
      << ", \"commit\": " << JsonQuote(meta.commit)
      << "},\n  \"workloads\": [";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const WorkloadReport& r = reports[i];
    const std::size_t reps =
        r.end_to_end.empty() ? 0 : r.end_to_end.front().samples.size();
    out << (i ? ",\n" : "\n") << "  {\"name\": " << JsonQuote(r.workload)
        << ", \"scale\": " << FormatNumber(r.scale) << ", \"seed\": " << r.seed
        << ", \"threads\": " << r.threads << ", \"reps\": " << reps
        << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
        << ", \"correct\": " << (r.correct() ? "true" : "false")
        << ",\n    \"problems\": [";
    for (std::size_t j = 0; j < r.problems.size(); ++j) {
      out << (j ? ", " : "") << JsonQuote(r.problems[j]);
    }
    out << "],\n    \"digests\": {";
    for (std::size_t j = 0; j < r.digests.size(); ++j) {
      out << (j ? ", " : "") << JsonQuote(r.digests[j].first) << ": "
          << JsonQuote(Hex(r.digests[j].second));
    }
    out << "},\n    \"end_to_end\": ";
    WriteMetrics(out, r.end_to_end, true);
    out << ",\n    \"per_layer\": ";
    WriteMetrics(out, r.per_layer, false);
    out << "}";
  }
  out << "\n  ]\n}\n";
}

bool PrintResultLine(std::ostream& out, std::ostream& err,
                     const WorkloadReport& report,
                     const std::vector<MetricSpec>& wanted) {
  bool complete = true;
  std::string metrics;
  for (const MetricSpec& spec : wanted) {
    const Metric* found = nullptr;
    for (const auto* list : {&report.end_to_end, &report.per_layer}) {
      for (const Metric& m : *list) {
        if (m.name == spec.name) found = &m;
      }
    }
    if (found == nullptr || found->unit != spec.unit) {
      err << "atlas-bench: " << report.workload << " does not report "
          << spec.name << " in " << spec.unit << '\n';
      complete = false;
      continue;
    }
    const double value = Summarize(found->samples).median;
    metrics += (metrics.empty() ? "" : ", ") + JsonQuote(spec.name) +
               ": {\"value\": " + FormatNumber(value) +
               ", \"unit\": " + JsonQuote(spec.unit) + "}";
  }
  const bool correct = complete && report.correct();
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"metrics\": {" << metrics
      << "}}" << std::endl;
  return complete;
}

}  // namespace atlas::bench
