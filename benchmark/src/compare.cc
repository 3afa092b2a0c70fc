#include "compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "json.h"

namespace atlas::bench {
namespace {

// A gain needs at least this many parent/change pairs.
constexpr int kMinPairs = 10;

// Each file's median for `metric` on `workload`; empty if any file lacks it.
std::vector<double> Medians(const std::vector<Json>& files,
                            const std::string& workload,
                            const std::string& metric) {
  std::vector<double> out;
  for (const Json& file : files) {
    const Json* found = nullptr;
    for (const Json& w : file.At("workloads").array) {
      if (w.At("name").string != workload) continue;
      found = w.At("end_to_end").Find(metric);
    }
    if (found == nullptr) return {};
    out.push_back(found->At("median").number);
  }
  return out;
}

struct Row {
  Summary a;
  Summary b;
  double delta = 0.0;  // (B - A) / A at the medians
  int wins = 0;
  int pairs = 0;
  const char* verdict = "no change";
};

Row Judge(const std::vector<double>& a, const std::vector<double>& b,
          const MetricSpec& spec) {
  Row row;
  row.a = Summarize(a);
  row.b = Summarize(b);
  const double base = std::abs(row.a.median);
  // "Badness": larger is worse whatever the metric's direction.
  const double sign = spec.better == "lower" ? 1.0 : -1.0;
  const auto bad_lo = [&](const Summary& s) {
    return std::min(sign * s.p25, sign * s.p75);
  };
  const auto bad_hi = [&](const Summary& s) {
    return std::max(sign * s.p25, sign * s.p75);
  };
  const auto relative = [&](double diff) {
    return base > 0.0 ? diff / base : 0.0;
  };
  row.delta = relative(row.b.median - row.a.median);
  const double worse = sign * row.delta;
  const double worse_lo = relative(bad_lo(row.b) - bad_hi(row.a));
  const double worse_hi = relative(bad_hi(row.b) - bad_lo(row.a));

  row.pairs = static_cast<int>(std::min(a.size(), b.size()));
  for (int i = 0; i < row.pairs; ++i) {
    if (sign * b[static_cast<std::size_t>(i)] <
        sign * a[static_cast<std::size_t>(i)]) {
      ++row.wins;
    }
  }
  double worst_b = -INFINITY;
  double best_a = INFINITY;
  for (const double v : b) worst_b = std::max(worst_b, sign * v);
  for (const double v : a) best_a = std::min(best_a, sign * v);
  const bool every_b_better = worst_b < best_a;

  const bool wins_enough =
      row.pairs >= kMinPairs && row.wins * 10 >= row.pairs * 9;
  if (wins_enough && worse < 0.0 &&
      std::abs(row.b.median - row.a.median) > row.a.p75 - row.a.p25) {
    row.verdict = "improved";
  } else if (worse_lo > spec.bound) {
    row.verdict = "regressed";
  } else if (worse_hi > spec.bound && !every_b_better) {
    row.verdict = "unresolved";
  }
  return row;
}

}  // namespace

int Compare(const std::vector<std::string>& a_files,
            const std::vector<std::string>& b_files,
            const BenchmarkSpec& spec, std::ostream& out) {
  if (a_files.empty() || b_files.empty()) {
    throw std::invalid_argument("--compare needs A.json... -- B.json...");
  }
  std::vector<Json> a;
  std::vector<Json> b;
  for (const auto& f : a_files) a.push_back(ReadJsonFile(f));
  for (const auto& f : b_files) b.push_back(ReadJsonFile(f));

  char line[256];
  std::snprintf(line, sizeof(line), "%-15s %-14s %-36s %-36s %8s %6s  %s\n",
                "workload", "metric", "A median [p25, p75] n",
                "B median [p25, p75] n", "delta", "wins", "verdict");
  out << line;
  int regressed = 0;
  for (const Json& w : a.front().At("workloads").array) {
    const std::string& workload = w.At("name").string;
    for (const MetricSpec& metric : spec.end_to_end) {
      const auto a_values = Medians(a, workload, metric.name);
      const auto b_values = Medians(b, workload, metric.name);
      if (a_values.empty() || b_values.empty()) continue;
      const Row row = Judge(a_values, b_values, metric);
      const auto side = [](const Summary& s) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g [%.6g, %.6g] %zu", s.median,
                      s.p25, s.p75, s.n);
        return std::string(buf);
      };
      char wins[16];
      std::snprintf(wins, sizeof(wins), "%d/%d", row.wins, row.pairs);
      std::snprintf(line, sizeof(line),
                    "%-15s %-14s %-36s %-36s %+7.2f%% %6s  %s\n",
                    workload.c_str(), metric.name.c_str(), side(row.a).c_str(),
                    side(row.b).c_str(), row.delta * 100.0, wins, row.verdict);
      out << line;
      if (std::string(row.verdict) == "regressed") ++regressed;
    }
  }
  return regressed > 0 ? 1 : 0;
}

}  // namespace atlas::bench
