// §III dataset summary: the synthetic stand-in for "323 TB from 80 million
// users over one week" — per-site records, users, objects, bytes, span.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace atlas;
  bench::BenchEnv env;
  if (!bench::SetUpStudy(env, argc, argv, "Dataset summary (paper SS III)")) {
    return 0;
  }
  const auto summaries = bench::PerSite<analysis::DatasetSummary>(
      env, [](const trace::TraceBuffer& t, const std::string& name) {
        return analysis::ComputeDatasetSummary(t, name);
      });
  std::cout << "=== Dataset summary (paper SS III), scale=" << env.scale
            << " ===\n";
  analysis::RenderDatasetSummaries(bench::View(summaries), std::cout);

  // Aggregate row.
  analysis::DatasetSummary total;
  total.label = "all";
  for (const auto& s : summaries) {
    total.records += s.records;
    total.users += s.users;  // users are per-site unique, like the paper's 80M
    total.objects += s.objects;
    total.bytes += s.bytes;
    total.end_ms = std::max(total.end_ms, s.end_ms);
  }
  std::cout << '\n';
  analysis::RenderDatasetSummaries({&total}, std::cout);
  return 0;
}
