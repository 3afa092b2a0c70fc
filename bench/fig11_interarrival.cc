// Fig. 11: user request inter-arrival time CDFs — video sites have much
// shorter IATs (median < 10 min) than image-heavy sites (median > 1 h).
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace atlas;
  bench::BenchEnv env;
  if (!bench::SetUpStudy(env, argc, argv,
                         "Fig. 11: request inter-arrival time CDFs")) {
    return 0;
  }
  const auto results = bench::PerSite<analysis::SessionResult>(
      env, [](const trace::TraceBuffer& t, const std::string& name) {
        return analysis::ComputeSessions(t, name);
      });
  std::cout << "=== Figs. 11-12 source: sessions, scale=" << env.scale
            << " ===\n";
  analysis::RenderSessions(bench::View(results), std::cout);
  std::cout << "\npaper: video-site median IAT < 10 min; image-heavy sites "
               "> 1 h\n";
  return 0;
}
