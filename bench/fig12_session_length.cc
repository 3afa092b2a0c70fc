// Fig. 12: user session length CDFs (10-minute inactivity timeout) — adult
// engagement is short-lived; medians around a minute for the video sites.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace atlas;
  bench::BenchEnv env;
  env.flags.DefineInt("timeout-min", 10, "session inactivity timeout, minutes");
  if (!bench::SetUpStudy(env, argc, argv, "Fig. 12: session length CDFs")) {
    return 0;
  }
  const std::int64_t timeout_ms = env.flags.GetInt("timeout-min") * 60 * 1000;
  const auto results = bench::PerSite<analysis::SessionResult>(
      env, [timeout_ms](const trace::TraceBuffer& t, const std::string& name) {
        return analysis::ComputeSessions(t, name, timeout_ms);
      });
  std::cout << "=== Fig. 12: session lengths (timeout "
            << env.flags.GetInt("timeout-min") << " min), scale=" << env.scale
            << " ===\n";
  analysis::RenderSessions(bench::View(results), std::cout);
  std::cout << "\npaper: median session lengths around one minute — far "
               "shorter than YouTube-style engagement\n";
  return 0;
}
