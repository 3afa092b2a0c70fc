// Shared scenario helpers for tests: the library's two run entry points
// (cdn/scenario.h) with the trace kept in memory. Production code streams
// into a sink instead; tests that genuinely need every record go through
// here.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cdn/scenario.h"
#include "synth/site_profile.h"
#include "trace/sink.h"
#include "trace/trace_buffer.h"
#include "trace/wire_format.h"

namespace atlas::testutil {

// A StreamScenario run into a BufferSink: the merged, time-sorted trace
// plus the registry and per-site counters.
struct BufferedScenario {
  trace::TraceBuffer trace;
  cdn::ScenarioStreamResult result;

  const trace::PublisherRegistry& registry() const { return result.registry; }
  // Site i's records (profile order), in stream order.
  trace::TraceBuffer SiteTrace(std::size_t i) const {
    return trace.FilterByPublisher(result.registry.all().at(i).id);
  }
};

inline BufferedScenario RunScenario(std::vector<synth::SiteProfile> profiles,
                                    const cdn::SimulatorConfig& config,
                                    std::uint64_t seed, int threads = 0) {
  BufferedScenario out;
  trace::BufferSink sink(out.trace);
  out.result =
      cdn::StreamScenario(std::move(profiles), config, seed, sink, threads);
  return out;
}

// The paper's five adult sites at `scale`.
inline BufferedScenario RunPaperStudy(double scale,
                                      const cdn::SimulatorConfig& config,
                                      std::uint64_t seed, int threads = 0) {
  return RunScenario(synth::SiteProfile::PaperAdultSites(scale), config, seed,
                     threads);
}

// A SimulateSite run into a BufferSink: the site's counters and its trace.
struct BufferedSite : cdn::SimulatorResult {
  trace::TraceBuffer trace;
};

inline BufferedSite SimulateSite(const synth::SiteProfile& profile,
                                 std::uint32_t publisher_id,
                                 const cdn::SimulatorConfig& config,
                                 std::uint64_t seed) {
  BufferedSite out;
  trace::BufferSink sink(out.trace);
  static_cast<cdn::SimulatorResult&>(out) =
      cdn::SimulateSite(profile, publisher_id, config, seed, sink);
  return out;
}

// A trace as one flat byte image: "ATLS", u32 1, u64 record count, then
// every record's wire encoding back to back. The engine and determinism
// golden digests are FNV-1a over exactly these bytes.
inline std::string FlatTraceBytes(const trace::TraceBuffer& trace) {
  std::string bytes = "ATLS";
  bytes.resize(16 + trace.size() * trace::wire::kRecordWireSize);
  auto* out = reinterpret_cast<unsigned char*>(bytes.data());
  trace::wire::StoreLe(out + 4, std::uint32_t{1});
  trace::wire::StoreLe(out + 8, static_cast<std::uint64_t>(trace.size()));
  out += 16;
  for (const auto& r : trace.records()) {
    trace::wire::EncodeRecord(r, out);
    out += trace::wire::kRecordWireSize;
  }
  return bytes;
}

}  // namespace atlas::testutil
