#include "cdn/simulator.h"

namespace atlas::cdn {

void SimulatorResult::Merge(const SimulatorResult& other) {
  edge_stats.Merge(other.edge_stats);
  if (per_dc_stats.size() < other.per_dc_stats.size()) {
    per_dc_stats.resize(other.per_dc_stats.size());
  }
  for (std::size_t i = 0; i < other.per_dc_stats.size(); ++i) {
    per_dc_stats[i].Merge(other.per_dc_stats[i]);
  }
  origin.fetches += other.origin.fetches;
  origin.bytes += other.origin.bytes;
  records += other.records;
  peer_fetches += other.peer_fetches;
  peer_bytes += other.peer_bytes;
  browser_fresh_hits += other.browser_fresh_hits;
  revalidations += other.revalidations;
  pushed_objects += other.pushed_objects;
  pushed_bytes += other.pushed_bytes;
}

namespace {

constexpr std::uint32_t kSimulatorResultStateVersion = 1;

void SaveCacheStats(ckpt::Writer& w, const CacheStats& s) {
  w.WriteU64(s.hits);
  w.WriteU64(s.misses);
  w.WriteU64(s.inserts);
  w.WriteU64(s.evictions);
  w.WriteU64(s.rejected);
  w.WriteU64(s.hit_bytes);
  w.WriteU64(s.miss_bytes);
}

CacheStats ReadCacheStats(ckpt::Reader& r) {
  CacheStats s;
  s.hits = r.ReadU64();
  s.misses = r.ReadU64();
  s.inserts = r.ReadU64();
  s.evictions = r.ReadU64();
  s.rejected = r.ReadU64();
  s.hit_bytes = r.ReadU64();
  s.miss_bytes = r.ReadU64();
  return s;
}

}  // namespace

void SimulatorResult::SaveState(ckpt::Writer& w) const {
  w.WriteVersion(kSimulatorResultStateVersion);
  SaveCacheStats(w, edge_stats);
  w.WriteU64(static_cast<std::uint64_t>(per_dc_stats.size()));
  for (const CacheStats& s : per_dc_stats) SaveCacheStats(w, s);
  w.WriteU64(origin.fetches);
  w.WriteU64(origin.bytes);
  w.WriteU64(records);
  w.WriteU64(peer_fetches);
  w.WriteU64(peer_bytes);
  w.WriteU64(browser_fresh_hits);
  w.WriteU64(revalidations);
  w.WriteU64(pushed_objects);
  w.WriteU64(pushed_bytes);
}

void SimulatorResult::RestoreState(ckpt::Reader& r) {
  r.ExpectVersion("simulator result", kSimulatorResultStateVersion);
  edge_stats = ReadCacheStats(r);
  per_dc_stats.clear();
  const std::uint64_t ndc = r.ReadU64();
  per_dc_stats.reserve(static_cast<std::size_t>(ndc));
  for (std::uint64_t i = 0; i < ndc; ++i) {
    per_dc_stats.push_back(ReadCacheStats(r));
  }
  origin.fetches = r.ReadU64();
  origin.bytes = r.ReadU64();
  records = r.ReadU64();
  peer_fetches = r.ReadU64();
  peer_bytes = r.ReadU64();
  browser_fresh_hits = r.ReadU64();
  revalidations = r.ReadU64();
  pushed_objects = r.ReadU64();
  pushed_bytes = r.ReadU64();
}

}  // namespace atlas::cdn
