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

}  // namespace atlas::cdn
