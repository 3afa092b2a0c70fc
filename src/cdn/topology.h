// CDN topology: geographically distributed edge data centers plus an origin.
//
// §III: "A CDN operator typically places content at multiple geographically
// distributed data centers. A user's request ... is redirected to the
// closest data center via DNS redirection, anycast, or other CDN-specific
// methods." The model: one (or more) edge DCs per continent; users route to
// their continent's DC (round-robin by user hash when a continent has
// several); every edge miss is an origin fetch.
#pragma once

#include <cstddef>
#include <cstdint>

#include "cdn/cache.h"
#include "synth/user_model.h"

namespace atlas::cdn {

struct OriginStats {
  std::uint64_t fetches = 0;
  std::uint64_t bytes = 0;
};

struct TopologyConfig {
  PolicyKind edge_policy = PolicyKind::kLru;
  std::uint64_t edge_capacity_bytes = 8ULL << 30;  // per DC
  std::int64_t edge_ttl_ms = 6 * 3600 * 1000LL;    // for TTL policies
  int dcs_per_continent = 1;
};

// Index (into DC order: continent-major, then the continent's DCs) of the
// edge DC serving a user, chosen by continent and sharded by user id when
// the continent has multiple DCs. The sharded simulation engine pins users
// to shards with it.
std::size_t RouteIndex(const TopologyConfig& config, synth::Continent continent,
                       std::uint64_t user_id);

// Number of edge DCs a config produces (continents x dcs_per_continent).
std::size_t DcCount(const TopologyConfig& config);

}  // namespace atlas::cdn
