#include "cdn/topology.h"

#include "util/hash.h"

namespace atlas::cdn {

std::size_t RouteIndex(const TopologyConfig& config, synth::Continent continent,
                       std::uint64_t user_id) {
  const auto base = static_cast<std::size_t>(continent) *
                    static_cast<std::size_t>(config.dcs_per_continent);
  const auto shard = static_cast<std::size_t>(util::HashToBucket(
      util::Mix64(user_id),
      static_cast<std::uint64_t>(config.dcs_per_continent)));
  return base + shard;
}

std::size_t DcCount(const TopologyConfig& config) {
  return static_cast<std::size_t>(synth::kNumContinents) *
         static_cast<std::size_t>(config.dcs_per_continent);
}

}  // namespace atlas::cdn
