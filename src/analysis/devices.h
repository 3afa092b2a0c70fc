// Device/OS composition (Fig. 4).
//
// "Recall that we extract user agent information from HTTP headers to
// identify device/OS of a user" — shares are computed over *users* (each
// unique user counted once), by re-parsing the raw user-agent strings the
// generator emitted, i.e. the same pipeline a production log system runs.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"  // atlas-lint: allow(layer-dag) ckpt is the passive serialization substrate; consuming its codec interface does not invert control flow
#include "trace/block.h"
#include "trace/trace_buffer.h"
#include "trace/useragent.h"
#include "util/flat_hash.h"

namespace atlas::analysis {

struct DeviceComposition {
  std::string site;
  // Fraction of unique users per device type {Desktop, Android, iOS, Misc}.
  std::array<double, trace::kNumDeviceTypes> user_share{};
  // Fraction of requests per device type.
  std::array<double, trace::kNumDeviceTypes> request_share{};
  // OS and browser breakdowns over users.
  std::array<double, trace::kNumOsFamilies> os_share{};
  std::array<double, trace::kNumBrowserFamilies> browser_share{};
  std::uint64_t unique_users = 0;

  // Fraction of users on anything other than a desktop.
  double MobileShare() const {
    return 1.0 - user_share[static_cast<std::size_t>(
                     trace::DeviceType::kDesktop)];
  }
};

// Single-pass accumulator behind ComputeDeviceComposition. State is one
// entry per unique user plus the (tiny) parsed-UA cache.
class DeviceCompositionAccumulator {
 public:
  explicit DeviceCompositionAccumulator(std::size_t size_hint = 0);
  void AddBatch(const trace::RecordBlock& b, const std::uint32_t* rows,
                std::size_t n);
  DeviceComposition Finalize(const std::string& site_name);

  // The parsed-UA cache is not serialized: it is a pure function of the
  // ua ids and repopulates lazily after restore.
  void SaveState(ckpt::Writer& w) const;
  void RestoreState(ckpt::Reader& r);

 private:
  const trace::UaInfo& InfoFor(std::uint16_t ua_id);

  // Dense parsed-UA cache indexed by ua id (the bank is small and ids are
  // u16, so a flat array beats a hash probe per record).
  std::vector<trace::UaInfo> parsed_;
  std::vector<std::uint8_t> parsed_valid_;
  util::FlatHashMap<std::uint64_t, std::uint16_t> user_ua_;
  std::array<std::uint64_t, trace::kNumDeviceTypes> request_counts_{};
  std::uint64_t requests_ = 0;
};

DeviceComposition ComputeDeviceComposition(const trace::TraceBuffer& trace,
                                           const std::string& site_name);

}  // namespace atlas::analysis
