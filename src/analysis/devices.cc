#include "analysis/devices.h"

#include "analysis/feed.h"

namespace atlas::analysis {

DeviceCompositionAccumulator::DeviceCompositionAccumulator(
    std::size_t size_hint) {
  user_ua_.reserve(size_hint / 4 + 1);
}

// Parse each distinct UA id once (the bank is small); then attribute each
// unique user to the device of their first-seen UA.
const trace::UaInfo& DeviceCompositionAccumulator::InfoFor(
    std::uint16_t ua_id) {
  if (ua_id >= parsed_valid_.size()) {
    parsed_valid_.resize(std::size_t{ua_id} + 1, 0);
    parsed_.resize(std::size_t{ua_id} + 1);
  }
  if (!parsed_valid_[ua_id]) {
    const auto& bank = trace::UaBank::Instance();
    parsed_[ua_id] = trace::ParseUserAgent(bank.String(ua_id));
    parsed_valid_[ua_id] = 1;
  }
  return parsed_[ua_id];
}

void DeviceCompositionAccumulator::AddBatch(const trace::RecordBlock& b,
                                            const std::uint32_t* rows,
                                            std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = rows ? rows[k] : k;
    const std::uint16_t ua = b.user_agent_id[i];
    user_ua_.InsertIfAbsent(b.user_id[i], ua);
    ++request_counts_[static_cast<std::size_t>(InfoFor(ua).device)];
  }
  requests_ += n;
}

DeviceComposition DeviceCompositionAccumulator::Finalize(
    const std::string& site_name) {
  DeviceComposition result;
  result.site = site_name;

  std::array<std::uint64_t, trace::kNumDeviceTypes> user_counts{};
  std::array<std::uint64_t, trace::kNumOsFamilies> os_counts{};
  std::array<std::uint64_t, trace::kNumBrowserFamilies> browser_counts{};
  // Per-family tallies commute, so table layout order is fine here.
  user_ua_.ForEachMutable([&](std::uint64_t, std::uint16_t& ua_id) {
    const auto& info = InfoFor(ua_id);
    ++user_counts[static_cast<std::size_t>(info.device)];
    ++os_counts[static_cast<std::size_t>(info.os)];
    ++browser_counts[static_cast<std::size_t>(info.browser)];
  });

  result.unique_users = user_ua_.size();
  const double users = static_cast<double>(user_ua_.size());
  const double requests = static_cast<double>(requests_);
  if (users > 0.0) {
    for (std::size_t i = 0; i < user_counts.size(); ++i) {
      result.user_share[i] = static_cast<double>(user_counts[i]) / users;
    }
    for (std::size_t i = 0; i < os_counts.size(); ++i) {
      result.os_share[i] = static_cast<double>(os_counts[i]) / users;
    }
    for (std::size_t i = 0; i < browser_counts.size(); ++i) {
      result.browser_share[i] = static_cast<double>(browser_counts[i]) / users;
    }
  }
  if (requests > 0.0) {
    for (std::size_t i = 0; i < request_counts_.size(); ++i) {
      result.request_share[i] =
          static_cast<double>(request_counts_[i]) / requests;
    }
  }
  return result;
}

DeviceComposition ComputeDeviceComposition(const trace::TraceBuffer& trace,
                                           const std::string& site_name) {
  DeviceCompositionAccumulator acc(trace.size());
  FeedTrace(trace, acc);
  return acc.Finalize(site_name);
}

namespace {
constexpr std::uint32_t kDevicesStateVersion = 1;
}  // namespace

void DeviceCompositionAccumulator::SaveState(ckpt::Writer& w) const {
  w.WriteVersion(kDevicesStateVersion);
  w.WriteU64(user_ua_.size());
  for (const std::uint64_t user : user_ua_.SortedKeys()) {
    w.WriteU64(user);
    w.WriteU16(user_ua_.At(user));
  }
  for (const std::uint64_t c : request_counts_) w.WriteU64(c);
  w.WriteU64(requests_);
}

void DeviceCompositionAccumulator::RestoreState(ckpt::Reader& r) {
  r.ExpectVersion("device composition accumulator", kDevicesStateVersion);
  user_ua_.clear();
  const std::uint64_t n = r.ReadU64();
  user_ua_.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t user = r.ReadU64();
    user_ua_[user] = r.ReadU16();
  }
  for (std::uint64_t& c : request_counts_) c = r.ReadU64();
  requests_ = r.ReadU64();
}

}  // namespace atlas::analysis
