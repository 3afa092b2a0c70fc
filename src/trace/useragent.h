// User-agent parsing and the user-agent bank.
//
// The paper (§III) uses "the user agent field to distinguish between
// different device types, operating systems, and web browsers" [RFC 2616].
// UaParser is a substring-rule classifier in the style of practical log
// pipelines; UaBank is a catalog of realistic UA strings with known ground
// truth, used by the synthesizer — so the generator emits real strings and
// the analysis re-parses them, exercising the same path a production
// pipeline would.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/record.h"

namespace atlas::trace {

enum class OsFamily : std::uint8_t {
  kWindows = 0,
  kMacOs,
  kLinux,
  kAndroidOs,
  kIosOs,
  kOtherOs,
};
inline constexpr int kNumOsFamilies = 6;

enum class BrowserFamily : std::uint8_t {
  kChrome = 0,
  kFirefox,
  kSafari,
  kEdge,
  kIe,
  kOpera,
  kOtherBrowser,
};
inline constexpr int kNumBrowserFamilies = 7;

struct UaInfo {
  DeviceType device = DeviceType::kDesktop;
  OsFamily os = OsFamily::kOtherOs;
  BrowserFamily browser = BrowserFamily::kOtherBrowser;
  bool is_bot = false;

  bool operator==(const UaInfo&) const = default;
};

// Classifies a raw User-Agent header. Order of rules matters (e.g. every
// Chrome UA also contains "Safari"); the implementation documents the
// precedence it uses.
UaInfo ParseUserAgent(std::string_view ua);

// A fixed catalog of user-agent strings with known classifications.
// Ids are stable: LogRecord::user_agent_id indexes this bank.
class UaBank {
 public:
  UaBank();

  std::uint16_t size() const { return static_cast<std::uint16_t>(strings_.size()); }
  const std::string& String(std::uint16_t id) const { return strings_.at(id); }
  const UaInfo& Info(std::uint16_t id) const { return infos_.at(id); }

  // All ids whose classified device matches `device`.
  std::vector<std::uint16_t> IdsForDevice(DeviceType device) const;

  // The process-wide immutable instance.
  static const UaBank& Instance();

 private:
  std::vector<std::string> strings_;
  std::vector<UaInfo> infos_;
};

}  // namespace atlas::trace
