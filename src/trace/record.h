// The HTTP access-log schema.
//
// Mirrors the record described in the paper (§III): "publisher identifier,
// hashed URL, object file type, object size in bytes, user agent, and the
// timestamp when the request was received", plus the response side: "the
// HTTP response code and the cache status for the requested object". User
// identity is an anonymized 64-bit id (the paper anonymizes IP addresses).
#pragma once

#include <cstdint>
#include <string>

namespace atlas::trace {

// Content categories used throughout the paper's analysis.
enum class ContentClass : std::uint8_t { kVideo = 0, kImage = 1, kOther = 2 };
inline constexpr int kNumContentClasses = 3;

// Device categories of Fig. 4.
enum class DeviceType : std::uint8_t {
  kDesktop = 0,
  kAndroid = 1,
  kIos = 2,
  kMisc = 3,  // tablets and other mobile devices
};
inline constexpr int kNumDeviceTypes = 4;

// Concrete file types (the paper names these in §IV-A).
enum class FileType : std::uint8_t {
  // video
  kFlv, kMp4, kMpg, kAvi, kWmv, kWebm,
  // image
  kJpg, kPng, kGif, kTiff, kBmp, kWebp,
  // other
  kHtml, kCss, kJs, kXml, kTxt, kJson, kMp3, kUnknown,
};
inline constexpr int kNumFileTypes = 20;

// CDN edge cache status recorded with each response.
enum class CacheStatus : std::uint8_t { kHit = 0, kMiss = 1 };

// HTTP status codes the paper's Fig. 16 reports.
inline constexpr std::uint16_t kHttpOk = 200;
inline constexpr std::uint16_t kHttpNoContent = 204;
inline constexpr std::uint16_t kHttpPartialContent = 206;
inline constexpr std::uint16_t kHttpNotModified = 304;
inline constexpr std::uint16_t kHttpForbidden = 403;
inline constexpr std::uint16_t kHttpRangeNotSatisfiable = 416;

struct LogRecord {
  // Milliseconds since trace start (Saturday 00:00 UTC).
  std::int64_t timestamp_ms = 0;
  // Anonymized object identity (the CDN hashes URLs before export).
  std::uint64_t url_hash = 0;
  // Anonymized user identity.
  std::uint64_t user_id = 0;
  // Full size of the requested object, bytes.
  std::uint64_t object_size = 0;
  // Bytes actually delivered by this response (< object_size for 206;
  // 0 for 304/403/416).
  std::uint64_t response_bytes = 0;
  // Publisher (website) identifier; resolved via PublisherRegistry.
  std::uint32_t publisher_id = 0;
  // Index into the user-agent bank (the raw UA string of the request).
  std::uint16_t user_agent_id = 0;
  std::uint16_t response_code = kHttpOk;
  FileType file_type = FileType::kUnknown;
  CacheStatus cache_status = CacheStatus::kMiss;
  // The requesting user's UTC offset in quarter hours; the paper converts
  // timestamps to local timezones for the temporal analysis (Fig. 3).
  std::int8_t tz_offset_quarter_hours = 0;

  bool operator==(const LogRecord&) const = default;
};

const char* ToString(ContentClass c);
const char* ToString(DeviceType d);
const char* ToString(FileType t);
const char* ToString(CacheStatus s);

// Parses the textual forms produced by ToString (used by the CSV reader).
// Throws std::invalid_argument on unknown names.
ContentClass ContentClassFromString(const std::string& s);
FileType FileTypeFromString(const std::string& s);
CacheStatus CacheStatusFromString(const std::string& s);

}  // namespace atlas::trace
