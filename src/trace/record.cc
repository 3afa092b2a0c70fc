#include "trace/record.h"

#include <stdexcept>

namespace atlas::trace {

const char* ToString(ContentClass c) {
  switch (c) {
    case ContentClass::kVideo:
      return "video";
    case ContentClass::kImage:
      return "image";
    case ContentClass::kOther:
      return "other";
  }
  return "?";
}

const char* ToString(DeviceType d) {
  switch (d) {
    case DeviceType::kDesktop:
      return "Desktop";
    case DeviceType::kAndroid:
      return "Android";
    case DeviceType::kIos:
      return "iOS";
    case DeviceType::kMisc:
      return "Misc";
  }
  return "?";
}

const char* ToString(FileType t) {
  switch (t) {
    case FileType::kFlv: return "flv";
    case FileType::kMp4: return "mp4";
    case FileType::kMpg: return "mpg";
    case FileType::kAvi: return "avi";
    case FileType::kWmv: return "wmv";
    case FileType::kWebm: return "webm";
    case FileType::kJpg: return "jpg";
    case FileType::kPng: return "png";
    case FileType::kGif: return "gif";
    case FileType::kTiff: return "tiff";
    case FileType::kBmp: return "bmp";
    case FileType::kWebp: return "webp";
    case FileType::kHtml: return "html";
    case FileType::kCss: return "css";
    case FileType::kJs: return "js";
    case FileType::kXml: return "xml";
    case FileType::kTxt: return "txt";
    case FileType::kJson: return "json";
    case FileType::kMp3: return "mp3";
    case FileType::kUnknown: return "unknown";
  }
  return "?";
}

const char* ToString(CacheStatus s) {
  return s == CacheStatus::kHit ? "HIT" : "MISS";
}

ContentClass ContentClassFromString(const std::string& s) {
  if (s == "video") return ContentClass::kVideo;
  if (s == "image") return ContentClass::kImage;
  if (s == "other") return ContentClass::kOther;
  throw std::invalid_argument("unknown ContentClass: " + s);
}

FileType FileTypeFromString(const std::string& s) {
  for (int i = 0; i < kNumFileTypes; ++i) {
    const auto t = static_cast<FileType>(i);
    if (s == ToString(t)) return t;
  }
  throw std::invalid_argument("unknown FileType: " + s);
}

CacheStatus CacheStatusFromString(const std::string& s) {
  if (s == "HIT") return CacheStatus::kHit;
  if (s == "MISS") return CacheStatus::kMiss;
  throw std::invalid_argument("unknown CacheStatus: " + s);
}

}  // namespace atlas::trace
