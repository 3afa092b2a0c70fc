#include "trace/content_class.h"

namespace atlas::trace {

ContentClass ClassOf(FileType type) {
  switch (type) {
    case FileType::kFlv:
    case FileType::kMp4:
    case FileType::kMpg:
    case FileType::kAvi:
    case FileType::kWmv:
    case FileType::kWebm:
      return ContentClass::kVideo;
    case FileType::kJpg:
    case FileType::kPng:
    case FileType::kGif:
    case FileType::kTiff:
    case FileType::kBmp:
    case FileType::kWebp:
      return ContentClass::kImage;
    case FileType::kHtml:
    case FileType::kCss:
    case FileType::kJs:
    case FileType::kXml:
    case FileType::kTxt:
    case FileType::kJson:
    case FileType::kMp3:
    case FileType::kUnknown:
      return ContentClass::kOther;
  }
  return ContentClass::kOther;
}

}  // namespace atlas::trace
