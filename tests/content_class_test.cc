#include "trace/content_class.h"

#include <gtest/gtest.h>

namespace atlas::trace {
namespace {

TEST(ClassOfTest, PaperCategories) {
  // §IV-A's examples: video (FLV, MP4, MPG, AVI, WMV), image (JPG, PNG,
  // GIF, TIFF, BMP), other (text, audio, HTML, CSS, XML, JS).
  EXPECT_EQ(ClassOf(FileType::kFlv), ContentClass::kVideo);
  EXPECT_EQ(ClassOf(FileType::kMp4), ContentClass::kVideo);
  EXPECT_EQ(ClassOf(FileType::kMpg), ContentClass::kVideo);
  EXPECT_EQ(ClassOf(FileType::kAvi), ContentClass::kVideo);
  EXPECT_EQ(ClassOf(FileType::kWmv), ContentClass::kVideo);
  EXPECT_EQ(ClassOf(FileType::kJpg), ContentClass::kImage);
  EXPECT_EQ(ClassOf(FileType::kPng), ContentClass::kImage);
  EXPECT_EQ(ClassOf(FileType::kGif), ContentClass::kImage);
  EXPECT_EQ(ClassOf(FileType::kTiff), ContentClass::kImage);
  EXPECT_EQ(ClassOf(FileType::kBmp), ContentClass::kImage);
  EXPECT_EQ(ClassOf(FileType::kHtml), ContentClass::kOther);
  EXPECT_EQ(ClassOf(FileType::kCss), ContentClass::kOther);
  EXPECT_EQ(ClassOf(FileType::kJs), ContentClass::kOther);
  EXPECT_EQ(ClassOf(FileType::kXml), ContentClass::kOther);
  EXPECT_EQ(ClassOf(FileType::kMp3), ContentClass::kOther);
  EXPECT_EQ(ClassOf(FileType::kUnknown), ContentClass::kOther);
}

}  // namespace
}  // namespace atlas::trace
