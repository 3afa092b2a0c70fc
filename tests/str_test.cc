#include "util/str.h"

#include <gtest/gtest.h>

namespace atlas::util {
namespace {

TEST(SplitTest, Basic) {
  const auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, PreservesEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, EmptyInput) {
  const auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(TrimTest, Whitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(ToLowerTest, MixedCase) {
  EXPECT_EQ(ToLower("MoZiLLa/5.0"), "mozilla/5.0");
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-", "--"));
}

TEST(ContainsIgnoreCaseTest, Matches) {
  EXPECT_TRUE(ContainsIgnoreCase("Mozilla/5.0 (iPhone; ...)", "iphone"));
  EXPECT_TRUE(ContainsIgnoreCase("abc", ""));
  EXPECT_FALSE(ContainsIgnoreCase("ab", "abc"));
  EXPECT_FALSE(ContainsIgnoreCase("Mozilla", "android"));
}

TEST(FormatBytesTest, Units) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1536), "1.5 KB");
  EXPECT_EQ(FormatBytes(1048576), "1.0 MB");
  EXPECT_EQ(FormatBytes(323.0 * 1024 * 1024 * 1024 * 1024), "323.0 TB");
}

TEST(FormatCountTest, Units) {
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1200), "1.2K");
  EXPECT_EQ(FormatCount(80e6), "80.0M");
  EXPECT_EQ(FormatCount(3.1e9), "3.1B");
}

TEST(FormatPercentTest, Decimals) {
  EXPECT_EQ(FormatPercent(0.123), "12.3%");
  EXPECT_EQ(FormatPercent(0.9999, 0), "100%");
  EXPECT_EQ(FormatPercent(0.005, 2), "0.50%");
}

TEST(PadTest, RightAndLeft) {
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("abcdef", 4), "abcd");
  EXPECT_EQ(PadLeft("abcdef", 4), "abcd");
}

TEST(ParseUint64Test, Valid) {
  EXPECT_EQ(ParseUint64("0"), 0u);
  EXPECT_EQ(ParseUint64(" 42 "), 42u);
  EXPECT_EQ(ParseUint64("18446744073709551615"), ~0ULL);
}

TEST(ParseUint64Test, Invalid) {
  EXPECT_THROW(ParseUint64(""), std::invalid_argument);
  EXPECT_THROW(ParseUint64("12x"), std::invalid_argument);
  EXPECT_THROW(ParseUint64("-1"), std::invalid_argument);
}

TEST(ParseDoubleTest, Valid) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-2"), -2.0);
  EXPECT_DOUBLE_EQ(ParseDouble("1e6"), 1e6);
}

TEST(ParseDoubleTest, Invalid) {
  EXPECT_THROW(ParseDouble("abc"), std::invalid_argument);
  EXPECT_THROW(ParseDouble("1.2.3"), std::invalid_argument);
}

}  // namespace
}  // namespace atlas::util
