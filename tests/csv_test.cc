#include "util/csv.h"

#include <gtest/gtest.h>

#include <sstream>

namespace atlas::util {
namespace {

TEST(CsvWriterTest, PlainRow) {
  std::ostringstream out;
  CsvWriter w(out);
  w.Field("a").Field("b").Field(std::uint64_t{42});
  w.EndRow();
  EXPECT_EQ(out.str(), "a,b,42\n");
}

TEST(CsvWriterTest, QuotesSpecialCharacters) {
  std::ostringstream out;
  CsvWriter w(out);
  w.Field("has,comma").Field("has\"quote").Field("has\nnewline");
  w.EndRow();
  EXPECT_EQ(out.str(), "\"has,comma\",\"has\"\"quote\",\"has\nnewline\"\n");
}

TEST(CsvWriterTest, DoubleFormatting) {
  std::ostringstream out;
  CsvWriter w(out);
  w.Field(3.14159, 2).Field(std::int64_t{-5});
  w.EndRow();
  EXPECT_EQ(out.str(), "3.14,-5\n");
}

TEST(CsvWriterTest, RowHelper) {
  std::ostringstream out;
  CsvWriter w(out);
  w.Row({"x", "y"});
  w.Row({"1", "2"});
  EXPECT_EQ(out.str(), "x,y\n1,2\n");
}

TEST(ParseCsvLineTest, Plain) {
  const auto f = ParseCsvLine("a,b,c");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[2], "c");
}

TEST(ParseCsvLineTest, Quoted) {
  const auto f = ParseCsvLine("\"has,comma\",\"x\"\"y\"");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0], "has,comma");
  EXPECT_EQ(f[1], "x\"y");
}

TEST(ParseCsvLineTest, EmptyFields) {
  const auto f = ParseCsvLine(",,");
  ASSERT_EQ(f.size(), 3u);
  for (const auto& x : f) EXPECT_TRUE(x.empty());
}

TEST(ParseCsvLineTest, UnterminatedQuoteThrows) {
  EXPECT_THROW(ParseCsvLine("\"open"), std::invalid_argument);
}

TEST(CsvRoundTripTest, WriterOutputParsesBack) {
  std::ostringstream out;
  CsvWriter w(out);
  const std::vector<std::string> row = {"plain", "with,comma", "wi\"th",
                                        "multi\nline"};
  w.Row(row);
  // Strip trailing newline; ParseCsvLine is single-line, but the embedded
  // newline is inside quotes... our writer quotes it, so split at the real
  // terminator only.
  std::string line = out.str();
  line.pop_back();
  // ParseCsvLine handles embedded newline since it is inside quotes.
  const auto parsed = ParseCsvLine(line);
  EXPECT_EQ(parsed, row);
}

}  // namespace
}  // namespace atlas::util
