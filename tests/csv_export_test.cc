#include "analysis/csv_export.h"

#include <gtest/gtest.h>

#include <sstream>

#include "analysis_fixtures.h"
#include "util/csv.h"

namespace atlas::analysis {
namespace {

using testing::MakeRecord;
using testing::RecordSpec;

trace::TraceBuffer SmallTrace() {
  trace::TraceBuffer buf;
  buf.Add(MakeRecord({.t = 0, .url = 1, .user = 1,
                      .type = trace::FileType::kMp4, .size = 5000000,
                      .bytes = 2000000, .code = trace::kHttpPartialContent}));
  buf.Add(MakeRecord({.t = 3600 * 1000, .url = 2, .user = 2,
                      .type = trace::FileType::kJpg, .size = 20000,
                      .bytes = 20000}));
  return buf;
}

std::vector<std::vector<std::string>> ParseCsv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) rows.push_back(util::ParseCsvLine(line));
  }
  return rows;
}

TEST(CsvExportTest, HourlyVolumeHas24Rows) {
  std::ostringstream out;
  WriteHourlyVolumeCsv({ComputeHourlyVolume(SmallTrace(), "X")}, out);
  const auto rows = ParseCsv(out.str());
  ASSERT_EQ(rows.size(), 25u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"hour", "X"}));
  // Hour 0 and hour 1 each carry 50%.
  EXPECT_EQ(rows[1][1].substr(0, 7), "50.0000");
  EXPECT_EQ(rows[2][1].substr(0, 7), "50.0000");
}

TEST(CsvExportTest, CdfSeries) {
  stats::Ecdf e;
  for (const double x : {1.0, 10.0, 100.0}) e.Add(x);
  e.Finalize();
  std::ostringstream out;
  WriteCdfCsv({{"s1", &e}}, out, 8);
  const auto rows = ParseCsv(out.str());
  ASSERT_EQ(rows.size(), 9u);  // header + 8 grid points
  EXPECT_EQ(rows[1][0], "s1");
  // Final grid point hits the max with CDF 1.
  EXPECT_EQ(rows.back()[2].substr(0, 8), "1.000000");
}

TEST(CsvExportTest, CdfSkipsEmptySeries) {
  stats::Ecdf empty;
  empty.Finalize();
  std::ostringstream out;
  WriteCdfCsv({{"none", &empty}, {"null", nullptr}}, out);
  EXPECT_EQ(ParseCsv(out.str()).size(), 1u);  // header only
}

TEST(CsvExportTest, Aging) {
  std::ostringstream out;
  WriteAgingCsv({ComputeAging(SmallTrace(), "X")}, out);
  const auto rows = ParseCsv(out.str());
  ASSERT_EQ(rows.size(), 1u + kMaxAgeDays);
  EXPECT_EQ(rows[1][1], "1");
  EXPECT_EQ(rows[1][2].substr(0, 8), "1.000000");
}

}  // namespace
}  // namespace atlas::analysis
