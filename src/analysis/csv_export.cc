#include "analysis/csv_export.h"

#include <algorithm>
#include <cmath>

#include "trace/record.h"
#include "util/csv.h"

namespace atlas::analysis {

void WriteHourlyVolumeCsv(const std::vector<HourlyVolume>& sites,
                          std::ostream& out) {
  util::CsvWriter csv(out);
  std::vector<std::string> header = {"hour"};
  for (const auto& s : sites) header.push_back(s.site);
  csv.Row(header);
  for (int h = 0; h < 24; ++h) {
    csv.Field(static_cast<std::int64_t>(h));
    for (const auto& s : sites) {
      csv.Field(s.percent_by_hour[static_cast<std::size_t>(h)], 4);
    }
    csv.EndRow();
  }
}

void WriteCdfCsv(
    const std::vector<std::pair<std::string, const stats::Ecdf*>>& named,
    std::ostream& out, std::size_t points) {
  util::CsvWriter csv(out);
  csv.Row({"series", "x", "cdf"});
  for (const auto& [name, ecdf] : named) {
    if (ecdf == nullptr || ecdf->empty()) continue;
    for (const auto& [x, y] : ecdf->LogGrid(std::max<std::size_t>(points, 2))) {
      csv.Field(name).Field(x, 6).Field(y, 6);
      csv.EndRow();
    }
  }
}

void WriteAgingCsv(const std::vector<AgingResult>& sites, std::ostream& out) {
  util::CsvWriter csv(out);
  csv.Row({"site", "age_days", "fraction_requested",
           "fraction_requested_uncorrected"});
  for (const auto& s : sites) {
    for (int d = 0; d < kMaxAgeDays; ++d) {
      const auto i = static_cast<std::size_t>(d);
      csv.Field(s.site)
          .Field(static_cast<std::int64_t>(d + 1))
          .Field(s.fraction_requested[i], 6)
          .Field(s.fraction_requested_uncorrected[i], 6);
      csv.EndRow();
    }
  }
}

}  // namespace atlas::analysis
