// CSV emitters for figure data.
//
// CSV twins of the report.h tables the figure benches plot, so the bench
// binaries can dump machine-readable series (--csv flag) for gnuplot /
// matplotlib / pandas, alongside the human-readable tables.
#pragma once

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/aging.h"
#include "analysis/temporal.h"
#include "stats/ecdf.h"

namespace atlas::analysis {

// hour,site1,site2,... percentages — Fig. 3.
void WriteHourlyVolumeCsv(const std::vector<HourlyVolume>& sites,
                          std::ostream& out);

// series,x,cdf rows over a shared log grid — Figs. 5, 6, 11, 12, 14, 15.
// Each named ECDF becomes one `series` value.
void WriteCdfCsv(
    const std::vector<std::pair<std::string, const stats::Ecdf*>>& named,
    std::ostream& out, std::size_t points = 64);

// site,age_days,fraction,fraction_uncorrected — Fig. 7.
void WriteAgingCsv(const std::vector<AgingResult>& sites, std::ostream& out);

}  // namespace atlas::analysis
