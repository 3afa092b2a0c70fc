// atlas-bench --compare A.json... -- B.json...
//
// Compares two sets of results files (A: the parent, B: the change), one
// file per run set, workload by workload and end-to-end metric by metric.
// Each side's value for a file is that run's median; a row shows each
// side's median with p25/p75 over its files, the relative delta, how many
// of the A[i]/B[i] pairs B wins, and a verdict against the metric's
// BENCHMARK.json bound:
//   improved    over at least ten pairs, B wins at least nine in ten,
//               and the medians differ, in B's favour, by more than A's
//               own quartile spread;
//   regressed   B is worse than A by more than the bound even when the
//               sides' quartiles are paired most favourably for B;
//   unresolved  the quartiles straddle the bound (worse by more than it at
//               the unfavourable pairing), and not every B run beats every
//               A run;
//   no change   otherwise.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "report.h"

namespace atlas::bench {

// Prints the comparison table; returns 1 if any row regressed, else 0.
int Compare(const std::vector<std::string>& a_files,
            const std::vector<std::string>& b_files,
            const BenchmarkSpec& spec, std::ostream& out);

}  // namespace atlas::bench
