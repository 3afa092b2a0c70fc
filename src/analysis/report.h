// Figure/report renderers.
//
// Each Render* function prints the same rows/series the corresponding paper
// figure reports, as aligned text tables (and optionally CSV via the shared
// grid helpers). The bench binaries are thin wrappers around these. The
// multi-site renderers take one pointer per site, in column order, so a
// caller holding the results elsewhere (AnalysisSuite's SiteAnalysis list)
// renders them without copying; the results must outlive the call.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "analysis/aging.h"
#include "analysis/caching.h"
#include "analysis/composition.h"
#include "analysis/devices.h"
#include "analysis/engagement.h"
#include "analysis/popularity.h"
#include "analysis/sessions.h"
#include "analysis/sizes.h"
#include "analysis/temporal.h"
#include "analysis/trend_cluster.h"

namespace atlas::analysis {

// §III summary ("323 TB ... 80 million users ...") across sites.
void RenderDatasetSummaries(
    const std::vector<const DatasetSummary*>& summaries, std::ostream& out);

// Fig. 1: object counts + class shares per site.
void RenderContentComposition(
    const std::vector<const CompositionResult*>& sites, std::ostream& out);
// Fig. 2(a)/(b): request counts and bytes per class per site.
void RenderTrafficComposition(
    const std::vector<const CompositionResult*>& sites, std::ostream& out);

// Fig. 3: hourly percentage series (24 rows, one column per site).
void RenderHourlyVolume(const std::vector<const HourlyVolume*>& sites,
                        std::ostream& out);

// Fig. 4: device mix per site.
void RenderDeviceComposition(
    const std::vector<const DeviceComposition*>& sites, std::ostream& out);

// Fig. 5: size CDF grid per site/class + bimodality/threshold stats.
void RenderSizeDistributions(
    const std::vector<const SizeDistributions*>& sites, std::ostream& out,
    std::size_t grid_points = 25);

// Fig. 6: popularity CDFs + skew summaries.
void RenderPopularity(const std::vector<const PopularityResult*>& sites,
                      std::ostream& out, std::size_t grid_points = 25);

// Fig. 7: fraction of objects requested at each age.
void RenderAging(const std::vector<const AgingResult*>& sites,
                 std::ostream& out);

// Fig. 8: cluster shares with shape labels (dendrogram summary).
void RenderTrendClusters(const TrendClusterResult& result, std::ostream& out);

// Figs. 9/10: medoid series as sparklines plus +-sigma envelope width.
void RenderClusterMedoids(const TrendClusterResult& result, std::ostream& out,
                          std::size_t width = 56);

// Fig. 11/12: IAT and session-length CDFs at the paper's x-axis points.
void RenderSessions(const std::vector<const SessionResult*>& sites,
                    std::ostream& out);

// Fig. 13: requests vs. users scatter summary (log-binned) for one site.
void RenderRepeatedAccess(const EngagementResult& result, std::ostream& out);

// Fig. 14: requests-per-user CDFs + addiction headline numbers.
void RenderEngagement(const std::vector<const EngagementResult*>& sites,
                      std::ostream& out);

// Fig. 15: hit-ratio CDFs + aggregate ratios + popularity correlation.
void RenderCaching(const std::vector<const CachingResult*>& sites,
                   std::ostream& out);

// Fig. 16: response-code counts per class per site.
void RenderResponseCodes(const std::vector<const CachingResult*>& sites,
                         std::ostream& out);

}  // namespace atlas::analysis
