#include "analysis/popularity.h"

#include "analysis/feed.h"
#include "trace/content_class.h"

namespace atlas::analysis {

PopularityAccumulator::PopularityAccumulator(std::size_t size_hint) {
  counts_.reserve(size_hint / 4 + 1);
}

void PopularityAccumulator::AddBatch(const trace::RecordBlock& b,
                                     const std::uint32_t* rows,
                                     std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = rows ? rows[k] : k;
    const std::uint64_t url = b.url_hash[i];
    // One probe for the common repeat case: the class only needs storing
    // the first time an object appears.
    auto [slot, inserted] = counts_.TryEmplace(url);
    ++*slot;
    if (inserted) classes_[url] = trace::ClassOf(b.file_type[i]);
  }
}

PopularityResult PopularityAccumulator::Finalize(
    const std::string& site_name) {
  PopularityResult result;
  result.site = site_name;

  // Sorted-hash order: FitPowerLaw accumulates log-sums in sample order, so
  // the order must not depend on hash-table layout.
  std::vector<double> all;
  all.reserve(counts_.size());
  for (const auto hash : counts_.SortedKeys()) {
    const auto c = static_cast<double>(counts_.At(hash));
    all.push_back(c);
    switch (classes_.At(hash)) {
      case trace::ContentClass::kVideo:
        result.video_counts.Add(c);
        break;
      case trace::ContentClass::kImage:
        result.image_counts.Add(c);
        break;
      case trace::ContentClass::kOther:
        break;
    }
    result.all_counts.Add(c);
  }
  result.video_counts.Finalize();
  result.image_counts.Finalize();
  result.all_counts.Finalize();

  if (!all.empty()) {
    result.top10_share = stats::TopShare(all, 0.10);
    result.gini = stats::Gini(all);
    result.power_law = stats::FitPowerLawAuto(all);
  }
  return result;
}

PopularityResult ComputePopularity(const trace::TraceBuffer& trace,
                                   const std::string& site_name) {
  PopularityAccumulator acc(trace.size());
  FeedTrace(trace, acc);
  return acc.Finalize(site_name);
}

}  // namespace atlas::analysis
