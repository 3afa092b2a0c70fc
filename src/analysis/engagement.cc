#include "analysis/engagement.h"

#include <algorithm>
#include <stdexcept>

#include "analysis/feed.h"
#include "trace/content_class.h"

namespace atlas::analysis {

EngagementAccumulator::EngagementAccumulator(double addicted_ratio,
                                             std::size_t size_hint)
    : addicted_ratio_(addicted_ratio) {
  pair_counts_.reserve(size_hint);
}

void EngagementAccumulator::AddBatch(const trace::RecordBlock& b,
                                     const std::uint32_t* rows,
                                     std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = rows ? rows[k] : k;
    const std::uint64_t url = b.url_hash[i];
    // A repeat (object, user) pair implies the object's class is already
    // stored, so the common case is a single probe.
    auto [slot, inserted] = pair_counts_.TryEmplace({url, b.user_id[i]});
    ++*slot;
    if (inserted) {
      classes_.InsertIfAbsent(url, trace::ClassOf(b.file_type[i]));
    }
  }
}

EngagementResult EngagementAccumulator::Finalize(
    const std::string& site_name) {
  EngagementResult result;
  result.site = site_name;
  const double addicted_ratio = addicted_ratio_;

  util::FlatHashMap<std::uint64_t, ObjectEngagement> per_object;
  per_object.reserve(classes_.size());
  // Per-key integer sums/max commute, so table layout order is fine here.
  pair_counts_.ForEach([&](const std::pair<std::uint64_t, std::uint64_t>& key,
                           std::uint64_t count) {
    auto& obj = per_object[key.first];
    obj.url_hash = key.first;
    obj.content_class = classes_.At(key.first);
    obj.requests += count;
    obj.unique_users += 1;
    obj.max_requests_per_user = std::max(obj.max_requests_per_user, count);
  });

  result.objects.reserve(per_object.size());
  std::uint64_t video_over_10 = 0, video_total = 0;
  std::uint64_t image_over_10 = 0, image_total = 0;
  // Ecdf adds and integer counters commute; result.objects is explicitly
  // sorted below.
  per_object.ForEach([&](std::uint64_t, const ObjectEngagement& obj) {
    const double rpu = obj.RequestsPerUser();
    if (obj.content_class == trace::ContentClass::kVideo) {
      result.video_requests_per_user.Add(rpu);
      ++video_total;
      if (obj.max_requests_per_user > 10) ++video_over_10;
    } else if (obj.content_class == trace::ContentClass::kImage) {
      result.image_requests_per_user.Add(rpu);
      ++image_total;
      if (obj.max_requests_per_user > 10) ++image_over_10;
    }
    if (rpu >= addicted_ratio) {
      ++result.addicted_objects;
    } else {
      ++result.viral_objects;
    }
    result.objects.push_back(obj);
  });
  // Deterministic order for downstream output.
  std::sort(result.objects.begin(), result.objects.end(),
            [](const ObjectEngagement& a, const ObjectEngagement& b) {
              if (a.requests != b.requests) return a.requests > b.requests;
              return a.url_hash < b.url_hash;
            });
  result.video_requests_per_user.Finalize();
  result.image_requests_per_user.Finalize();
  result.video_frac_over_10 =
      video_total == 0 ? 0.0
                       : static_cast<double>(video_over_10) /
                             static_cast<double>(video_total);
  result.image_frac_over_10 =
      image_total == 0 ? 0.0
                       : static_cast<double>(image_over_10) /
                             static_cast<double>(image_total);
  return result;
}

EngagementResult ComputeEngagement(const trace::TraceBuffer& trace,
                                   const std::string& site_name,
                                   double addicted_ratio) {
  EngagementAccumulator acc(addicted_ratio, trace.size());
  FeedTrace(trace, acc);
  return acc.Finalize(site_name);
}

namespace {
constexpr std::uint32_t kEngagementStateVersion = 1;
}  // namespace

void EngagementAccumulator::SaveState(ckpt::Writer& w) const {
  w.WriteVersion(kEngagementStateVersion);
  w.WriteDouble(addicted_ratio_);
  w.WriteU64(pair_counts_.size());
  for (const auto& key : pair_counts_.SortedKeys()) {
    w.WriteU64(key.first);
    w.WriteU64(key.second);
    w.WriteU64(pair_counts_.At(key));
  }
  w.WriteU64(classes_.size());
  for (const std::uint64_t hash : classes_.SortedKeys()) {
    w.WriteU64(hash);
    w.WriteU8(static_cast<std::uint8_t>(classes_.At(hash)));
  }
}

void EngagementAccumulator::RestoreState(ckpt::Reader& r) {
  r.ExpectVersion("engagement accumulator", kEngagementStateVersion);
  const double saved_ratio = r.ReadDouble();
  if (saved_ratio != addicted_ratio_) {
    throw std::runtime_error(
        "ckpt: engagement addicted-ratio mismatch (checkpoint has " +
        std::to_string(saved_ratio) + ", this run uses " +
        std::to_string(addicted_ratio_) + ")");
  }
  pair_counts_.clear();
  const std::uint64_t npairs = r.ReadU64();
  pair_counts_.reserve(static_cast<std::size_t>(npairs));
  for (std::uint64_t i = 0; i < npairs; ++i) {
    const std::uint64_t object = r.ReadU64();
    const std::uint64_t user = r.ReadU64();
    pair_counts_[{object, user}] = r.ReadU64();
  }
  classes_.clear();
  const std::uint64_t nclasses = r.ReadU64();
  classes_.reserve(static_cast<std::size_t>(nclasses));
  for (std::uint64_t i = 0; i < nclasses; ++i) {
    const std::uint64_t hash = r.ReadU64();
    classes_[hash] = static_cast<trace::ContentClass>(r.ReadU8());
  }
}

}  // namespace atlas::analysis
