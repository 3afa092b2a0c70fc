// User engagement & addiction (Figs. 13, 14).
//
// Fig. 13: per-object scatter of total requests vs. unique users — points
// far above the diagonal are objects popular because one user re-requests
// them ("addiction"); points on the diagonal are popular because many users
// request them once ("viral").
// Fig. 14: CDF of requests-per-user per object: "less than 1% of image
// objects are requested more than 10 times by a user, whereas at least 10%
// of video objects have more than 10 requests per unique user."
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats/ecdf.h"
#include "trace/block.h"
#include "trace/record.h"
#include "trace/trace_buffer.h"
#include "util/flat_hash.h"

namespace atlas::analysis {

struct ObjectEngagement {
  std::uint64_t url_hash = 0;
  trace::ContentClass content_class = trace::ContentClass::kOther;
  std::uint64_t requests = 0;
  std::uint64_t unique_users = 0;
  // Maximum requests any single user made for this object.
  std::uint64_t max_requests_per_user = 0;

  double RequestsPerUser() const {
    return unique_users == 0 ? 0.0
                             : static_cast<double>(requests) /
                                   static_cast<double>(unique_users);
  }
};

struct EngagementResult {
  std::string site;
  // Fig. 13 scatter points (every object).
  std::vector<ObjectEngagement> objects;
  // Fig. 14 CDFs of mean requests-per-user, split by class.
  stats::Ecdf video_requests_per_user;
  stats::Ecdf image_requests_per_user;
  // Headline addiction metrics.
  double video_frac_over_10 = 0.0;  // video objects with > 10 req/user
  double image_frac_over_10 = 0.0;
  // Objects whose demand is >= `addicted_ratio` x their user count.
  std::uint64_t addicted_objects = 0;
  std::uint64_t viral_objects = 0;
};

// Single-pass accumulator behind ComputeEngagement; state is one counter
// per distinct (object, user) pair.
class EngagementAccumulator {
 public:
  explicit EngagementAccumulator(double addicted_ratio = 3.0,
                                 std::size_t size_hint = 0);
  // Rows rows[0..n) of b (all of [0, n) when rows is null), in that order.
  void AddBatch(const trace::RecordBlock& b, const std::uint32_t* rows,
                std::size_t n);
  EngagementResult Finalize(const std::string& site_name);

 private:
  double addicted_ratio_;
  util::FlatHashMap<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t,
                    util::FlatPairHash>
      pair_counts_;
  util::FlatHashMap<std::uint64_t, trace::ContentClass> classes_;
};

// `addicted_ratio`: requests/user above which an object counts as
// addiction-driven rather than viral.
EngagementResult ComputeEngagement(const trace::TraceBuffer& trace,
                                   const std::string& site_name,
                                   double addicted_ratio = 3.0);

}  // namespace atlas::analysis
