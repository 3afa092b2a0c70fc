// Object catalog generation.
//
// A Catalog is the synthetic equivalent of "the set of objects a publisher
// stores on the CDN" (Fig. 1 counts them). Each object carries everything
// the workload generator and the CDN simulator need: identity, class,
// concrete file type, size, static popularity weight, injection time, and a
// temporal pattern. The catalog also precomputes the per-pattern hourly
// demand masses used for time-aware object sampling.
//
// Storage is memory-bounded: object records live in a ShardStore that
// keeps the table resident while it fits the profile's synth-table budget
// and switches to lazily replayed RNG-snapshot shards past it (the
// sampling machinery — per-pattern alias tables, hourly masses, aggregate
// counts — stays resident in both modes; it is what SampleObject reads on
// every draw). object() therefore returns by value; stream the catalog
// with ForEachObject instead of holding the table.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "stats/sampler.h"
#include "synth/shard_store.h"
#include "synth/site_profile.h"
#include "synth/temporal.h"
#include "trace/record.h"
#include "util/rng.h"
#include "util/time.h"

namespace atlas::synth {

struct ObjectMeta {
  std::uint64_t url_hash = 0;
  trace::ContentClass content_class = trace::ContentClass::kOther;
  trace::FileType file_type = trace::FileType::kUnknown;
  std::uint64_t size_bytes = 0;
  // Static Zipf weight (time-invariant component of demand).
  double popularity_weight = 0.0;
  // <= 0 means live before the trace started (Fig. 7's "pre-existing" mass).
  std::int64_t injected_at_ms = 0;
  PatternParams pattern;
};

// Objects per lazy catalog shard (~1.1 MB of ObjectMeta per shard).
inline constexpr std::size_t kCatalogShardItems = 8192;

class Catalog {
 public:
  // Builds a catalog for `profile`. All randomness comes from `rng`; the
  // stream is consumed identically whether the store stays resident or
  // goes lazy, so everything downstream of the catalog is budget-invariant.
  Catalog(const SiteProfile& profile, util::Rng& rng);

  std::size_t size() const { return store_.size(); }
  // By value: lazy shards are evictable, so references into them cannot be
  // handed out. `const auto& obj = catalog.object(i)` stays valid through
  // lifetime extension.
  ObjectMeta object(std::size_t i) const { return store_.Get(i); }

  // Streams every object in index order as fn(index, const ObjectMeta&);
  // peak extra memory is one shard. This replaces handing out the whole
  // table (`objects()`), which a lazy catalog cannot do.
  template <typename Fn>
  void ForEachObject(Fn&& fn) const {
    store_.ForEach(fn);
  }

  // Draws an object index with probability proportional to
  //   popularity_weight * ObjectDemandMultiplier(t)
  // via two-stage sampling: pattern type by precomputed hourly mass, then
  // rejection within the type. O(1) expected.
  std::size_t SampleObject(std::int64_t utc_ms, util::Rng& rng) const;

  // The timezone phase the catalog's diurnal patterns were generated
  // against (demand-weighted mean user offset).
  double representative_tz_hours() const { return representative_tz_hours_; }

  // True when the table exceeded its budget and went lazy (scale tests).
  bool lazy() const { return store_.lazy(); }
  const ShardStore<ObjectMeta>& store() const { return store_; }

 private:
  // Generates object `i` from `rng`: a pure function of the stream state,
  // profile, and the object's shuffled Zipf rank — both the build pass and
  // the lazy replay run exactly this.
  ObjectMeta GenerateObject(std::size_t i, util::Rng& rng) const;

  SiteProfile profile_;  // kept for lazy replay
  ShardStore<ObjectMeta> store_;
  // Shuffled Zipf rank per object; freed when the store stays resident
  // (replay is the only consumer after construction).
  std::vector<std::uint32_t> ranks_;
  // Per pattern type: member object indices plus an alias table over their
  // static weights.
  struct PatternGroup {
    std::vector<std::uint32_t> members;
    std::vector<double> weights;
    std::unique_ptr<stats::AliasTable> alias;
    double weight_total = 0.0;
  };
  std::array<PatternGroup, kNumPatternTypes> groups_;
  // Hourly demand mass per pattern group across the week.
  std::array<std::array<double, util::kHoursPerWeek>, kNumPatternTypes>
      hourly_mass_{};
  double representative_tz_hours_ = 0.0;
};

}  // namespace atlas::synth
