// Pattern-aware cache revalidation (§V implication).
//
// "CDNs can utilize this information to optimize cache control by
// re-validating diurnal objects less frequently and other objects more
// frequently, for example, hourly for objects with short-lived access
// patterns and daily for objects with long-lived access patterns. This can
// also be achieved by setting longer expire times for objects with diurnal
// and long-lived access patterns."
//
// RevalidationOracle maps an object (by url hash) to a freshness lifetime
// derived from its classified temporal pattern — typically built from a
// TrendClusterResult, i.e. the *analysis output drives the cache config*.
// OracleTtlCache is a TTL-LRU whose per-entry lifetime comes from the
// oracle instead of one global knob.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>

#include "cdn/cache.h"
#include "synth/site_profile.h"  // PatternType
#include "util/sorted.h"

namespace atlas::cdn {

class RevalidationOracle {
 public:
  // Registers a classified object.
  void Classify(std::uint64_t url_hash, synth::PatternType pattern);
  std::size_t classified_count() const { return patterns_.size(); }

  // Freshness lifetime for an object (default for unclassified ones),
  // following the paper's prescription: long expiry for diurnal/long-lived,
  // hourly-scale for short-lived, a default for everything unknown.
  std::int64_t TtlFor(std::uint64_t url_hash) const;
  std::int64_t TtlForPattern(synth::PatternType pattern) const;

 private:
  std::unordered_map<std::uint64_t, synth::PatternType> patterns_;
};

// TTL-LRU with per-object lifetimes from a ttl function. The function is
// called once per insert (lifetimes are latched with the entry).
class OracleTtlCache : public Cache {
 public:
  using TtlFn = std::function<std::int64_t(std::uint64_t key)>;

  OracleTtlCache(std::uint64_t capacity_bytes, TtlFn ttl_fn);

  bool Contains(std::uint64_t key) const override {
    return entries_.count(key) > 0;
  }
  std::vector<std::uint64_t> SortedKeys() const override {
    return util::SortedKeys(entries_);
  }
  std::string name() const override { return "Oracle-TTL"; }

  // Expired lookups observed so far (misses caused by staleness rather than
  // absence — the revalidation cost the oracle tunes).
  std::uint64_t expired_lookups() const { return expired_lookups_; }

 protected:
  bool Lookup(std::uint64_t key, std::int64_t now_ms) override;
  void Insert(std::uint64_t key, std::uint64_t size_bytes,
              std::int64_t now_ms) override;
  // Expiry times are latched per entry at insert, so the snapshot carries
  // them verbatim; the ttl function itself is not serialized — a restore
  // must be constructed with the same oracle (the scenario fingerprint
  // guards this at the engine level).
  void SavePolicyState(ckpt::Writer& w) const override;
  void RestorePolicyState(ckpt::Reader& r) override;

 private:
  struct Entry {
    std::uint64_t size;
    std::int64_t expires_ms;
    std::list<std::uint64_t>::iterator lru_it;
  };
  void Erase(std::uint64_t key);
  void EvictOne();

  TtlFn ttl_fn_;
  std::uint64_t expired_lookups_ = 0;
  std::list<std::uint64_t> lru_;
  std::unordered_map<std::uint64_t, Entry> entries_;
};

}  // namespace atlas::cdn
