#include "cdn/revalidation.h"

#include <stdexcept>

namespace atlas::cdn {
namespace {

// Lifetimes per pattern (§V): daily for diurnal and long-lived objects,
// hourly for short-lived and flash-crowd ones, in between for outliers.
constexpr std::int64_t kHourMs = 3600 * 1000LL;
constexpr std::int64_t kDiurnalTtlMs = 24 * kHourMs;
constexpr std::int64_t kLongLivedTtlMs = 24 * kHourMs;
constexpr std::int64_t kShortLivedTtlMs = kHourMs;
constexpr std::int64_t kFlashTtlMs = kHourMs;
constexpr std::int64_t kOutlierTtlMs = 4 * kHourMs;
constexpr std::int64_t kDefaultTtlMs = 6 * kHourMs;

}  // namespace

void RevalidationOracle::Classify(std::uint64_t url_hash,
                                  synth::PatternType pattern) {
  patterns_[url_hash] = pattern;
}

std::int64_t RevalidationOracle::TtlForPattern(
    synth::PatternType pattern) const {
  switch (pattern) {
    case synth::PatternType::kDiurnal:
      return kDiurnalTtlMs;
    case synth::PatternType::kLongLived:
      return kLongLivedTtlMs;
    case synth::PatternType::kShortLived:
      return kShortLivedTtlMs;
    case synth::PatternType::kFlashCrowd:
      return kFlashTtlMs;
    case synth::PatternType::kOutlier:
      return kOutlierTtlMs;
  }
  return kDefaultTtlMs;
}

std::int64_t RevalidationOracle::TtlFor(std::uint64_t url_hash) const {
  const auto it = patterns_.find(url_hash);
  if (it == patterns_.end()) return kDefaultTtlMs;
  return TtlForPattern(it->second);
}

OracleTtlCache::OracleTtlCache(std::uint64_t capacity_bytes, TtlFn ttl_fn)
    : Cache(capacity_bytes), ttl_fn_(std::move(ttl_fn)) {
  if (!ttl_fn_) throw std::invalid_argument("OracleTtlCache: null ttl fn");
}

void OracleTtlCache::Erase(std::uint64_t key) {
  auto it = entries_.find(key);
  lru_.erase(it->second.lru_it);
  OnEvictBytes(it->second.size);
  entries_.erase(it);
}

bool OracleTtlCache::Lookup(std::uint64_t key, std::int64_t now_ms) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  if (now_ms >= it->second.expires_ms) {
    ++expired_lookups_;
    Erase(key);
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return true;
}

void OracleTtlCache::Insert(std::uint64_t key, std::uint64_t size_bytes,
                            std::int64_t now_ms) {
  while (used_bytes() + size_bytes > capacity_bytes()) EvictOne();
  const std::int64_t ttl = ttl_fn_(key);
  if (ttl <= 0) throw std::logic_error("OracleTtlCache: non-positive ttl");
  lru_.push_front(key);
  entries_[key] = Entry{size_bytes, now_ms + ttl, lru_.begin()};
  OnInsertBytes(size_bytes);
}

void OracleTtlCache::EvictOne() {
  if (lru_.empty()) throw std::logic_error("OracleTtlCache: evict from empty");
  Erase(lru_.back());
}

namespace {
constexpr std::uint32_t kOracleTtlStateVersion = 1;
}  // namespace

void OracleTtlCache::SavePolicyState(ckpt::Writer& w) const {
  w.WriteVersion(kOracleTtlStateVersion);
  w.WriteU64(expired_lookups_);
  w.WriteU64(static_cast<std::uint64_t>(lru_.size()));
  for (std::uint64_t key : lru_) {
    const Entry& e = entries_.at(key);
    w.WriteU64(key);
    w.WriteU64(e.size);
    w.WriteI64(e.expires_ms);
  }
}

void OracleTtlCache::RestorePolicyState(ckpt::Reader& r) {
  r.ExpectVersion("Oracle-TTL policy", kOracleTtlStateVersion);
  expired_lookups_ = r.ReadU64();
  lru_.clear();
  entries_.clear();
  const std::uint64_t n = r.ReadU64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t key = r.ReadU64();
    Entry e;
    e.size = r.ReadU64();
    e.expires_ms = r.ReadI64();
    lru_.push_back(key);
    e.lru_it = std::prev(lru_.end());
    entries_[key] = e;
  }
}

}  // namespace atlas::cdn
