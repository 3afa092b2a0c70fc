#include "browser_cache.h"

#include <iterator>
#include <stdexcept>

namespace atlas::cdn {

BrowserCache::BrowserCache(std::uint64_t capacity_bytes,
                           std::int64_t freshness_ms)
    : capacity_bytes_(capacity_bytes), freshness_ms_(freshness_ms) {
  if (capacity_bytes == 0 || freshness_ms <= 0) {
    throw std::invalid_argument("BrowserCache: bad capacity or freshness");
  }
}

BrowserLookup BrowserCache::Lookup(std::uint64_t key, std::int64_t now_ms) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return BrowserLookup::kAbsent;
  lru_.splice(lru_.begin(), lru_, it->second);
  return now_ms < it->second->fresh_until_ms ? BrowserLookup::kFresh
                                             : BrowserLookup::kStale;
}

void BrowserCache::Store(std::uint64_t key, std::uint64_t size_bytes,
                         std::int64_t now_ms) {
  if (size_bytes > capacity_bytes_) return;  // uncacheable
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Refresh in place.
    Entry& e = *it->second;
    used_bytes_ -= e.size;
    e.size = size_bytes;
    e.fresh_until_ms = now_ms + freshness_ms_;
    used_bytes_ += size_bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  while (used_bytes_ + size_bytes > capacity_bytes_) EvictOne();
  lru_.push_front(Entry{key, size_bytes, now_ms + freshness_ms_});
  entries_[key] = lru_.begin();
  used_bytes_ += size_bytes;
}

void BrowserCache::Renew(std::uint64_t key, std::int64_t now_ms) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  it->second->fresh_until_ms = now_ms + freshness_ms_;
}

void BrowserCache::Clear() {
  lru_.clear();
  entries_.clear();
  used_bytes_ = 0;
}

namespace {
constexpr std::uint32_t kBrowserStateVersion = 1;
}  // namespace

void BrowserCache::SaveState(ckpt::Writer& w) const {
  w.WriteVersion(kBrowserStateVersion);
  w.WriteU64(capacity_bytes_);
  w.WriteI64(freshness_ms_);
  w.WriteU64(static_cast<std::uint64_t>(lru_.size()));
  for (const Entry& e : lru_) {  // front = most recent
    w.WriteU64(e.key);
    w.WriteU64(e.size);
    w.WriteI64(e.fresh_until_ms);
  }
}

void BrowserCache::RestoreState(ckpt::Reader& r) {
  r.ExpectVersion("browser cache", kBrowserStateVersion);
  const std::uint64_t saved_capacity = r.ReadU64();
  const std::int64_t saved_freshness = r.ReadI64();
  if (saved_capacity != capacity_bytes_ || saved_freshness != freshness_ms_) {
    throw std::runtime_error(
        "ckpt: browser cache configuration mismatch (checkpoint has " +
        std::to_string(saved_capacity) + " bytes / " +
        std::to_string(saved_freshness) + " ms)");
  }
  Clear();
  const std::uint64_t n = r.ReadU64();
  for (std::uint64_t i = 0; i < n; ++i) {
    Entry e;
    e.key = r.ReadU64();
    e.size = r.ReadU64();
    e.fresh_until_ms = r.ReadI64();
    lru_.push_back(e);
    entries_[e.key] = std::prev(lru_.end());
    used_bytes_ += e.size;
  }
}

void BrowserCache::EvictOne() {
  if (lru_.empty()) throw std::logic_error("BrowserCache: evict from empty");
  const Entry& victim = lru_.back();
  used_bytes_ -= victim.size;
  entries_.erase(victim.key);
  lru_.pop_back();
}

}  // namespace atlas::cdn
