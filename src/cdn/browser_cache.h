// Per-user browser cache model.
//
// §V: "adult content providers cannot rely on browser cache to store
// locally popular content because of prevalent use of incognito/private
// web browsing" — private windows discard the cache when the session ends,
// and the paper contrasts this with Facebook serving >65% of photo requests
// from browser caches. The model: a small LRU with HTTP-style freshness.
// A lookup yields one of:
//   kFresh  — served locally, no CDN request at all (no log record);
//   kStale  — resident but expired: conditional GET, 304 if unchanged;
//   kAbsent — full fetch.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "ckpt/checkpoint.h"
#include "trace/record.h"

namespace atlas::cdn {

enum class BrowserLookup : std::uint8_t { kFresh = 0, kStale = 1, kAbsent = 2 };

class BrowserCache {
 public:
  BrowserCache(std::uint64_t capacity_bytes, std::int64_t freshness_ms);

  // Checks `key`; fresh hits refresh recency. Stale entries stay resident
  // (a 304 revalidation renews them via Renew()).
  BrowserLookup Lookup(std::uint64_t key, std::int64_t now_ms);

  // Stores an object (called after a 200 response for cacheable content).
  void Store(std::uint64_t key, std::uint64_t size_bytes, std::int64_t now_ms);

  // Renews freshness after a 304 revalidation.
  void Renew(std::uint64_t key, std::int64_t now_ms);

  // Discards everything — the incognito-window-closed event.
  void Clear();

  std::uint64_t used_bytes() const { return used_bytes_; }
  std::size_t entry_count() const { return entries_.size(); }

  // Checkpoints the LRU order and per-entry freshness so a restored
  // browser cache serves the same fresh/stale/absent verdicts. Restore
  // requires matching capacity/freshness configuration.
  void SaveState(ckpt::Writer& w) const;
  void RestoreState(ckpt::Reader& r);

 private:
  // An entry lives on its LRU list node, so a save walks the list in order
  // with no hash lookup; the map only finds a key's node.
  struct Entry {
    std::uint64_t key;
    std::uint64_t size;
    std::int64_t fresh_until_ms;
  };
  using Lru = std::list<Entry>;
  void EvictOne();

  std::uint64_t capacity_bytes_;
  std::int64_t freshness_ms_;
  std::uint64_t used_bytes_ = 0;
  Lru lru_;  // front = most recent
  std::unordered_map<std::uint64_t, Lru::iterator> entries_;
};

}  // namespace atlas::cdn
