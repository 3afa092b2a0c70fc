// The node-based browser cache the engine once kept per user, kept as the
// reference model for cdn::BrowserTable (src/cdn/browser_table.h): one
// browser is a std::list in LRU order plus a std::unordered_map from key to
// list node. browser_table_test drives both with the same operations and
// requires the same verdicts and the same saved bytes.
//
// A lookup yields one of:
//   kFresh  — served locally, no CDN request at all (no log record);
//   kStale  — resident but expired: conditional GET, 304 if unchanged;
//   kAbsent — full fetch.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "cdn/browser_table.h"
#include "ckpt/checkpoint.h"

namespace atlas::cdn {

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
