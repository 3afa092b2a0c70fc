// Per-user browser cache model, one flat table per engine shard.
//
// §V: "adult content providers cannot rely on browser cache to store
// locally popular content because of prevalent use of incognito/private
// web browsing" — private windows discard the cache when the session ends,
// and the paper contrasts this with Facebook serving >65% of photo requests
// from browser caches. The model: every user has a small LRU with
// HTTP-style freshness. A lookup yields one of:
//   kFresh  — served locally, no CDN request at all (no log record);
//   kStale  — resident but expired: conditional GET, 304 if unchanged;
//   kAbsent — full fetch.
//
// A shard holds hundreds of thousands of these browsers, so they share one
// table of flat arrays instead of a node-based cache each:
//   - every entry sits in one array (free slots on a free list), linked
//     into its browser's LRU list by u32 prev/next indices;
//   - every browser is one record (user, list head and tail, used bytes,
//     entry count), found from the user index through a flat hash map;
//   - one open-addressing index maps (browser, url hash) to an entry. A
//     slot holds only the entry's index; the key is read from the entry,
//     and an erase shifts later entries back, so there are no tombstones.
// Each array comes from util::PageAllocator, so a table grown on a pool
// worker gives its pages back when it dies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ckpt/checkpoint.h"
#include "util/flat_hash.h"
#include "util/page_alloc.h"

namespace atlas::cdn {

enum class BrowserLookup : std::uint8_t { kFresh = 0, kStale = 1, kAbsent = 2 };

class BrowserTable {
 public:
  // Every browser gets the same byte capacity and freshness lifetime.
  BrowserTable(std::uint64_t capacity_bytes, std::int64_t freshness_ms);

  // The browser of `user`, created empty on the user's first request.
  std::uint32_t BrowserFor(std::uint32_t user);

  // Checks `key` in `browser`; a hit, fresh or stale, becomes the most
  // recent entry. Stale entries stay resident (a 304 revalidation renews
  // them via Renew()).
  BrowserLookup Lookup(std::uint32_t browser, std::uint64_t key,
                       std::int64_t now_ms);

  // Stores an object after a 200 response for cacheable content, evicting
  // least-recent entries until it fits. A resident key is refreshed in
  // place and evicts nothing; an object larger than the capacity is not
  // cached.
  void Store(std::uint32_t browser, std::uint64_t key, std::uint64_t size_bytes,
             std::int64_t now_ms);

  // Renews freshness after a 304 revalidation; recency does not change.
  void Renew(std::uint32_t browser, std::uint64_t key, std::int64_t now_ms);

  // Discards one browser's entries — the incognito-window-closed event.
  void Clear(std::uint32_t browser);

  // Writes the browser count, then every browser, empty ones included, in
  // user-index order as its u32 user index and a version-1 blob: capacity,
  // freshness, entry count, then (key, size, fresh-until) from most to
  // least recent. A save keeps that order for the next one. Restore
  // replaces the whole table with a saved one and requires the same
  // capacity and freshness.
  void Save(ckpt::Writer& w);
  void Restore(ckpt::Reader& r);

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t size = 0;
    std::int64_t fresh_until_ms = 0;
    std::uint32_t browser = 0;
    std::uint32_t prev = kNil;  // toward the most recent
    std::uint32_t next = kNil;  // toward the least recent; the free list
  };
  struct Browser {
    std::uint32_t user = 0;
    std::uint32_t head = kNil;  // most recent
    std::uint32_t tail = kNil;  // least recent
    std::uint32_t entries = 0;
    std::uint64_t used_bytes = 0;
  };
  template <typename T>
  using Array = std::vector<T, util::PageAllocator<T>>;

  std::uint64_t Hash(std::uint32_t browser, std::uint64_t key) const;
  // The index slot holding `key` of `browser`, or the empty slot that ends
  // its probe.
  std::size_t Probe(std::uint32_t browser, std::uint64_t key) const;
  // The entry of `key` in `browser`, or kNil.
  std::uint32_t Find(std::uint32_t browser, std::uint64_t key) const;
  // Adds an absent key to `browser` as its most recent entry (front) or
  // its least recent one.
  void Insert(std::uint32_t browser, std::uint64_t key, std::uint64_t size,
              std::int64_t fresh_until_ms, bool front);
  // Takes entry `e` out of the index and its browser's list, and frees it.
  void Remove(std::uint32_t e);
  void Link(std::uint32_t e, bool front);
  void Unlink(std::uint32_t e);
  void MakeMostRecent(std::uint32_t e);
  void GrowIndex();

  std::uint64_t capacity_bytes_;
  std::int64_t freshness_ms_;
  Array<Entry> entries_;
  std::uint32_t free_ = kNil;  // head of the free entry list
  std::uint32_t live_ = 0;     // entries in use
  Array<std::uint32_t> slots_;  // entry index or kNil; size a power of two
  Array<Browser> browsers_;
  util::FlatHashMap<std::uint32_t, std::uint32_t> by_user_;
  // The browsers as of the last save, sorted by user index.
  Array<std::uint32_t> save_order_;
};

}  // namespace atlas::cdn
