#include "cdn/browser_table.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace atlas::cdn {
namespace {

constexpr std::uint32_t kBrowserStateVersion = 1;
// A saved browser with no entries: user index, version, capacity,
// freshness and entry count.
constexpr std::size_t kBrowserBlobBytes = 4 + 4 + 8 + 8 + 8;
// A saved entry: key, size and fresh-until time.
constexpr std::size_t kEntryBlobBytes = 8 + 8 + 8;
constexpr std::size_t kMinIndexSlots = 16;

}  // namespace

BrowserTable::BrowserTable(std::uint64_t capacity_bytes,
                           std::int64_t freshness_ms)
    : capacity_bytes_(capacity_bytes), freshness_ms_(freshness_ms) {
  if (capacity_bytes == 0 || freshness_ms <= 0) {
    throw std::invalid_argument("BrowserTable: bad capacity or freshness");
  }
  slots_.assign(kMinIndexSlots, kNil);
}

std::uint32_t BrowserTable::BrowserFor(std::uint32_t user) {
  const auto [browser, inserted] = by_user_.TryEmplace(user);
  if (inserted) {
    *browser = static_cast<std::uint32_t>(browsers_.size());
    browsers_.push_back(Browser{user});
  }
  return *browser;
}

BrowserLookup BrowserTable::Lookup(std::uint32_t browser, std::uint64_t key,
                                   std::int64_t now_ms) {
  const std::uint32_t e = Find(browser, key);
  if (e == kNil) return BrowserLookup::kAbsent;
  MakeMostRecent(e);
  return now_ms < entries_[e].fresh_until_ms ? BrowserLookup::kFresh
                                             : BrowserLookup::kStale;
}

void BrowserTable::Store(std::uint32_t browser, std::uint64_t key,
                         std::uint64_t size_bytes, std::int64_t now_ms) {
  if (size_bytes > capacity_bytes_) return;  // uncacheable
  Browser& b = browsers_[browser];
  const std::uint32_t e = Find(browser, key);
  if (e != kNil) {
    Entry& entry = entries_[e];
    b.used_bytes = b.used_bytes - entry.size + size_bytes;
    entry.size = size_bytes;
    entry.fresh_until_ms = now_ms + freshness_ms_;
    MakeMostRecent(e);
    return;
  }
  // Each entry fits the capacity on its own, so this stops before the
  // list runs out.
  while (b.used_bytes + size_bytes > capacity_bytes_) Remove(b.tail);
  Insert(browser, key, size_bytes, now_ms + freshness_ms_, /*front=*/true);
}

void BrowserTable::Renew(std::uint32_t browser, std::uint64_t key,
                         std::int64_t now_ms) {
  const std::uint32_t e = Find(browser, key);
  if (e != kNil) entries_[e].fresh_until_ms = now_ms + freshness_ms_;
}

void BrowserTable::Clear(std::uint32_t browser) {
  while (browsers_[browser].head != kNil) Remove(browsers_[browser].head);
}

void BrowserTable::Save(ckpt::Writer& w) {
  // User-index order, so the bytes are a function of the state and not of
  // the order in which users first arrived. Browsers are numbered as they
  // arrive, so those created since the last save are a suffix: sort it and
  // merge it into the order the last save left.
  const auto by_user = [&](std::uint32_t a, std::uint32_t b) {
    return browsers_[a].user < browsers_[b].user;
  };
  const std::size_t sorted = save_order_.size();
  for (std::size_t i = sorted; i < browsers_.size(); ++i) {
    save_order_.push_back(static_cast<std::uint32_t>(i));
  }
  const auto mid = save_order_.begin() + static_cast<std::ptrdiff_t>(sorted);
  std::sort(mid, save_order_.end(), by_user);
  std::inplace_merge(save_order_.begin(), mid, save_order_.end(), by_user);
  w.WriteU64(static_cast<std::uint64_t>(save_order_.size()));
  for (const std::uint32_t browser : save_order_) {
    const Browser& b = browsers_[browser];
    w.WriteU32(b.user);
    w.WriteVersion(kBrowserStateVersion);
    w.WriteU64(capacity_bytes_);
    w.WriteI64(freshness_ms_);
    w.WriteU64(b.entries);
    for (std::uint32_t e = b.head; e != kNil; e = entries_[e].next) {
      w.WriteU64(entries_[e].key);
      w.WriteU64(entries_[e].size);
      w.WriteI64(entries_[e].fresh_until_ms);
    }
  }
}

void BrowserTable::Restore(ckpt::Reader& r) {
  entries_.clear();
  free_ = kNil;
  live_ = 0;
  std::fill(slots_.begin(), slots_.end(), kNil);
  browsers_.clear();
  by_user_.clear();
  save_order_.clear();
  const std::uint64_t nbrowsers = r.ReadCount(kBrowserBlobBytes);
  for (std::uint64_t i = 0; i < nbrowsers; ++i) {
    const std::uint32_t user = r.ReadU32();
    if (by_user_.Find(user) != nullptr) {
      throw std::runtime_error("ckpt: duplicate browser for user " +
                               std::to_string(user));
    }
    const std::uint32_t browser = BrowserFor(user);
    r.ExpectVersion("browser cache", kBrowserStateVersion);
    const std::uint64_t saved_capacity = r.ReadU64();
    const std::int64_t saved_freshness = r.ReadI64();
    if (saved_capacity != capacity_bytes_ || saved_freshness != freshness_ms_) {
      throw std::runtime_error(
          "ckpt: browser cache configuration mismatch (checkpoint has " +
          std::to_string(saved_capacity) + " bytes / " +
          std::to_string(saved_freshness) + " ms)");
    }
    const std::uint64_t nentries = r.ReadCount(kEntryBlobBytes);
    for (std::uint64_t j = 0; j < nentries; ++j) {
      const std::uint64_t key = r.ReadU64();
      const std::uint64_t size = r.ReadU64();
      const std::int64_t fresh_until_ms = r.ReadI64();
      if (size > capacity_bytes_ || Find(browser, key) != kNil) {
        throw std::runtime_error("ckpt: corrupt browser cache entry");
      }
      Insert(browser, key, size, fresh_until_ms, /*front=*/false);
    }
  }
}

std::uint64_t BrowserTable::Hash(std::uint32_t browser,
                                 std::uint64_t key) const {
  return util::MixU64(key ^ (std::uint64_t{browser} * 0x9e3779b97f4a7c15ULL));
}

std::size_t BrowserTable::Probe(std::uint32_t browser,
                                std::uint64_t key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = Hash(browser, key) & mask;
  for (;;) {
    const std::uint32_t e = slots_[i];
    if (e == kNil ||
        (entries_[e].key == key && entries_[e].browser == browser)) {
      return i;
    }
    i = (i + 1) & mask;
  }
}

std::uint32_t BrowserTable::Find(std::uint32_t browser,
                                 std::uint64_t key) const {
  return slots_[Probe(browser, key)];
}

void BrowserTable::Insert(std::uint32_t browser, std::uint64_t key,
                          std::uint64_t size, std::int64_t fresh_until_ms,
                          bool front) {
  // At most half the slots in use keeps probes, each an entry read, short.
  if ((std::size_t{live_} + 1) * 2 > slots_.size()) GrowIndex();
  const Entry entry{key, size, fresh_until_ms, browser, kNil, kNil};
  std::uint32_t e = free_;
  if (e != kNil) {
    free_ = entries_[e].next;
    entries_[e] = entry;
  } else {
    if (entries_.size() >= kNil) {
      throw std::length_error("BrowserTable: entry index space exhausted");
    }
    e = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(entry);
  }
  slots_[Probe(browser, key)] = e;
  ++live_;
  Link(e, front);
  Browser& b = browsers_[browser];
  b.used_bytes += size;
  ++b.entries;
}

void BrowserTable::Remove(std::uint32_t e) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = Hash(entries_[e].browser, entries_[e].key) & mask;
  while (slots_[hole] != e) hole = (hole + 1) & mask;
  // Shift each later entry of the run back into the hole unless its home
  // slot lies after the hole, so every probe still finds what it seeks.
  for (std::size_t i = (hole + 1) & mask; slots_[i] != kNil;
       i = (i + 1) & mask) {
    const Entry& later = entries_[slots_[i]];
    const std::size_t home = Hash(later.browser, later.key) & mask;
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = kNil;
  Unlink(e);
  Browser& b = browsers_[entries_[e].browser];
  b.used_bytes -= entries_[e].size;
  --b.entries;
  entries_[e].next = free_;
  free_ = e;
  --live_;
}

void BrowserTable::Link(std::uint32_t e, bool front) {
  Entry& entry = entries_[e];
  Browser& b = browsers_[entry.browser];
  if (front) {
    entry.prev = kNil;
    entry.next = b.head;
    (b.head != kNil ? entries_[b.head].prev : b.tail) = e;
    b.head = e;
  } else {
    entry.prev = b.tail;
    entry.next = kNil;
    (b.tail != kNil ? entries_[b.tail].next : b.head) = e;
    b.tail = e;
  }
}

void BrowserTable::Unlink(std::uint32_t e) {
  const Entry& entry = entries_[e];
  Browser& b = browsers_[entry.browser];
  (entry.prev != kNil ? entries_[entry.prev].next : b.head) = entry.next;
  (entry.next != kNil ? entries_[entry.next].prev : b.tail) = entry.prev;
}

void BrowserTable::MakeMostRecent(std::uint32_t e) {
  if (browsers_[entries_[e].browser].head == e) return;
  Unlink(e);
  Link(e, /*front=*/true);
}

void BrowserTable::GrowIndex() {
  const Array<std::uint32_t> old = std::move(slots_);
  slots_.assign(old.size() * 2, kNil);
  for (const std::uint32_t e : old) {
    if (e != kNil) slots_[Probe(entries_[e].browser, entries_[e].key)] = e;
  }
}

}  // namespace atlas::cdn
