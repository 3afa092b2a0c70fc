#include "cdn/policies.h"

#include <iterator>
#include <stdexcept>

#include "util/sorted.h"

namespace atlas::cdn {

// --- LruCache ---------------------------------------------------------------

bool LruCache::Lookup(std::uint64_t key, std::int64_t /*now_ms*/) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return true;
}

void LruCache::Insert(std::uint64_t key, std::uint64_t size_bytes,
                      std::int64_t /*now_ms*/) {
  if (RejectOversized(size_bytes)) return;
  while (used_bytes() + size_bytes > capacity_bytes()) {
    if (!EvictOne()) return;
  }
  lru_.push_front(key);
  entries_[key] = Entry{size_bytes, lru_.begin()};
  OnInsertBytes(size_bytes);
}

bool LruCache::EvictOne() {
  if (lru_.empty()) return false;
  const std::uint64_t victim = lru_.back();
  lru_.pop_back();
  auto it = entries_.find(victim);
  OnEvictBytes(it->second.size);
  entries_.erase(it);
  return true;
}

// --- FifoCache ---------------------------------------------------------------

bool FifoCache::Lookup(std::uint64_t key, std::int64_t /*now_ms*/) {
  return entries_.count(key) > 0;
}

void FifoCache::Insert(std::uint64_t key, std::uint64_t size_bytes,
                       std::int64_t /*now_ms*/) {
  if (RejectOversized(size_bytes)) return;
  while (used_bytes() + size_bytes > capacity_bytes()) {
    if (!EvictOne()) return;
  }
  queue_.push_back(key);
  entries_[key] = size_bytes;
  OnInsertBytes(size_bytes);
}

bool FifoCache::EvictOne() {
  if (queue_.empty()) return false;
  const std::uint64_t victim = queue_.front();
  queue_.pop_front();
  auto it = entries_.find(victim);
  OnEvictBytes(it->second);
  entries_.erase(it);
  return true;
}

// --- LfuCache ---------------------------------------------------------------

void LfuCache::Touch(std::uint64_t key, Entry& entry) {
  auto& old_bucket = buckets_[entry.freq];
  old_bucket.erase(entry.bucket_it);
  if (old_bucket.empty()) buckets_.erase(entry.freq);
  ++entry.freq;
  auto& new_bucket = buckets_[entry.freq];
  new_bucket.push_front(key);
  entry.bucket_it = new_bucket.begin();
}

bool LfuCache::Lookup(std::uint64_t key, std::int64_t /*now_ms*/) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  Touch(key, it->second);
  return true;
}

void LfuCache::Insert(std::uint64_t key, std::uint64_t size_bytes,
                      std::int64_t /*now_ms*/) {
  if (RejectOversized(size_bytes)) return;
  while (used_bytes() + size_bytes > capacity_bytes()) {
    if (!EvictOne()) return;
  }
  auto& bucket = buckets_[1];
  bucket.push_front(key);
  entries_[key] = Entry{size_bytes, 1, bucket.begin()};
  OnInsertBytes(size_bytes);
}

bool LfuCache::EvictOne() {
  if (buckets_.empty()) return false;
  auto bucket_it = buckets_.begin();  // lowest frequency
  auto& lru_list = bucket_it->second;
  const std::uint64_t victim = lru_list.back();  // least recent within bucket
  lru_list.pop_back();
  if (lru_list.empty()) buckets_.erase(bucket_it);
  auto it = entries_.find(victim);
  OnEvictBytes(it->second.size);
  entries_.erase(it);
  return true;
}

// --- GdsfCache ---------------------------------------------------------------

double GdsfCache::PriorityOf(const Entry& e) const {
  // cost = 1 per miss; size in KB so priorities stay in a sane range.
  const double size_kb = static_cast<double>(e.size) / 1024.0 + 1e-9;
  return inflation_ + static_cast<double>(e.freq) / size_kb;
}

void GdsfCache::PushHeap(std::uint64_t key, const Entry& e) {
  heap_.push(HeapItem{e.priority, key});
  // Every hit strands the key's previous heap item, so without compaction
  // the heap grows with accesses, not residents. Rebuild once stale items
  // outnumber live ones (the +16 keeps tiny caches from recompacting on
  // every push).
  if (heap_.size() > 2 * entries_.size() + 16) CompactHeap();
}

void GdsfCache::CompactHeap() {
  std::vector<HeapItem> live;
  live.reserve(entries_.size());
  for (std::uint64_t key : util::SortedKeys(entries_)) {
    live.push_back(HeapItem{entries_.at(key).priority, key});
  }
  heap_ = decltype(heap_)(std::greater<>(), std::move(live));
}

bool GdsfCache::Lookup(std::uint64_t key, std::int64_t /*now_ms*/) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  ++it->second.freq;
  it->second.priority = PriorityOf(it->second);
  PushHeap(key, it->second);  // lazy: old heap entry becomes stale
  return true;
}

void GdsfCache::Insert(std::uint64_t key, std::uint64_t size_bytes,
                       std::int64_t /*now_ms*/) {
  if (RejectOversized(size_bytes)) return;
  while (used_bytes() + size_bytes > capacity_bytes()) {
    if (!EvictOne()) return;
  }
  Entry e{size_bytes, 1, 0.0};
  e.priority = PriorityOf(e);
  entries_[key] = e;
  PushHeap(key, e);
  OnInsertBytes(size_bytes);
}

bool GdsfCache::EvictOne() {
  while (!heap_.empty()) {
    const HeapItem item = heap_.top();
    heap_.pop();
    auto it = entries_.find(item.key);
    // Skip stale heap entries (evicted keys or outdated priorities).
    if (it == entries_.end() || it->second.priority != item.priority) continue;
    inflation_ = item.priority;
    OnEvictBytes(it->second.size);
    entries_.erase(it);
    return true;
  }
  return false;
}

// --- S4LruCache ---------------------------------------------------------------

S4LruCache::S4LruCache(std::uint64_t capacity_bytes)
    : Cache(capacity_bytes),
      segment_capacity_(capacity_bytes / kSegments) {
  if (segment_capacity_ == 0) {
    throw std::invalid_argument("S4LruCache: capacity too small for segments");
  }
}

bool S4LruCache::Lookup(std::uint64_t key, std::int64_t /*now_ms*/) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  Entry& e = it->second;
  const int target = std::min(e.segment + 1, kSegments - 1);
  lists_[static_cast<std::size_t>(e.segment)].erase(e.it);
  seg_bytes_[static_cast<std::size_t>(e.segment)] -= e.size;
  lists_[static_cast<std::size_t>(target)].push_front(key);
  seg_bytes_[static_cast<std::size_t>(target)] += e.size;
  e.segment = target;
  e.it = lists_[static_cast<std::size_t>(target)].begin();
  Rebalance();
  return true;
}

void S4LruCache::Insert(std::uint64_t key, std::uint64_t size_bytes,
                        std::int64_t /*now_ms*/) {
  if (RejectOversized(size_bytes)) return;
  lists_[0].push_front(key);
  seg_bytes_[0] += size_bytes;
  entries_[key] = Entry{size_bytes, 0, lists_[0].begin()};
  OnInsertBytes(size_bytes);
  Rebalance();
}

void S4LruCache::Rebalance() {
  // Overflow cascades down: tail of segment i moves to head of i-1; tail of
  // segment 0 is evicted. Total capacity is enforced via the per-segment
  // budgets.
  for (int s = kSegments - 1; s >= 1; --s) {
    auto si = static_cast<std::size_t>(s);
    while (seg_bytes_[si] > segment_capacity_ && !lists_[si].empty()) {
      const std::uint64_t key = lists_[si].back();
      lists_[si].pop_back();
      Entry& e = entries_.at(key);
      seg_bytes_[si] -= e.size;
      const auto below = static_cast<std::size_t>(s - 1);
      lists_[below].push_front(key);
      seg_bytes_[below] += e.size;
      e.segment = s - 1;
      e.it = lists_[below].begin();
    }
  }
  while (seg_bytes_[0] > segment_capacity_ && !lists_[0].empty()) {
    const std::uint64_t victim = lists_[0].back();
    lists_[0].pop_back();
    auto it = entries_.find(victim);
    seg_bytes_[0] -= it->second.size;
    OnEvictBytes(it->second.size);
    entries_.erase(it);
  }
}

// --- TtlLruCache ---------------------------------------------------------------

TtlLruCache::TtlLruCache(std::uint64_t capacity_bytes, std::int64_t ttl_ms)
    : Cache(capacity_bytes), ttl_ms_(ttl_ms) {
  if (ttl_ms <= 0) throw std::invalid_argument("TtlLruCache: ttl must be > 0");
}

void TtlLruCache::Erase(std::uint64_t key) {
  auto it = entries_.find(key);
  lru_.erase(it->second.lru_it);
  OnEvictBytes(it->second.size);
  entries_.erase(it);
}

bool TtlLruCache::Lookup(std::uint64_t key, std::int64_t now_ms) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  if (now_ms >= it->second.expires_ms) {
    // Stale content must be refetched; the entry is dropped and the caller
    // records a miss followed by a fresh insert.
    Erase(key);
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return true;
}

void TtlLruCache::Insert(std::uint64_t key, std::uint64_t size_bytes,
                         std::int64_t now_ms) {
  if (RejectOversized(size_bytes)) return;
  while (used_bytes() + size_bytes > capacity_bytes()) {
    if (!EvictOne()) return;
  }
  lru_.push_front(key);
  entries_[key] = Entry{size_bytes, now_ms + ttl_ms_, lru_.begin()};
  OnInsertBytes(size_bytes);
}

bool TtlLruCache::EvictOne() {
  if (lru_.empty()) return false;
  Erase(lru_.back());
  return true;
}

// --- Checkpoint state (SavePolicyState / RestorePolicyState) ----------------
//
// Each policy serializes its containers in an order that reconstructs both
// membership and tie-breaking structure exactly: recency lists are written
// front (most recent) to back, LFU buckets in ascending frequency, GDSF
// entries with their stored priorities (computed against historic inflation
// values, so they cannot be recomputed). A restored cache therefore picks
// the same victims in the same order as one that never stopped.

namespace {
constexpr std::uint32_t kLruStateVersion = 1;
constexpr std::uint32_t kFifoStateVersion = 1;
constexpr std::uint32_t kLfuStateVersion = 1;
constexpr std::uint32_t kGdsfStateVersion = 1;
constexpr std::uint32_t kS4LruStateVersion = 1;
constexpr std::uint32_t kTtlLruStateVersion = 1;
}  // namespace

void LruCache::SavePolicyState(ckpt::Writer& w) const {
  w.WriteVersion(kLruStateVersion);
  w.WriteU64(static_cast<std::uint64_t>(lru_.size()));
  for (std::uint64_t key : lru_) {
    w.WriteU64(key);
    w.WriteU64(entries_.at(key).size);
  }
}

void LruCache::RestorePolicyState(ckpt::Reader& r) {
  r.ExpectVersion("LRU policy", kLruStateVersion);
  lru_.clear();
  entries_.clear();
  const std::uint64_t n = r.ReadU64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t key = r.ReadU64();
    const std::uint64_t size = r.ReadU64();
    lru_.push_back(key);
    entries_[key] = Entry{size, std::prev(lru_.end())};
  }
}

void FifoCache::SavePolicyState(ckpt::Writer& w) const {
  w.WriteVersion(kFifoStateVersion);
  w.WriteU64(static_cast<std::uint64_t>(queue_.size()));
  for (std::uint64_t key : queue_) {
    w.WriteU64(key);
    w.WriteU64(entries_.at(key));
  }
}

void FifoCache::RestorePolicyState(ckpt::Reader& r) {
  r.ExpectVersion("FIFO policy", kFifoStateVersion);
  queue_.clear();
  entries_.clear();
  const std::uint64_t n = r.ReadU64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t key = r.ReadU64();
    queue_.push_back(key);
    entries_[key] = r.ReadU64();
  }
}

void LfuCache::SavePolicyState(ckpt::Writer& w) const {
  w.WriteVersion(kLfuStateVersion);
  w.WriteU64(static_cast<std::uint64_t>(buckets_.size()));
  for (const auto& [freq, bucket] : buckets_) {  // std::map: ascending freq
    w.WriteU64(freq);
    w.WriteU64(static_cast<std::uint64_t>(bucket.size()));
    for (std::uint64_t key : bucket) {
      w.WriteU64(key);
      w.WriteU64(entries_.at(key).size);
    }
  }
}

void LfuCache::RestorePolicyState(ckpt::Reader& r) {
  r.ExpectVersion("LFU policy", kLfuStateVersion);
  buckets_.clear();
  entries_.clear();
  const std::uint64_t nbuckets = r.ReadU64();
  for (std::uint64_t b = 0; b < nbuckets; ++b) {
    const std::uint64_t freq = r.ReadU64();
    const std::uint64_t len = r.ReadU64();
    auto& bucket = buckets_[freq];
    for (std::uint64_t i = 0; i < len; ++i) {
      const std::uint64_t key = r.ReadU64();
      const std::uint64_t size = r.ReadU64();
      bucket.push_back(key);
      entries_[key] = Entry{size, freq, std::prev(bucket.end())};
    }
  }
}

void GdsfCache::SavePolicyState(ckpt::Writer& w) const {
  w.WriteVersion(kGdsfStateVersion);
  w.WriteDouble(inflation_);
  w.WriteU64(static_cast<std::uint64_t>(entries_.size()));
  for (std::uint64_t key : util::SortedKeys(entries_)) {
    const Entry& e = entries_.at(key);
    w.WriteU64(key);
    w.WriteU64(e.size);
    w.WriteU64(e.freq);
    w.WriteDouble(e.priority);
  }
}

void GdsfCache::RestorePolicyState(ckpt::Reader& r) {
  r.ExpectVersion("GDSF policy", kGdsfStateVersion);
  inflation_ = r.ReadDouble();
  entries_.clear();
  // Rebuild the heap from live entries only, dropping any stale
  // lazy-invalidation items the original heap carried. That is safe for
  // determinism: pops follow the (priority, key) total order over live
  // entries either way, so the restored cache picks the same victims.
  heap_ = decltype(heap_){};
  const std::uint64_t n = r.ReadU64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t key = r.ReadU64();
    Entry e;
    e.size = r.ReadU64();
    e.freq = r.ReadU64();
    e.priority = r.ReadDouble();
    entries_[key] = e;
    PushHeap(key, e);
  }
}

void S4LruCache::SavePolicyState(ckpt::Writer& w) const {
  w.WriteVersion(kS4LruStateVersion);
  for (const auto& list : lists_) {
    w.WriteU64(static_cast<std::uint64_t>(list.size()));
    for (std::uint64_t key : list) {
      w.WriteU64(key);
      w.WriteU64(entries_.at(key).size);
    }
  }
}

void S4LruCache::RestorePolicyState(ckpt::Reader& r) {
  r.ExpectVersion("S4LRU policy", kS4LruStateVersion);
  entries_.clear();
  for (int seg = 0; seg < kSegments; ++seg) {
    lists_[static_cast<std::size_t>(seg)].clear();
    seg_bytes_[static_cast<std::size_t>(seg)] = 0;
  }
  for (int seg = 0; seg < kSegments; ++seg) {
    auto& list = lists_[static_cast<std::size_t>(seg)];
    const std::uint64_t n = r.ReadU64();
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t key = r.ReadU64();
      const std::uint64_t size = r.ReadU64();
      list.push_back(key);
      seg_bytes_[static_cast<std::size_t>(seg)] += size;
      entries_[key] = Entry{size, seg, std::prev(list.end())};
    }
  }
}

void TtlLruCache::SavePolicyState(ckpt::Writer& w) const {
  w.WriteVersion(kTtlLruStateVersion);
  w.WriteI64(ttl_ms_);
  w.WriteU64(static_cast<std::uint64_t>(lru_.size()));
  for (std::uint64_t key : lru_) {
    const Entry& e = entries_.at(key);
    w.WriteU64(key);
    w.WriteU64(e.size);
    w.WriteI64(e.expires_ms);
  }
}

void TtlLruCache::RestorePolicyState(ckpt::Reader& r) {
  r.ExpectVersion("TTL-LRU policy", kTtlLruStateVersion);
  const std::int64_t saved_ttl = r.ReadI64();
  if (saved_ttl != ttl_ms_) {
    throw std::runtime_error("ckpt: TTL mismatch (checkpoint has " +
                             std::to_string(saved_ttl) + " ms, this run uses " +
                             std::to_string(ttl_ms_) + ")");
  }
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
