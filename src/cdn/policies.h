// Concrete cache eviction policies.
//
//  - LruCache:    classic least-recently-used; the baseline edge policy.
//  - FifoCache:   insertion-order eviction; no recency update on hit.
//  - LfuCache:    least-frequently-used with LRU tie-breaking within a
//                 frequency bucket (in-cache frequency, resets on eviction).
//  - GdsfCache:   Greedy-Dual-Size-Frequency — priority L + freq/size;
//                 strongly favors small objects, the classic web-cache
//                 answer to mixed image/video workloads (§V's "separate
//                 platforms for small and large objects" intuition).
//  - S4LruCache:  four-segment segmented LRU (Facebook photo-cache paper),
//                 scan-resistant.
//  - TtlLruCache: LRU plus per-entry freshness lifetime; stale entries
//                 count as misses (models the revalidation schedules the
//                 paper proposes for diurnal vs. short-lived objects).
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <map>
#include <queue>
#include <unordered_map>
#include <vector>

#include "cdn/cache.h"
#include "util/sorted.h"

namespace atlas::cdn {

class LruCache : public Cache {
 public:
  explicit LruCache(std::uint64_t capacity_bytes) : Cache(capacity_bytes) {}

  bool Contains(std::uint64_t key) const override {
    return entries_.count(key) > 0;
  }
  std::vector<std::uint64_t> SortedKeys() const override {
    return util::SortedKeys(entries_);
  }
  std::string name() const override { return "LRU"; }

 protected:
  bool Lookup(std::uint64_t key, std::int64_t now_ms) override;
  void Insert(std::uint64_t key, std::uint64_t size_bytes,
              std::int64_t now_ms) override;
  void SavePolicyState(ckpt::Writer& w) const override;
  void RestorePolicyState(ckpt::Reader& r) override;

 private:
  struct Entry {
    std::uint64_t size;
    std::list<std::uint64_t>::iterator lru_it;
  };
  bool EvictOne();  // false when there is nothing left to evict

  std::list<std::uint64_t> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, Entry> entries_;
};

class FifoCache : public Cache {
 public:
  explicit FifoCache(std::uint64_t capacity_bytes) : Cache(capacity_bytes) {}

  bool Contains(std::uint64_t key) const override {
    return entries_.count(key) > 0;
  }
  std::vector<std::uint64_t> SortedKeys() const override {
    return util::SortedKeys(entries_);
  }
  std::string name() const override { return "FIFO"; }

 protected:
  bool Lookup(std::uint64_t key, std::int64_t now_ms) override;
  void Insert(std::uint64_t key, std::uint64_t size_bytes,
              std::int64_t now_ms) override;
  void SavePolicyState(ckpt::Writer& w) const override;
  void RestorePolicyState(ckpt::Reader& r) override;

 private:
  bool EvictOne();  // false when there is nothing left to evict

  std::list<std::uint64_t> queue_;  // front = oldest
  std::unordered_map<std::uint64_t, std::uint64_t> entries_;  // key -> size
};

class LfuCache : public Cache {
 public:
  explicit LfuCache(std::uint64_t capacity_bytes) : Cache(capacity_bytes) {}

  bool Contains(std::uint64_t key) const override {
    return entries_.count(key) > 0;
  }
  std::vector<std::uint64_t> SortedKeys() const override {
    return util::SortedKeys(entries_);
  }
  std::string name() const override { return "LFU"; }

 protected:
  bool Lookup(std::uint64_t key, std::int64_t now_ms) override;
  void Insert(std::uint64_t key, std::uint64_t size_bytes,
              std::int64_t now_ms) override;
  void SavePolicyState(ckpt::Writer& w) const override;
  void RestorePolicyState(ckpt::Reader& r) override;

 private:
  struct Entry {
    std::uint64_t size;
    std::uint64_t freq;
    std::list<std::uint64_t>::iterator bucket_it;
  };
  void Touch(std::uint64_t key, Entry& entry);
  bool EvictOne();  // false when there is nothing left to evict

  // freq -> LRU list of keys at that frequency (front = most recent).
  std::map<std::uint64_t, std::list<std::uint64_t>> buckets_;
  std::unordered_map<std::uint64_t, Entry> entries_;
};

class GdsfCache : public Cache {
 public:
  explicit GdsfCache(std::uint64_t capacity_bytes) : Cache(capacity_bytes) {}

  bool Contains(std::uint64_t key) const override {
    return entries_.count(key) > 0;
  }
  std::vector<std::uint64_t> SortedKeys() const override {
    return util::SortedKeys(entries_);
  }
  std::string name() const override { return "GDSF"; }
  // Lazy-invalidation heap size, stale entries included. Compaction keeps
  // this bounded by a small multiple of the live entry count (exposed so
  // tests can assert the bound).
  std::size_t heap_size() const { return heap_.size(); }

 protected:
  bool Lookup(std::uint64_t key, std::int64_t now_ms) override;
  void Insert(std::uint64_t key, std::uint64_t size_bytes,
              std::int64_t now_ms) override;
  void SavePolicyState(ckpt::Writer& w) const override;
  void RestorePolicyState(ckpt::Reader& r) override;

 private:
  struct Entry {
    std::uint64_t size;
    std::uint64_t freq;
    double priority;
  };
  struct HeapItem {
    double priority;
    std::uint64_t key;
    // Total order (priority, then key): with no distinct ties, the pop
    // sequence is a pure function of the heap's contents, so equal-priority
    // evictions never depend on heap layout or hash-table iteration order.
    bool operator>(const HeapItem& other) const {
      if (priority != other.priority) return priority > other.priority;
      return key > other.key;
    }
  };
  double PriorityOf(const Entry& e) const;
  void PushHeap(std::uint64_t key, const Entry& e);
  bool EvictOne();  // false when there is nothing left to evict
  // Rebuilds the heap from live entries when stale items dominate; without
  // it every hit leaves a dead heap item behind and the heap grows with the
  // access count instead of the resident set.
  void CompactHeap();

  double inflation_ = 0.0;  // "L": priority of the last evicted entry
  std::unordered_map<std::uint64_t, Entry> entries_;
  // Min-heap with lazy invalidation (stale priorities are skipped on pop).
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap_;
};

class S4LruCache : public Cache {
 public:
  explicit S4LruCache(std::uint64_t capacity_bytes);

  bool Contains(std::uint64_t key) const override {
    return entries_.count(key) > 0;
  }
  std::vector<std::uint64_t> SortedKeys() const override {
    return util::SortedKeys(entries_);
  }
  std::string name() const override { return "S4LRU"; }

 protected:
  bool Lookup(std::uint64_t key, std::int64_t now_ms) override;
  void Insert(std::uint64_t key, std::uint64_t size_bytes,
              std::int64_t now_ms) override;
  void SavePolicyState(ckpt::Writer& w) const override;
  void RestorePolicyState(ckpt::Reader& r) override;

 private:
  static constexpr int kSegments = 4;
  struct Entry {
    std::uint64_t size;
    int segment;
    std::list<std::uint64_t>::iterator it;
  };
  // Moves overflowing tails down; evicts from segment 0.
  void Rebalance();

  std::uint64_t segment_capacity_;
  std::array<std::list<std::uint64_t>, kSegments> lists_;  // front = recent
  std::array<std::uint64_t, kSegments> seg_bytes_{};
  std::unordered_map<std::uint64_t, Entry> entries_;
};

class TtlLruCache : public Cache {
 public:
  TtlLruCache(std::uint64_t capacity_bytes, std::int64_t ttl_ms);

  bool Contains(std::uint64_t key) const override {
    return entries_.count(key) > 0;
  }
  std::vector<std::uint64_t> SortedKeys() const override {
    return util::SortedKeys(entries_);
  }
  std::string name() const override { return "TTL-LRU"; }

 protected:
  bool Lookup(std::uint64_t key, std::int64_t now_ms) override;
  void Insert(std::uint64_t key, std::uint64_t size_bytes,
              std::int64_t now_ms) override;
  void SavePolicyState(ckpt::Writer& w) const override;
  void RestorePolicyState(ckpt::Reader& r) override;

 private:
  struct Entry {
    std::uint64_t size;
    std::int64_t expires_ms;
    std::list<std::uint64_t>::iterator lru_it;
  };
  void Erase(std::uint64_t key);
  bool EvictOne();  // false when there is nothing left to evict

  std::int64_t ttl_ms_;
  std::list<std::uint64_t> lru_;
  std::unordered_map<std::uint64_t, Entry> entries_;
};

}  // namespace atlas::cdn
