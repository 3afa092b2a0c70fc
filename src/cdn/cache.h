// Cache abstraction for CDN edge servers.
//
// The paper's §V studies CDN cache hit ratios under adult workloads and
// proposes policy/configuration changes (separate small/large object
// platforms, revalidation schedules, push). To make those claims testable
// the simulator accepts any byte-capacity cache policy behind this
// interface. Concrete policies: LRU, FIFO, LFU, GDSF, S4LRU, and TTL-LRU.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "trace/record.h"

namespace atlas::cdn {

enum class PolicyKind : std::uint8_t {
  kLru = 0,
  kFifo = 1,
  kLfu = 2,
  kGdsf = 3,
  kS4Lru = 4,
  kTtlLru = 5,
};
inline constexpr int kNumPolicyKinds = 6;
const char* ToString(PolicyKind kind);

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejected = 0;  // objects larger than the whole cache
  std::uint64_t hit_bytes = 0;
  std::uint64_t miss_bytes = 0;

  std::uint64_t accesses() const { return hits + misses; }
  double HitRatio() const {
    const std::uint64_t n = accesses();
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
  double ByteHitRatio() const {
    const std::uint64_t b = hit_bytes + miss_bytes;
    return b == 0 ? 0.0 : static_cast<double>(hit_bytes) / static_cast<double>(b);
  }
  void Merge(const CacheStats& other);
};

class Cache {
 public:
  explicit Cache(std::uint64_t capacity_bytes);
  virtual ~Cache() = default;

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  // One access: returns kHit if `key` is resident (and fresh, for TTL
  // policies); otherwise records a miss and admits the object, evicting
  // until it fits. Objects larger than the total capacity are never
  // admitted. `now_ms` drives TTL policies; others ignore it.
  trace::CacheStatus Access(std::uint64_t key, std::uint64_t size_bytes,
                            std::int64_t now_ms);

  // Warms the cache without touching hit/miss stats (push/prefetch path).
  // Returns false if the object cannot fit.
  bool Admit(std::uint64_t key, std::uint64_t size_bytes, std::int64_t now_ms);

  virtual bool Contains(std::uint64_t key) const = 0;

  // Every resident key in ascending order (freshness is ignored, matching
  // Contains()). The sharded simulation engine uses this as the sorted
  // peer-holdings snapshot exchanged at epoch boundaries.
  virtual std::vector<std::uint64_t> SortedKeys() const = 0;

  std::uint64_t capacity_bytes() const { return capacity_bytes_; }
  std::uint64_t used_bytes() const { return used_bytes_; }
  const CacheStats& stats() const { return stats_; }
  virtual std::string name() const = 0;

  // Checkpoints the policy name, capacity, byte/stat counters, and the
  // policy's full eviction state (recency lists, frequencies, priorities),
  // so a restored cache makes byte-identical hit/evict decisions from the
  // snapshot point on. Restore must target a cache constructed with the
  // same policy and capacity; anything else fails with a clear error.
  void SaveState(ckpt::Writer& w) const;
  void RestoreState(ckpt::Reader& r);

 protected:
  // Policy-specific halves of SaveState/RestoreState. RestorePolicyState
  // rebuilds containers directly — it must not route through Insert()/
  // OnInsertBytes(), which would double-count stats the base just restored.
  virtual void SavePolicyState(ckpt::Writer& w) const = 0;
  virtual void RestorePolicyState(ckpt::Reader& r) = 0;

  // Returns true and updates recency metadata if `key` is resident+fresh.
  virtual bool Lookup(std::uint64_t key, std::int64_t now_ms) = 0;
  // Inserts `key`; callee must evict enough to fit (capacity is already
  // checked to be sufficient). Must update used_bytes_ via OnInsert/OnEvict.
  virtual void Insert(std::uint64_t key, std::uint64_t size_bytes,
                      std::int64_t now_ms) = 0;

  // Bookkeeping helpers for subclasses.
  void OnInsertBytes(std::uint64_t size) {
    used_bytes_ += size;
    ++stats_.inserts;
  }
  void OnEvictBytes(std::uint64_t size) {
    used_bytes_ -= size;
    ++stats_.evictions;
  }
  // Shared guard every Insert path must call first: an object larger than
  // the whole cache can never fit no matter how much is evicted, so it is
  // counted as rejected and the insert is skipped. Without this, policy
  // eviction loops drain the cache and then fail hunting for a victim that
  // cannot exist.
  bool RejectOversized(std::uint64_t size_bytes) {
    if (size_bytes <= capacity_bytes_) return false;
    ++stats_.rejected;
    return true;
  }

 private:
  std::uint64_t capacity_bytes_;
  std::uint64_t used_bytes_ = 0;
  CacheStats stats_;
};

// Factory. `ttl_ms` only applies to kTtlLru (default 6h).
std::unique_ptr<Cache> CreateCache(PolicyKind kind,
                                   std::uint64_t capacity_bytes,
                                   std::int64_t ttl_ms = 6 * 3600 * 1000LL);

}  // namespace atlas::cdn
