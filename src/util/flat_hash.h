// Open-addressing hash containers for the streaming accumulators.
//
// The analysis suite performs a dozen hash-table operations per trace
// record (per-object counters, per-user state, dedup sets); with
// std::unordered_map each of those is a node allocation plus a pointer
// chase, and together they dominate suite throughput. FlatHashMap /
// FlatHashSet are linear-probing, power-of-two tables over parallel
// key/value arrays: one probe is one cache line, inserts never allocate
// per element, and clear() reuses capacity.
//
// Scope and contract:
//   - Insert/find only — no per-element erase (the accumulators never
//     erase; sessions close at Finalize, sets only grow).
//   - Iteration order is a deterministic function of the insertion
//     sequence (same keys in the same order -> same layout on every
//     platform; no libstdc++/libc++ divergence), but it is NOT sorted and
//     NOT insertion order. Order-sensitive consumers must use SortedKeys()
//     (the same rule util/sorted.h states for the std containers).
//   - Keys must be trivially copyable and equality-comparable. The default
//     hasher finalizes integral keys with a SplitMix64-style mixer, so
//     sequential ids and already-random url hashes both spread well under
//     the power-of-two mask.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/page_alloc.h"

namespace atlas::util {

// SplitMix64 finalizer: full-avalanche mixing for 64-bit keys.
inline std::uint64_t MixU64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

template <typename K>
struct FlatHash {
  std::uint64_t operator()(const K& k) const {
    static_assert(std::is_integral_v<K> || std::is_enum_v<K>,
                  "provide a hasher for non-integral keys");
    return MixU64(static_cast<std::uint64_t>(k));
  }
};

// Hasher for pair keys (e.g. the (object, user) engagement pairs).
struct FlatPairHash {
  template <typename A, typename B>
  std::uint64_t operator()(const std::pair<A, B>& p) const {
    const std::uint64_t a = MixU64(static_cast<std::uint64_t>(p.first));
    return MixU64(a ^ static_cast<std::uint64_t>(p.second));
  }
};

namespace internal {

// Table arrays come from PageAllocator, so a large table's pages go back to
// the kernel when it grows or dies, whichever thread grew it.
template <typename T>
using TableArray = std::vector<T, PageAllocator<T>>;

// Shared probing core. Slot metadata is one byte: 0 empty, 1 occupied.
template <typename K, typename Hash>
class FlatTableBase {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 protected:
  static constexpr std::size_t kMinCapacity = 16;

  std::size_t Mask() const { return keys_.size() - 1; }

  bool NeedsGrowth() const {
    // Max load factor 3/4 keeps probe sequences short.
    return keys_.empty() || (size_ + 1) * 4 > keys_.size() * 3;
  }

  // Index of `k`'s slot, or the empty slot where it belongs.
  std::size_t Probe(const K& k) const {
    std::size_t i = static_cast<std::size_t>(Hash{}(k)) & Mask();
    while (used_[i] && !(keys_[i] == k)) i = (i + 1) & Mask();
    return i;
  }

  TableArray<K> keys_;
  TableArray<std::uint8_t> used_;
  std::size_t size_ = 0;
};

}  // namespace internal

template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatHashMap : public internal::FlatTableBase<K, Hash> {
  using Base = internal::FlatTableBase<K, Hash>;

 public:
  void reserve(std::size_t n) {
    std::size_t cap = Base::kMinCapacity;
    while (cap * 3 < n * 4) cap <<= 1;
    if (cap > this->keys_.size()) Rehash(cap);
  }

  void clear() {
    std::fill(this->used_.begin(), this->used_.end(), std::uint8_t{0});
    for (auto& v : values_) v = V{};
    this->size_ = 0;
  }

  // Pointer to the mapped value, or nullptr when absent.
  V* Find(const K& k) {
    if (this->keys_.empty()) return nullptr;
    const std::size_t i = this->Probe(k);
    return this->used_[i] ? &values_[i] : nullptr;
  }
  const V* Find(const K& k) const {
    return const_cast<FlatHashMap*>(this)->Find(k);
  }

  // Value for `k`, value-initializing on first touch (like std::map's []).
  V& operator[](const K& k) { return *TryEmplace(k).first; }

  // (slot, inserted): the slot is value-initialized when inserted is true.
  std::pair<V*, bool> TryEmplace(const K& k) {
    if (this->NeedsGrowth()) Rehash(NextCapacity());
    const std::size_t i = this->Probe(k);
    if (this->used_[i]) return {&values_[i], false};
    this->used_[i] = 1;
    this->keys_[i] = k;
    values_[i] = V{};
    ++this->size_;
    return {&values_[i], true};
  }

  // Keep-first insert (std::unordered_map::emplace semantics).
  void InsertIfAbsent(const K& k, const V& v) {
    auto [slot, inserted] = TryEmplace(k);
    if (inserted) *slot = v;
  }

  const V& At(const K& k) const {
    const V* v = Find(k);
    if (!v) throw std::out_of_range("FlatHashMap::At: missing key");
    return *v;
  }

  // Visits every entry. Order is deterministic for a fixed insertion
  // sequence but unsorted — order-sensitive consumers use SortedKeys().
  template <typename F>
  void ForEach(F&& fn) const {
    for (std::size_t i = 0; i < this->keys_.size(); ++i) {
      if (this->used_[i]) fn(this->keys_[i], values_[i]);
    }
  }
  template <typename F>
  void ForEachMutable(F&& fn) {
    for (std::size_t i = 0; i < this->keys_.size(); ++i) {
      if (this->used_[i]) fn(this->keys_[i], values_[i]);
    }
  }

  std::vector<K> SortedKeys() const {
    std::vector<K> keys;
    keys.reserve(this->size_);
    ForEach([&](const K& k, const V&) { keys.push_back(k); });
    std::sort(keys.begin(), keys.end());
    return keys;
  }

 private:
  std::size_t NextCapacity() const {
    return this->keys_.empty() ? Base::kMinCapacity : this->keys_.size() * 2;
  }

  void Rehash(std::size_t cap) {
    internal::TableArray<K> old_keys = std::move(this->keys_);
    internal::TableArray<V> old_values = std::move(values_);
    internal::TableArray<std::uint8_t> old_used = std::move(this->used_);
    this->keys_.assign(cap, K{});
    values_.assign(cap, V{});
    this->used_.assign(cap, 0);
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (!old_used[i]) continue;
      const std::size_t j = this->Probe(old_keys[i]);
      this->used_[j] = 1;
      this->keys_[j] = old_keys[i];
      values_[j] = std::move(old_values[i]);
    }
  }

  internal::TableArray<V> values_;
};

template <typename K, typename Hash = FlatHash<K>>
class FlatHashSet : public internal::FlatTableBase<K, Hash> {
  using Base = internal::FlatTableBase<K, Hash>;

 public:
  void reserve(std::size_t n) {
    std::size_t cap = Base::kMinCapacity;
    while (cap * 3 < n * 4) cap <<= 1;
    if (cap > this->keys_.size()) Rehash(cap);
  }

  void clear() {
    std::fill(this->used_.begin(), this->used_.end(), std::uint8_t{0});
    this->size_ = 0;
  }

  // True when newly inserted.
  bool Insert(const K& k) {
    if (this->NeedsGrowth()) Rehash(NextCapacity());
    const std::size_t i = this->Probe(k);
    if (this->used_[i]) return false;
    this->used_[i] = 1;
    this->keys_[i] = k;
    ++this->size_;
    return true;
  }

  bool Contains(const K& k) const {
    if (this->keys_.empty()) return false;
    return this->used_[this->Probe(k)] != 0;
  }

  std::vector<K> SortedElements() const {
    std::vector<K> keys;
    keys.reserve(this->size_);
    for (std::size_t i = 0; i < this->keys_.size(); ++i) {
      if (this->used_[i]) keys.push_back(this->keys_[i]);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

 private:
  std::size_t NextCapacity() const {
    return this->keys_.empty() ? Base::kMinCapacity : this->keys_.size() * 2;
  }

  void Rehash(std::size_t cap) {
    internal::TableArray<K> old_keys = std::move(this->keys_);
    internal::TableArray<std::uint8_t> old_used = std::move(this->used_);
    this->keys_.assign(cap, K{});
    this->used_.assign(cap, 0);
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (!old_used[i]) continue;
      const std::size_t j = this->Probe(old_keys[i]);
      this->used_[j] = 1;
      this->keys_[j] = old_keys[i];
    }
  }
};

}  // namespace atlas::util
