// cdn::BrowserTable against the node-based reference model (browser_cache.h).
//
// The BrowserCacheTest cases pin one browser's verdicts, LRU order and byte
// budget on both models. The BrowserTableTest cases cover what only a
// shared table can get wrong — one url hash in two browsers, a Clear that
// reaches past its browser — then a seeded random run that checks every
// verdict and, every few thousand operations, the saved bytes against the
// reference, and the restore path.
#include "cdn/browser_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "browser_cache.h"
#include "ckpt/checkpoint.h"
#include "util/rng.h"

namespace atlas::cdn {
namespace {

// The bytes of a one-section checkpoint whose payload `save` writes.
template <typename Save>
std::string Checkpoint(Save save) {
  std::ostringstream out;
  ckpt::Writer w(out);
  w.BeginSection("browsers", 1);
  save(w);
  w.EndSection();
  w.Finish();
  return out.str();
}

std::string SavedBytes(BrowserTable& table) {
  return Checkpoint([&](ckpt::Writer& w) { table.Save(w); });
}

void RestoreFrom(const std::string& bytes, BrowserTable& table) {
  std::istringstream in(bytes);
  ckpt::Reader r(in);
  r.BeginSection("browsers", 1);
  table.Restore(r);
  r.EndSection();
}

// The engine's browsers as they were kept before BrowserTable: a
// BrowserCache per user, saved in user-index order.
class ReferenceTable {
 public:
  ReferenceTable(std::uint64_t capacity_bytes, std::int64_t freshness_ms)
      : capacity_bytes_(capacity_bytes), freshness_ms_(freshness_ms) {}

  BrowserCache& For(std::uint32_t user) {
    return browsers_.try_emplace(user, capacity_bytes_, freshness_ms_)
        .first->second;
  }

  std::string SavedBytes() const {
    return Checkpoint([&](ckpt::Writer& w) {
      w.WriteU64(static_cast<std::uint64_t>(browsers_.size()));
      for (const auto& [user, cache] : browsers_) {
        w.WriteU32(user);
        cache.SaveState(w);
      }
    });
  }

 private:
  std::uint64_t capacity_bytes_;
  std::int64_t freshness_ms_;
  std::map<std::uint32_t, BrowserCache> browsers_;
};

// One user's browser in a BrowserTable, behind BrowserCache's interface.
// The byte and entry counts come from the saved bytes, so the table needs
// no accessor for them.
class TableBrowser {
 public:
  TableBrowser(std::uint64_t capacity_bytes, std::int64_t freshness_ms)
      : table_(capacity_bytes, freshness_ms), browser_(table_.BrowserFor(7)) {}

  BrowserLookup Lookup(std::uint64_t key, std::int64_t now_ms) {
    return table_.Lookup(browser_, key, now_ms);
  }
  void Store(std::uint64_t key, std::uint64_t size, std::int64_t now_ms) {
    table_.Store(browser_, key, size, now_ms);
  }
  void Renew(std::uint64_t key, std::int64_t now_ms) {
    table_.Renew(browser_, key, now_ms);
  }
  void Clear() { table_.Clear(browser_); }

  std::uint64_t used_bytes() { return Saved().used_bytes; }
  std::size_t entry_count() { return Saved().entries; }

 private:
  struct Totals {
    std::uint64_t used_bytes = 0;
    std::size_t entries = 0;
  };
  // Reads the one browser back out of the table's save.
  Totals Saved() {
    std::istringstream in(SavedBytes(table_));
    ckpt::Reader r(in);
    r.BeginSection("browsers", 1);
    EXPECT_EQ(r.ReadU64(), 1u);  // browsers
    EXPECT_EQ(r.ReadU32(), 7u);  // user index
    r.ExpectVersion("browser cache", 1);
    r.ReadU64();  // capacity
    r.ReadI64();  // freshness
    Totals totals;
    totals.entries = static_cast<std::size_t>(r.ReadU64());
    for (std::size_t i = 0; i < totals.entries; ++i) {
      r.ReadU64();  // key
      totals.used_bytes += r.ReadU64();
      r.ReadI64();  // fresh until
    }
    r.EndSection();
    return totals;
  }

  BrowserTable table_;
  std::uint32_t browser_;
};

// Runs `check` on the reference model and on a BrowserTable browser, so
// each case pins both to the same behaviour.
template <typename Check>
void OnBothModels(Check check) {
  {
    SCOPED_TRACE("reference BrowserCache");
    check(std::type_identity<BrowserCache>{});
  }
  {
    SCOPED_TRACE("BrowserTable");
    check(std::type_identity<TableBrowser>{});
  }
}

TEST(BrowserCacheTest, AbsentThenFresh) {
  OnBothModels([](auto model) {
    typename decltype(model)::type cache(1000, 100);
    EXPECT_EQ(cache.Lookup(1, 0), BrowserLookup::kAbsent);
    cache.Store(1, 200, 0);
    EXPECT_EQ(cache.Lookup(1, 50), BrowserLookup::kFresh);
  });
}

TEST(BrowserCacheTest, GoesStaleAfterFreshness) {
  OnBothModels([](auto model) {
    typename decltype(model)::type cache(1000, 100);
    cache.Store(1, 200, 0);
    EXPECT_EQ(cache.Lookup(1, 100), BrowserLookup::kStale);
    EXPECT_EQ(cache.Lookup(1, 10000), BrowserLookup::kStale);
  });
}

TEST(BrowserCacheTest, RenewRestoresFreshness) {
  OnBothModels([](auto model) {
    typename decltype(model)::type cache(1000, 100);
    cache.Store(1, 200, 0);
    EXPECT_EQ(cache.Lookup(1, 150), BrowserLookup::kStale);
    cache.Renew(1, 150);  // the 304 path
    EXPECT_EQ(cache.Lookup(1, 200), BrowserLookup::kFresh);
  });
}

TEST(BrowserCacheTest, RenewUnknownKeyIsNoop) {
  OnBothModels([](auto model) {
    typename decltype(model)::type cache(1000, 100);
    cache.Renew(42, 0);
    EXPECT_EQ(cache.Lookup(42, 0), BrowserLookup::kAbsent);
  });
}

TEST(BrowserCacheTest, ClearDropsEverything) {
  OnBothModels([](auto model) {
    typename decltype(model)::type cache(1000, 100);
    cache.Store(1, 200, 0);
    cache.Store(2, 200, 0);
    EXPECT_EQ(cache.entry_count(), 2u);
    cache.Clear();  // incognito window closed
    EXPECT_EQ(cache.entry_count(), 0u);
    EXPECT_EQ(cache.used_bytes(), 0u);
    EXPECT_EQ(cache.Lookup(1, 1), BrowserLookup::kAbsent);
  });
}

TEST(BrowserCacheTest, EvictsLruWhenFull) {
  OnBothModels([](auto model) {
    typename decltype(model)::type cache(500, 1000);
    cache.Store(1, 200, 0);
    cache.Store(2, 200, 1);
    EXPECT_EQ(cache.Lookup(1, 2), BrowserLookup::kFresh);  // refresh 1
    cache.Store(3, 200, 3);  // evicts 2 (least recent)
    EXPECT_EQ(cache.Lookup(2, 4), BrowserLookup::kAbsent);
    EXPECT_EQ(cache.Lookup(1, 4), BrowserLookup::kFresh);
    EXPECT_LE(cache.used_bytes(), 500u);
  });
}

TEST(BrowserCacheTest, UncacheablyLargeObjectIgnored) {
  OnBothModels([](auto model) {
    typename decltype(model)::type cache(500, 100);
    cache.Store(1, 1000, 0);
    EXPECT_EQ(cache.Lookup(1, 1), BrowserLookup::kAbsent);
    EXPECT_EQ(cache.used_bytes(), 0u);
  });
}

TEST(BrowserCacheTest, RestoreUpdatesSizeInPlace) {
  OnBothModels([](auto model) {
    typename decltype(model)::type cache(1000, 100);
    cache.Store(1, 200, 0);
    cache.Store(1, 300, 10);
    EXPECT_EQ(cache.used_bytes(), 300u);
    EXPECT_EQ(cache.entry_count(), 1u);
    EXPECT_EQ(cache.Lookup(1, 50), BrowserLookup::kFresh);
  });
}

TEST(BrowserCacheTest, RejectsBadConstruction) {
  OnBothModels([](auto model) {
    using Model = typename decltype(model)::type;
    EXPECT_THROW(Model(0, 100), std::invalid_argument);
    EXPECT_THROW(Model(100, 0), std::invalid_argument);
  });
}

TEST(BrowserTableTest, SameUrlInTwoBrowsersStaysSeparate) {
  BrowserTable table(1000, 100);
  ReferenceTable ref(1000, 100);
  const std::uint32_t a = table.BrowserFor(3);
  const std::uint32_t b = table.BrowserFor(9);
  table.Store(a, 42, 200, 0);
  ref.For(3).Store(42, 200, 0);
  ref.For(9);
  EXPECT_EQ(table.Lookup(b, 42, 10), BrowserLookup::kAbsent);
  table.Store(b, 42, 300, 50);
  ref.For(9).Store(42, 300, 50);
  // Each copy keeps its own size and freshness.
  EXPECT_EQ(table.Lookup(a, 42, 120), BrowserLookup::kStale);
  EXPECT_EQ(table.Lookup(b, 42, 120), BrowserLookup::kFresh);
  table.Renew(a, 42, 120);
  EXPECT_EQ(table.Lookup(a, 42, 200), BrowserLookup::kFresh);
  EXPECT_EQ(table.Lookup(b, 42, 200), BrowserLookup::kStale);
  ref.For(3).Lookup(42, 120);
  ref.For(9).Lookup(42, 120);
  ref.For(3).Renew(42, 120);
  ref.For(3).Lookup(42, 200);
  ref.For(9).Lookup(42, 200);
  EXPECT_EQ(SavedBytes(table), ref.SavedBytes());
}

TEST(BrowserTableTest, ClearOfOneBrowserLeavesOtherIntact) {
  BrowserTable table(1000, 100);
  ReferenceTable ref(1000, 100);
  const std::uint32_t a = table.BrowserFor(5);
  const std::uint32_t b = table.BrowserFor(2);
  for (std::uint64_t key = 1; key <= 3; ++key) {
    table.Store(a, key, 100, 0);
    table.Store(b, key, 100, 0);
    ref.For(5).Store(key, 100, 0);
    ref.For(2).Store(key, 100, 0);
  }
  table.Clear(a);
  ref.For(5).Clear();
  for (std::uint64_t key = 1; key <= 3; ++key) {
    EXPECT_EQ(table.Lookup(a, key, 10), BrowserLookup::kAbsent);
    EXPECT_EQ(table.Lookup(b, key, 10), BrowserLookup::kFresh);
    ref.For(2).Lookup(key, 10);
  }
  EXPECT_EQ(SavedBytes(table), ref.SavedBytes());
}

// A seeded mix of every operation over ~100 users: capacities small
// enough that stores evict, objects above the capacity, renewals of keys a
// browser does not hold, clears, and url hashes shared between users. A
// new user arrives every 1000 operations, with user indices out of arrival
// order, so each save has new browsers to sort in. Every verdict must
// match the reference's, and so must the saved bytes.
struct RandomRun {
  static constexpr std::uint64_t kCapacity = 4000;
  static constexpr std::int64_t kFreshness = 400;
  static constexpr std::uint64_t kUsers = 100;
  static constexpr std::uint64_t kKeys = 48;

  explicit RandomRun(std::uint64_t seed) : rng(seed) {}

  // Applies one random operation to both models; false on a verdict the
  // two disagree on.
  bool Step() {
    now_ms += static_cast<std::int64_t>(rng.NextBounded(40));
    const std::uint64_t arrived = std::min(kUsers, 1 + steps++ / 1000);
    const auto user =
        static_cast<std::uint32_t>(rng.NextBounded(arrived) * 7919 % 10007);
    const std::uint64_t key = 1 + rng.NextBounded(kKeys);
    const std::uint32_t browser = table.BrowserFor(user);
    BrowserCache& cache = ref.For(user);
    const std::uint64_t op = rng.NextBounded(100);
    if (op < 45) {
      return table.Lookup(browser, key, now_ms) == cache.Lookup(key, now_ms);
    }
    if (op < 80) {
      // One store in twenty is larger than the whole browser.
      const std::uint64_t size = rng.NextBounded(20) == 0
                                     ? kCapacity + 1 + rng.NextBounded(1000)
                                     : 1 + rng.NextBounded(1500);
      table.Store(browser, key, size, now_ms);
      cache.Store(key, size, now_ms);
    } else if (op < 98) {
      table.Renew(browser, key, now_ms);
      cache.Renew(key, now_ms);
    } else {
      table.Clear(browser);
      cache.Clear();
    }
    return true;
  }

  util::Rng rng;
  std::uint64_t steps = 0;
  std::int64_t now_ms = 0;
  BrowserTable table{kCapacity, kFreshness};
  ReferenceTable ref{kCapacity, kFreshness};
};

TEST(BrowserTableTest, RandomOpsMatchReferenceVerdictsAndBytes) {
  constexpr int kOps = 120000;
  constexpr int kCompareEvery = 4000;
  RandomRun run(20260601);
  for (int i = 1; i <= kOps; ++i) {
    ASSERT_TRUE(run.Step()) << "verdicts differ at op " << i;
    if (i % kCompareEvery == 0) {
      ASSERT_EQ(SavedBytes(run.table), run.ref.SavedBytes())
          << "saved bytes differ after op " << i;
    }
  }
}

TEST(BrowserTableTest, SaveRestoreSaveIsIdentity) {
  RandomRun run(77);
  for (int i = 0; i < 20000; ++i) ASSERT_TRUE(run.Step());
  const std::string saved = SavedBytes(run.table);
  BrowserTable restored(RandomRun::kCapacity, RandomRun::kFreshness);
  restored.Store(restored.BrowserFor(1000), 5, 10, 0);  // overwritten
  RestoreFrom(saved, restored);
  EXPECT_EQ(SavedBytes(restored), saved);
  // The restored table carries on exactly as the saved one would.
  run.table = std::move(restored);
  for (int i = 0; i < 20000; ++i) ASSERT_TRUE(run.Step()) << "op " << i;
  EXPECT_EQ(SavedBytes(run.table), run.ref.SavedBytes());
}

TEST(BrowserTableTest, RestoreRejectsConfigMismatch) {
  BrowserTable table(1000, 100);
  table.Store(table.BrowserFor(1), 1, 10, 0);
  const std::string saved = SavedBytes(table);
  for (const auto& [capacity, freshness] :
       std::vector<std::pair<std::uint64_t, std::int64_t>>{{2000, 100},
                                                           {1000, 50}}) {
    BrowserTable other(capacity, freshness);
    try {
      RestoreFrom(saved, other);
      FAIL() << "restore accepted " << capacity << " bytes / " << freshness
             << " ms";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "browser cache configuration mismatch (checkpoint has "
                    "1000 bytes / 100 ms)"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(BrowserTableTest, RestoreRejectsDuplicatesAndOversizeEntries) {
  // One saved browser of user 4 with the given entries, then optionally a
  // second browser of the same user.
  const auto saved = [](std::vector<std::pair<std::uint64_t, std::uint64_t>>
                            entries,
                        bool repeat_user) {
    return Checkpoint([&](ckpt::Writer& w) {
      w.WriteU64(repeat_user ? 2 : 1);
      for (int copy = 0; copy < (repeat_user ? 2 : 1); ++copy) {
        w.WriteU32(4);
        w.WriteVersion(1);
        w.WriteU64(1000);  // capacity
        w.WriteI64(100);   // freshness
        w.WriteU64(static_cast<std::uint64_t>(entries.size()));
        for (const auto& [key, size] : entries) {
          w.WriteU64(key);
          w.WriteU64(size);
          w.WriteI64(50);
        }
      }
    });
  };
  BrowserTable table(1000, 100);
  RestoreFrom(saved({{1, 10}, {2, 1000}}, false), table);  // well formed
  for (const auto& [bytes, error] : std::vector<std::pair<std::string, std::string>>{
           {saved({{1, 10}}, true), "ckpt: duplicate browser for user 4"},
           {saved({{1, 10}, {1, 20}}, false), "ckpt: corrupt browser cache entry"},
           {saved({{1, 1001}}, false), "ckpt: corrupt browser cache entry"}}) {
    try {
      RestoreFrom(bytes, table);
      FAIL() << "restore accepted a checkpoint that should fail with " << error;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), error);
    }
  }
}

}  // namespace
}  // namespace atlas::cdn
