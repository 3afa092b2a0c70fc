// The workload generator: profile -> a week of logical request events.
//
// Generation is session-structured (the unit the paper's user analysis is
// built around): sessions arrive according to the site's local-hour demand
// curve, heavy-tailed across users; each session issues a geometric number
// of requests separated by lognormal think times; each request picks an
// object either from the user's favorites (repeat access / "addiction",
// Figs. 13-14) or from the time-varying catalog demand (Figs. 6-10).
//
// Events are *logical* requests; the CDN simulator expands video views into
// chunked HTTP transactions and assigns response codes / cache status.
//
// Parallelism and determinism: the user population is split into a fixed
// number of contiguous shards (kGenerateShards, independent of the thread
// count). Each shard owns its users outright — their favorite sets, their
// sessions, their share of the request budget (apportioned by activity
// mass) — and draws from its own SplitMix64-derived RNG stream. Shards are
// generated independently (ParallelFor) and merged with a stable sort, so
// Generate(seed, T threads) is bit-identical for every T.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ckpt/checkpoint.h"  // atlas-lint: allow(layer-dag) ckpt is the passive serialization substrate; consuming its codec interface does not invert control flow
#include "synth/catalog.h"
#include "synth/site_profile.h"
#include "synth/user_model.h"
#include "util/rng.h"

namespace atlas::synth {

enum class Anomaly : std::uint8_t {
  kNone = 0,
  kHotlink = 1,   // request from a scraper / hotlinking site -> 403
  kBadRange = 2,  // malformed range request -> 416
  kBeacon = 3,    // tracking beacon -> 204
};

struct RequestEvent {
  std::int64_t timestamp_ms = 0;
  std::uint32_t user_index = 0;
  std::uint32_t object_index = 0;
  bool is_repeat = false;      // drawn from the user's favorites
  bool session_start = false;  // first request of its session
  double watch_fraction = 1.0; // video only: fraction of the file viewed
  Anomaly anomaly = Anomaly::kNone;
};

// Fixed shard count for parallel generation. Part of the output contract:
// changing it reshuffles RNG streams and therefore every generated trace.
inline constexpr std::size_t kGenerateShards = 32;

class WorkloadGenerator {
 public:
  WorkloadGenerator(const SiteProfile& profile, std::uint64_t seed);

  const SiteProfile& profile() const { return profile_; }
  const Catalog& catalog() const { return catalog_; }
  const UserPopulation& users() const { return users_; }

  // Generates the full week of logical request events, sorted by timestamp.
  // `logical_requests` == 0 means "use profile.total_requests"; `threads`
  // <= 0 means util::DefaultThreads(). The result depends only on the
  // construction seed and the budget, never on `threads`.
  std::vector<RequestEvent> Generate(std::uint64_t logical_requests = 0,
                                     int threads = 0);

  // Expected log records per logical request once the CDN simulator expands
  // video views into `chunk_bytes`-sized transactions. Used to calibrate the
  // logical budget so the final trace hits the profile's record target.
  double EstimateRecordsPerRequest(std::uint64_t chunk_bytes) const;

  // The logical budget that calibration implies: profile.total_requests
  // divided by EstimateRecordsPerRequest(chunk_bytes), at least 1. Every
  // simulation entry point generates this many events, so the final trace
  // approximates the profile's record target despite chunk expansion.
  std::uint64_t LogicalBudget(std::uint64_t chunk_bytes) const;

  // Digest of the generator's immutable identity (profile shape, catalog /
  // population sizes, shard plan). Stored in checkpoints so a resume
  // against a different profile fails clearly instead of replaying a
  // mismatched workload.
  std::uint64_t Fingerprint() const;

  // Checkpoints the RNG stream position (the only mutable state: events
  // are regenerated, not serialized — Generate() is a pure function of the
  // seed and the stream base drawn per call). RestoreState verifies the
  // fingerprint and rewinds/advances the stream to the saved position.
  void SaveState(ckpt::Writer& w) const;
  void RestoreState(ckpt::Reader& r);

 private:
  // One contiguous slice [user_lo, user_hi) of the population, with its own
  // activity-weighted sampler. Built once at construction; a pure function
  // of the profile + seed.
  struct GenShard {
    std::uint32_t user_lo = 0;
    std::uint32_t user_hi = 0;
    std::unique_ptr<stats::AliasTable> user_alias;
    double activity_mass = 0.0;
  };

  void BuildShards();

  RequestEvent MakeRequest(std::int64_t t, std::uint32_t user_index,
                           std::vector<std::uint32_t>& favorites,
                           bool session_start, util::Rng& rng) const;

  // Generates exactly `budget` events for one shard from its own stream.
  std::vector<RequestEvent> GenerateShard(const GenShard& shard,
                                          std::uint64_t budget,
                                          std::uint64_t stream_seed) const;

  SiteProfile profile_;
  util::Rng rng_;
  Catalog catalog_;
  UserPopulation users_;
  WeekHourDistribution week_hours_;
  std::vector<GenShard> shards_;
};

}  // namespace atlas::synth
