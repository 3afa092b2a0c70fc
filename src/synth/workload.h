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
// mass) — and draws from its own SplitMix64-derived RNG stream. Each shard
// writes exactly its quota into its own slice of the week's vector, in
// shard order, and the week is then stable-sorted by timestamp, so the
// result is bit-identical for every thread count. GenerateSites does this
// for a whole study on one set of threads: it builds the sites' generators
// concurrently and runs every site's shards as tasks of one ParallelFor.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ckpt/checkpoint.h"
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

struct SiteWorkload;

class WorkloadGenerator {
 public:
  WorkloadGenerator(const SiteProfile& profile, std::uint64_t seed);

  const Catalog& catalog() const { return catalog_; }
  const UserPopulation& users() const { return users_; }

  // Generates the full week of logical request events, sorted by timestamp:
  // GenerateSites' generation steps for this one generator. Each call draws
  // a fresh stream base, so successive calls produce fresh weeks.
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

  friend std::vector<SiteWorkload> GenerateSites(
      std::span<const SiteProfile> profiles,
      std::span<const std::uint64_t> seeds, std::uint64_t chunk_bytes,
      int threads);

  // One week per generator, each of its budget (0 = its profile's
  // total_requests). On the calling thread, in generator order, each draws
  // its stream base and shard quotas, and its week is allocated at its
  // exact size; then one ParallelFor fills every (generator, shard) slice;
  // then the calling thread stable-sorts each week by timestamp.
  static std::vector<std::vector<RequestEvent>> GenerateWeeks(
      std::span<WorkloadGenerator* const> generators,
      std::span<const std::uint64_t> budgets, int threads);

  RequestEvent MakeRequest(std::int64_t t, std::uint32_t user_index,
                           std::vector<std::uint32_t>& favorites,
                           bool session_start, util::Rng& rng) const;

  // Fills `out` with exactly out.size() events for one shard, drawn from
  // its own stream, in the order the shard's sessions produce them.
  void GenerateShard(const GenShard& shard, std::uint64_t stream_seed,
                     std::span<RequestEvent> out) const;

  SiteProfile profile_;
  util::Rng rng_;
  Catalog catalog_;
  UserPopulation users_;
  WeekHourDistribution week_hours_;
  std::vector<GenShard> shards_;
};

// One site of a study's workload: its generator and the week it drew.
struct SiteWorkload {
  std::unique_ptr<WorkloadGenerator> generator;
  std::vector<RequestEvent> events;
};

// A study's workload, set up on `threads` threads (<= 0 means
// util::DefaultThreads()). Site i's generator is WorkloadGenerator(
// profiles[i], seeds[i]) and its events are exactly what that generator's
// Generate(LogicalBudget(chunk_bytes), threads) returns, at any `threads`.
// The generators are constructed concurrently (each is a pure function of
// its profile and seed); then every site's shards run on one pool, straight
// into each site's exact-size vector; then each site is stable-sorted.
// Throws std::invalid_argument if the spans differ in length; a constructor
// that throws surfaces as the lowest failing site's exception.
std::vector<SiteWorkload> GenerateSites(std::span<const SiteProfile> profiles,
                                        std::span<const std::uint64_t> seeds,
                                        std::uint64_t chunk_bytes,
                                        int threads = 0);

}  // namespace atlas::synth
