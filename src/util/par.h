// Deterministic parallel execution primitives.
//
// Everything here is built around one contract: *running with T threads
// produces bit-identical results to running with 1 thread*. The primitives
// guarantee their half of that contract — shards are a pure function of the
// problem, never of the thread count, and reductions combine in index
// order — and callers guarantee the other half by giving each shard its own
// RNG stream (ShardedRng) and writing only to shard-private slots.
//
// Scheduling is dynamic (workers pull the next shard index from an atomic
// counter), which balances skewed shard costs without affecting results:
// shard `i` computes the same value no matter which worker runs it or when.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace atlas::util {

// Process-wide default worker count used when a `threads` argument is <= 0.
// Initialized to std::thread::hardware_concurrency(); tools plumb their
// --threads flag through SetDefaultThreads. Always >= 1.
int DefaultThreads();

// n >= 1 pins the default; n <= 0 restores the hardware default.
void SetDefaultThreads(int n);

// Resolves a caller-supplied thread count: <= 0 means DefaultThreads().
int ResolveThreads(int threads);

// True while the calling thread is executing inside a parallel region
// (a ThreadPool::Run worker or its participating caller). ParallelFor and
// ParallelReduce consult this to run nested calls inline instead of
// spawning a pool inside a pool.
bool InParallelRegion();

// A small fixed-size thread pool. The pool owns `threads - 1` workers; the
// thread calling Run() participates as the final executor, so `threads == 1`
// spawns nothing and runs inline.
class ThreadPool {
 public:
  // threads <= 0 means DefaultThreads().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Runs fn(shard) for every shard in [0, shards), distributing shards
  // dynamically across the pool and the calling thread. Blocks until every
  // shard ran (or was skipped after a failure). A shard that throws stops
  // the dispatch of higher shards, while every lower shard still runs; the
  // exception of the lowest failing shard is rethrown here, which is the
  // one a serial loop over the shards would raise.
  //
  // Rejects nested use: calling Run from inside any parallel region (this
  // pool's or another's) throws std::logic_error — run the inner work
  // inline or via ParallelFor, which degrades gracefully.
  void Run(std::size_t shards, const std::function<void(std::size_t)>& fn);

 private:
  void WorkerLoop();
  // Executes shards of `fn` until the counter runs dry or the job aborts.
  // Workers snapshot (fn, shards) under mutex_ before calling; the job
  // outlives the call because Run() blocks until pending_workers_ hits zero.
  void RunShards(const std::function<void(std::size_t)>& fn,
                 std::size_t shards);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar job_cv_;
  CondVar done_cv_;
  // Current job: published under mutex_, snapshot by each worker when it
  // observes a new generation.
  const std::function<void(std::size_t)>* job_fn_ ATLAS_GUARDED_BY(mutex_) =
      nullptr;
  std::size_t job_shards_ ATLAS_GUARDED_BY(mutex_) = 0;
  std::uint64_t generation_ ATLAS_GUARDED_BY(mutex_) = 0;
  std::size_t pending_workers_ ATLAS_GUARDED_BY(mutex_) = 0;
  // The lowest failing shard's exception; failed_shard_ holds its index
  // (kNoFailure while none has failed) and is read lock-free to stop
  // dispatch, but only written under mutex_ together with error_.
  static constexpr std::size_t kNoFailure = static_cast<std::size_t>(-1);
  std::exception_ptr error_ ATLAS_GUARDED_BY(mutex_);
  bool shutdown_ ATLAS_GUARDED_BY(mutex_) = false;
  std::atomic<std::size_t> next_shard_{0};
  std::atomic<std::size_t> failed_shard_{kNoFailure};
};

// Runs fn(i) for i in [0, n). With threads (resolved) > 1 and n > 1, shards
// are executed by a transient ThreadPool; results must therefore only
// depend on i, never on execution order. Nested calls (from inside another
// parallel region) execute inline on the calling thread, so parallel code
// can freely call parallel helpers. Rethrows the exception of the lowest
// failing i, as the serial loop does.
void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                 int threads = 0);

// Computes map(i) for i in [0, n) in parallel, then folds the results in
// strict index order: combine(...combine(combine(init, r0), r1)..., rn-1).
// The fold is serial and ordered, so floating-point reductions are
// bit-identical regardless of thread count.
template <typename T>
T ParallelReduce(std::size_t n, T init,
                 const std::function<T(std::size_t)>& map,
                 const std::function<T(const T&, const T&)>& combine,
                 int threads = 0) {
  std::vector<T> slots(n);
  ParallelFor(
      n, [&](std::size_t i) { slots[i] = map(i); }, threads);
  T acc = init;
  for (std::size_t i = 0; i < n; ++i) acc = combine(acc, slots[i]);
  return acc;
}

// Derives one independent SplitMix64-seeded RNG stream per shard from a
// single base seed. The stream seeds are drawn once, in shard order, at
// construction — a pure function of (seed, shards) — so shard i sees the
// same stream whether the run uses 1 thread or 64.
class ShardedRng {
 public:
  ShardedRng(std::uint64_t seed, std::size_t shards);

  std::uint64_t seed(std::size_t shard) const { return seeds_.at(shard); }

 private:
  std::vector<std::uint64_t> seeds_;
};

// Splits `total` units across `shards` in proportion to `weights`
// (largest-remainder apportionment; ties resolved by lower index). The
// returned quotas sum to exactly `total`. Zero/empty weights fall back to
// an even split. Used to hand each generator shard its exact slice of a
// request budget.
std::vector<std::uint64_t> ApportionByWeight(std::uint64_t total,
                                             const std::vector<double>& weights);

}  // namespace atlas::util
