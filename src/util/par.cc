#include "util/par.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace atlas::util {
namespace {

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::atomic<int> g_default_threads{0};  // 0 = use HardwareThreads()

thread_local int tls_parallel_depth = 0;

// RAII depth marker for threads executing shards.
struct ParallelRegionGuard {
  ParallelRegionGuard() { ++tls_parallel_depth; }
  ~ParallelRegionGuard() { --tls_parallel_depth; }
};

}  // namespace

int DefaultThreads() {
  const int pinned = g_default_threads.load(std::memory_order_relaxed);
  return pinned > 0 ? pinned : HardwareThreads();
}

void SetDefaultThreads(int n) {
  g_default_threads.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

int ResolveThreads(int threads) {
  return threads > 0 ? threads : DefaultThreads();
}

bool InParallelRegion() { return tls_parallel_depth > 0; }

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(1, ResolveThreads(threads));
  workers_.reserve(static_cast<std::size_t>(n - 1));
  for (int i = 0; i < n - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  job_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t shards = 0;
    {
      MutexLock lock(mutex_);
      while (!shutdown_ && generation_ == seen_generation) {
        job_cv_.Wait(mutex_);
      }
      if (shutdown_) return;
      seen_generation = generation_;
      fn = job_fn_;
      shards = job_shards_;
    }
    RunShards(*fn, shards);
    {
      MutexLock lock(mutex_);
      if (--pending_workers_ == 0) done_cv_.NotifyAll();
    }
  }
}

void ThreadPool::RunShards(const std::function<void(std::size_t)>& fn,
                           std::size_t shards) {
  ParallelRegionGuard guard;
  for (;;) {
    // Shards are claimed in index order, so every shard below a failed one
    // was claimed before it failed and still runs to the end; only shards
    // above the lowest failure so far are skipped.
    const std::size_t shard =
        next_shard_.fetch_add(1, std::memory_order_relaxed);
    if (shard >= shards ||
        shard > failed_shard_.load(std::memory_order_relaxed)) {
      return;
    }
    try {
      fn(shard);
    } catch (...) {
      MutexLock lock(mutex_);
      if (shard < failed_shard_.load(std::memory_order_relaxed)) {
        failed_shard_.store(shard, std::memory_order_relaxed);
        error_ = std::current_exception();
      }
    }
  }
}

void ThreadPool::Run(std::size_t shards,
                     const std::function<void(std::size_t)>& fn) {
  if (InParallelRegion()) {
    throw std::logic_error(
        "ThreadPool::Run called from inside a parallel region; run the "
        "nested work inline or via ParallelFor");
  }
  if (shards == 0) return;
  {
    MutexLock lock(mutex_);
    job_fn_ = &fn;
    job_shards_ = shards;
    next_shard_.store(0, std::memory_order_relaxed);
    failed_shard_.store(kNoFailure, std::memory_order_relaxed);
    error_ = nullptr;
    pending_workers_ = workers_.size();
    ++generation_;
  }
  job_cv_.NotifyAll();
  RunShards(fn, shards);  // the caller is the pool's final executor
  std::exception_ptr error;
  {
    MutexLock lock(mutex_);
    while (pending_workers_ != 0) done_cv_.Wait(mutex_);
    job_fn_ = nullptr;
    job_shards_ = 0;
    error = error_;
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                 int threads) {
  if (n == 0) return;
  const int t = ResolveThreads(threads);
  if (t <= 1 || n == 1 || InParallelRegion()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::size_t executors =
      std::min<std::size_t>(static_cast<std::size_t>(t), n);
  ThreadPool pool(static_cast<int>(executors));
  pool.Run(n, fn);
}

ShardedRng::ShardedRng(std::uint64_t seed, std::size_t shards) {
  SplitMix64 mixer(seed);
  seeds_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) seeds_.push_back(mixer.Next());
}

std::vector<std::uint64_t> ApportionByWeight(
    std::uint64_t total, const std::vector<double>& weights) {
  if (weights.empty()) return {};
  const std::size_t n = weights.size();
  const double mass = std::accumulate(weights.begin(), weights.end(), 0.0);
  std::vector<std::uint64_t> quota(n, 0);
  if (mass <= 0.0) {
    // Even split fallback.
    for (std::size_t i = 0; i < n; ++i) quota[i] = total / n;
    for (std::size_t i = 0; i < total % n; ++i) ++quota[i];
    return quota;
  }
  std::vector<std::pair<double, std::size_t>> remainders;
  remainders.reserve(n);
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double exact =
        static_cast<double>(total) * (std::max(0.0, weights[i]) / mass);
    const auto floor_units = static_cast<std::uint64_t>(exact);
    quota[i] = floor_units;
    assigned += floor_units;
    remainders.emplace_back(exact - static_cast<double>(floor_units), i);
  }
  // Hand the leftover units to the largest fractional parts; ties go to the
  // lower index so the result is fully deterministic.
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (std::size_t k = 0; assigned < total; ++k) {
    ++quota[remainders[k % n].second];
    ++assigned;
  }
  return quota;
}

}  // namespace atlas::util
