// Annotated locking primitives.
//
// libstdc++'s std::mutex / std::lock_guard carry no Clang thread-safety
// attributes, so code locking through them is invisible to -Wthread-safety.
// These thin wrappers restore the analysis: Mutex is a std::mutex declared
// as a capability, MutexLock is an RAII scoped acquire, and CondVar is a
// condition variable that waits on a Mutex (std::condition_variable_any,
// so no unannotated unique_lock is needed). Library code must use these
// instead of the raw std types — atlas_lint rule `raw-std-mutex` enforces
// it, and rule `mutex-unannotated` requires every Mutex to be referenced
// by at least one ATLAS_GUARDED_BY / ATLAS_REQUIRES in its file.
#pragma once

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace atlas::util {

class ATLAS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ATLAS_ACQUIRE() { mu_.lock(); }
  void unlock() ATLAS_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

// RAII: acquires on construction, releases on destruction.
class ATLAS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ATLAS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() ATLAS_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable bound to Mutex. Wait atomically releases `mu`, blocks,
// and reacquires before returning — callers hold `mu` on both sides, which
// is exactly what ATLAS_REQUIRES(mu) expresses. Spurious wakeups happen;
// always wait in a `while (!predicate)` loop.
class CondVar {
 public:
  void Wait(Mutex& mu) ATLAS_REQUIRES(mu) { cv_.wait(mu); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace atlas::util
