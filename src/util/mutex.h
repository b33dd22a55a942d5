#ifndef ODE_UTIL_MUTEX_H_
#define ODE_UTIL_MUTEX_H_

#include <pthread.h>

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace ode {

/// A std::mutex annotated as a Clang thread-safety capability. The standard
/// library's own primitives carry no annotations (on libstdc++), so the
/// analysis cannot check code that locks a raw std::mutex; every mutex in
/// the engine is one of these instead, and every member it protects is
/// declared GUARDED_BY(it). Zero overhead: the wrapper is exactly the
/// std::mutex plus attributes the optimizer never sees.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// For runtime checks in code the analysis cannot follow; tells the
  /// analysis to assume the lock is held from here on.
  void AssertHeld() ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// A mutex that spins briefly before it sleeps (glibc's adaptive mutex
/// type), for latches held for a few dozen instructions by many threads at
/// once — the buffer pool's shard latches. Under contention the holder is
/// almost always about to release, so a short spin wins the lock without
/// the futex sleep/wake round trip a plain Mutex pays. Same annotations as
/// Mutex; no CondVar support (nothing waits on a latch). Where the adaptive
/// type is unavailable it degrades to a plain pthread mutex.
class CAPABILITY("mutex") AdaptiveMutex {
 public:
  AdaptiveMutex() {
    pthread_mutexattr_t attr;
    pthread_mutexattr_init(&attr);
#ifdef PTHREAD_ADAPTIVE_MUTEX_INITIALIZER_NP
    pthread_mutexattr_settype(&attr, PTHREAD_MUTEX_ADAPTIVE_NP);
#endif
    pthread_mutex_init(&mu_, &attr);
    pthread_mutexattr_destroy(&attr);
  }
  ~AdaptiveMutex() { pthread_mutex_destroy(&mu_); }
  AdaptiveMutex(const AdaptiveMutex&) = delete;
  AdaptiveMutex& operator=(const AdaptiveMutex&) = delete;

  void Lock() ACQUIRE() { pthread_mutex_lock(&mu_); }
  void Unlock() RELEASE() { pthread_mutex_unlock(&mu_); }
  bool TryLock() TRY_ACQUIRE(true) { return pthread_mutex_trylock(&mu_) == 0; }
  void AssertHeld() ASSERT_CAPABILITY(this) {}

 private:
  pthread_mutex_t mu_;
};

/// RAII lock over an ode::Mutex or ode::AdaptiveMutex (LevelDB's
/// MutexLock); `MutexLock lock(mu);` deduces the type. SCOPED_CAPABILITY
/// teaches the analysis that construction acquires and scope exit releases.
template <typename M>
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(M& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  M& mu_;
};

/// Condition variable bound to ode::Mutex. Every wait requires the mutex
/// held (REQUIRES), mirroring the std::condition_variable contract; the
/// internal unlock/relock during the wait is invisible to the analysis,
/// which matches the caller-visible truth: the mutex is held before and
/// after the call.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // the caller still owns the lock
  }

  /// Returns false on timeout (the deadline passed before a notification);
  /// the mutex is re-held either way.
  template <typename Clock, typename Duration>
  bool WaitUntil(Mutex& mu,
                 const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    const std::cv_status st = cv_.wait_until(lk, deadline);
    lk.release();
    return st != std::cv_status::timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace ode

#endif  // ODE_UTIL_MUTEX_H_
