// Annotated mutual-exclusion primitives for Clang Thread Safety Analysis.
//
// std::mutex and std::lock_guard carry no capability attributes, so code
// using them directly cannot be checked by -Wthread-safety. These thin
// wrappers add the attributes (and nothing else: Mutex is exactly a
// std::mutex, MutexLock exactly a lock_guard, CondVar a condition_variable
// that waits on a Mutex via the adopt/release idiom). Every concurrent
// subsystem in the tree uses them; see DESIGN.md §12 for the conventions.
#ifndef SILOZ_SRC_BASE_MUTEX_H_
#define SILOZ_SRC_BASE_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "src/base/thread_annotations.h"

namespace siloz {

class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // Tells the analysis (not the runtime) that this mutex is held. Used at
  // the top of lambdas that execute while the enclosing scope holds the
  // lock — rollback closures, allocator callbacks, wait predicates — since
  // the analysis examines a lambda body with an empty lock set.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII lock, analysis-visible (unlike std::lock_guard<Mutex>).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// RAII lock of two distinct mutexes. The caller names them in the order its
// code reads best and says which one its lock hierarchy takes first (e.g.
// the lower socket index); they are locked in that order and unlocked in
// reverse, so two threads locking the same pair cannot deadlock.
class SCOPED_CAPABILITY MutexLockPair {
 public:
  MutexLockPair(Mutex& a, Mutex& b, bool a_first) ACQUIRE(a, b)
      : first_(a_first ? a : b), second_(a_first ? b : a) {
    first_.lock();
    second_.lock();
  }
  ~MutexLockPair() RELEASE() {
    second_.unlock();
    first_.unlock();
  }

  MutexLockPair(const MutexLockPair&) = delete;
  MutexLockPair& operator=(const MutexLockPair&) = delete;

 private:
  Mutex& first_;
  Mutex& second_;
};

// Condition variable waiting on a Mutex. Wait() atomically releases the
// mutex while blocked and reacquires it before returning, exactly like
// std::condition_variable — the capability is held on entry and on exit,
// which is all the (lock-set-based) analysis needs to see.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's scope
  }

  // Waits until pred() is true. `pred` runs with the mutex held; if it reads
  // GUARDED_BY state it should open with mu.AssertHeld().
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) REQUIRES(mu) {
    while (!pred()) {
      Wait(mu);
    }
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace siloz

#endif  // SILOZ_SRC_BASE_MUTEX_H_
