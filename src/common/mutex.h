// Copyright 2026 The siot-trust Authors.
// Annotated mutex wrappers: the only place in the repo allowed to name
// std::mutex / std::shared_mutex / std::lock_guard / std::unique_lock /
// std::shared_lock (enforced by tools/lint_concurrency.py). Everything
// concurrent locks through these types so Clang Thread Safety Analysis
// (see thread_annotations.h) can prove the discipline on the clang CI
// leg; under g++ they compile to the bare standard primitives.
//
// Lock-ordering ranks (also declared via SIOT_ACQUIRED_BEFORE where the
// members are statically nameable; per-shard locks are dynamic and only
// ordered here and by the index-order convention):
//   ShardedEngines (the core under both services): shard.mutex
//                   (ascending shard index) -> watermark_mutex_
//   TrustService:   admin_mutex_ -> shard.mutex (ascending shard index)
//                   -> background_mutex_
//   ReplicaService: build_mutex_ -> shard.mutex (ascending shard index)
//                   -> status_mutex_
//   The leaves (watermark_mutex_, background_mutex_, status_mutex_) are
//   taken one at a time, never nested in each other.
//   PeriodicWorker::mutex_ is held only while waiting out a period, so
//   nothing is ever taken under it. GroupCommitter::mutex_ is a leaf: no
//   other siot lock is ever taken under it (WAL fds are flushed with it
//   released).

#ifndef SIOT_COMMON_MUTEX_H_
#define SIOT_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "common/thread_annotations.h"

namespace siot {

class CondVar;

/// Exclusive mutex. Same cost as std::mutex; adds the capability
/// attribute plus AssertHeld for code paths the analysis cannot follow.
class SIOT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SIOT_ACQUIRE() { mu_.lock(); }
  void Unlock() SIOT_RELEASE() { mu_.unlock(); }

  /// Static-analysis assertion only — there is no portable is-held query
  /// on std::mutex, so this performs no runtime check. Call it only
  /// where surrounding code provably holds the lock, with a comment
  /// saying why.
  void AssertHeld() const SIOT_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Reader/writer mutex (std::shared_mutex with the capability attribute).
class SIOT_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() SIOT_ACQUIRE() { mu_.lock(); }
  void Unlock() SIOT_RELEASE() { mu_.unlock(); }

  void ReaderLock() SIOT_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void ReaderUnlock() SIOT_RELEASE_SHARED() { mu_.unlock_shared(); }

  /// Static-analysis assertions only (no runtime check) — see
  /// Mutex::AssertHeld. AssertReaderHeld is the audit hook for guarded
  /// reads under MultiReaderLock's dynamic all-shard lock set.
  void AssertHeld() const SIOT_ASSERT_CAPABILITY(this) {}
  void AssertReaderHeld() const SIOT_ASSERT_SHARED_CAPABILITY(this) {}

 private:
  std::shared_mutex mu_;
};

/// Scoped exclusive lock on Mutex, releasable and re-acquirable so a
/// critical section can drop the lock around slow work (the
/// group-commit leader flushes WAL fds with the round lock released).
/// Mirrors the MutexLocker pattern in the clang TSA documentation.
class SIOT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) SIOT_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() SIOT_RELEASE() {
    if (held_) mu_->Unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() SIOT_RELEASE() {
    mu_->Unlock();
    held_ = false;
  }
  void Lock() SIOT_ACQUIRE() {
    mu_->Lock();
    held_ = true;
  }

 private:
  Mutex* const mu_;
  bool held_ = true;
};

/// Scoped exclusive lock on SharedMutex.
class SIOT_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex* mu) SIOT_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterLock() SIOT_RELEASE() { mu_->Unlock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// Scoped shared (reader) lock on SharedMutex.
class SIOT_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex* mu) SIOT_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderLock() SIOT_RELEASE() { mu_->ReaderUnlock(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// Holds every mutex in `mus` shared, acquired in vector order. Used for
/// the all-shard consistent cut (ReplicaService::BuildOverlaySnapshot,
/// its one holder): a dynamic, loop-acquired lock set is outside
/// what the analysis can track, hence the NO_THREAD_SAFETY_ANALYSIS
/// escapes below.
///
/// Deadlock-freedom argument (the ACQUIRED_AFTER story the analysis
/// cannot encode for dynamic locks): callers pass the shard mutexes in
/// ascending shard-index order, which is the global shard-lock rank; and
/// every OTHER thread in the system holds at most ONE shard lock at a
/// time (requests are bucketed per shard; batch paths lock one shard,
/// drain it, unlock, then move on), so even a second simultaneous
/// all-shard holder cannot form a cycle — both acquire in the same total
/// order. Guarded reads under this lock must go through helpers that
/// call AssertReaderHeld on the one shard they touch (the
/// assert-capability audit); never dereference guarded state directly
/// under a MultiReaderLock.
class SIOT_SCOPED_CAPABILITY MultiReaderLock {
 public:
  /// Acquires a dynamic lock set the analysis cannot see; safety argued
  /// in the class comment above.
  explicit MultiReaderLock(std::vector<SharedMutex*> mus)
      SIOT_NO_THREAD_SAFETY_ANALYSIS : mus_(std::move(mus)) {
    for (SharedMutex* mu : mus_) mu->ReaderLock();
  }
  /// Releases the same dynamic set; paired with the ctor's escape.
  ~MultiReaderLock() SIOT_NO_THREAD_SAFETY_ANALYSIS {
    for (std::size_t i = mus_.size(); i > 0; --i) {
      mus_[i - 1]->ReaderUnlock();
    }
  }
  MultiReaderLock(const MultiReaderLock&) = delete;
  MultiReaderLock& operator=(const MultiReaderLock&) = delete;

 private:
  std::vector<SharedMutex*> mus_;
};

/// Condition variable working with siot::Mutex. Waits adopt the wrapped
/// std::mutex for the duration of the block so there is no extra
/// overhead and no unannotated unlock visible to the analysis; the
/// REQUIRES contract makes every wait site prove it holds the lock.
/// There are deliberately no predicate overloads: a lambda cannot carry
/// a REQUIRES annotation, so call sites hand-roll
///   while (!predicate()) cv.Wait(mu);
/// where the analysis can see the guarded reads under the held lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) SIOT_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  /// Returns false if `deadline` passed, true when woken (possibly
  /// spuriously) — callers loop on their predicate either way.
  bool WaitUntil(Mutex& mu, std::chrono::steady_clock::time_point deadline)
      SIOT_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace siot

#endif  // SIOT_COMMON_MUTEX_H_
