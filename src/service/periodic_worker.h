// Copyright 2026 The siot-trust Authors.
// PeriodicWorker: the one background loop of the serving layer — the
// follower's WAL poller and its overlay rebuilder both run on it.
//
// The worker thread waits out each period on a deadline that Stop()
// interrupts at once, then runs the body with the worker's own lock
// RELEASED: the lock is held only while waiting, so a body may take any
// service lock (shard locks, build mutex) without a rank inversion, and
// Stop() never waits for a lock a body holds — only for the body itself
// to return.

#ifndef SIOT_SERVICE_PERIODIC_WORKER_H_
#define SIOT_SERVICE_PERIODIC_WORKER_H_

#include <chrono>
#include <functional>
#include <thread>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace siot::service {

class PeriodicWorker {
 public:
  PeriodicWorker() = default;
  ~PeriodicWorker() { Stop(); }
  PeriodicWorker(const PeriodicWorker&) = delete;
  PeriodicWorker& operator=(const PeriodicWorker&) = delete;

  /// Starts the thread: runs `body` once at once when `run_at_start`,
  /// then once per elapsed `period`, until Stop() or until `body` returns
  /// false (a body that can never succeed again ends its own loop).
  /// Call at most once.
  void Start(std::chrono::milliseconds period, bool run_at_start,
             std::function<bool()> body);

  /// Interrupts the wait and joins. The body never runs after Stop()
  /// returns; a run in progress finishes first. Idempotent, and safe
  /// before Start() (a later Start() then never runs the body).
  void Stop();

 private:
  /// Waits one `period`; false once Stop() was requested.
  bool WaitPeriod(std::chrono::milliseconds period);

  /// Leaf lock: held only while waiting and by Stop().
  Mutex mutex_;
  CondVar cv_;
  bool stopping_ SIOT_GUARDED_BY(mutex_) = false;
  std::thread thread_;
};

}  // namespace siot::service

#endif  // SIOT_SERVICE_PERIODIC_WORKER_H_
