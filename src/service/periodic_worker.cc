// Copyright 2026 The siot-trust Authors.

#include "service/periodic_worker.h"

#include <utility>

namespace siot::service {

void PeriodicWorker::Start(std::chrono::milliseconds period,
                           bool run_at_start, std::function<bool()> body) {
  thread_ = std::thread([this, period, run_at_start, body = std::move(body)] {
    // A zero first wait still observes a Stop() that came first.
    auto wait = run_at_start ? std::chrono::milliseconds(0) : period;
    while (WaitPeriod(wait) && body()) wait = period;
  });
}

bool PeriodicWorker::WaitPeriod(std::chrono::milliseconds period) {
  // Deadline sleep with a hand-rolled predicate loop (not a wait_for
  // lambda) so the analysis sees the guarded `stopping_` reads under the
  // lock; spurious wakeups re-wait toward the same deadline.
  MutexLock lock(&mutex_);
  const auto deadline = std::chrono::steady_clock::now() + period;
  while (!stopping_ && !woken_) {
    if (!cv_.WaitUntil(mutex_, deadline)) break;
  }
  woken_ = false;
  return !stopping_;
}

void PeriodicWorker::Wake() {
  {
    const MutexLock lock(&mutex_);
    woken_ = true;
  }
  cv_.NotifyAll();
}

void PeriodicWorker::Stop() {
  {
    const MutexLock lock(&mutex_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
}

}  // namespace siot::service
