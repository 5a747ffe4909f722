// Copyright 2026 The siot-trust Authors.

#include "common/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace siot {
namespace {

/// The lowest-index exception any body threw.
struct LowestError {
  void Offer(std::size_t i, std::exception_ptr thrown) {
    const MutexLock lock(&mutex);
    if (i < index) {
      index = i;
      error = std::move(thrown);
    }
  }

  void RethrowIfAny() {
    std::exception_ptr thrown;
    {
      const MutexLock lock(&mutex);
      thrown = error;
    }
    if (thrown) std::rethrow_exception(thrown);
  }

  Mutex mutex;  ///< Leaf lock: nothing is acquired under it.
  std::size_t index SIOT_GUARDED_BY(mutex) =
      std::numeric_limits<std::size_t>::max();
  std::exception_ptr error SIOT_GUARDED_BY(mutex);
};

}  // namespace

void ParallelFor(std::size_t threads, std::size_t count,
                 const std::function<void(std::size_t)>& body) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = std::min(threads, count);
  std::atomic<std::size_t> next{0};
  LowestError lowest;
  // An exception must not end a helper thread (that would terminate the
  // process) nor skip the remaining items: it is parked and rethrown here.
  const auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      try {
        body(i);
      } catch (...) {
        lowest.Offer(i, std::current_exception());
      }
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(threads > 1 ? threads - 1 : 0);
  try {
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(work);
  } catch (const std::system_error&) {
    // Fewer helpers only slow the loop; the rest claim every index.
  }
  work();
  for (std::thread& helper : helpers) helper.join();
  lowest.RethrowIfAny();
}

}  // namespace siot
