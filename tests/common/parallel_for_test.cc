// Copyright 2026 The siot-trust Authors.
// ParallelFor: every item runs exactly once at any thread count, and a
// throwing body surfaces as the lowest-index exception after every body
// ran — on the inline path and on the threaded one alike.

#include "common/parallel_for.h"

#include <atomic>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace siot {
namespace {

/// Runs ParallelFor(threads, count) and expects each item to run once.
void ExpectEachItemOnce(std::size_t threads, std::size_t count) {
  std::vector<std::atomic<int>> hits(count);
  ParallelFor(threads, count, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(hits[i].load(), 1)
        << "item " << i << " of " << count << " at " << threads << " threads";
  }
}

/// The message of the exception ParallelFor rethrows; empty when none.
std::string ThrownMessage(std::size_t threads, std::size_t count,
                          const std::function<void(std::size_t)>& body) {
  try {
    ParallelFor(threads, count, body);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(ParallelForTest, RunsEveryItemExactlyOnce) {
  for (const std::size_t threads : {1ul, 2ul, 8ul}) {
    ExpectEachItemOnce(threads, 1000);
  }
}

TEST(ParallelForTest, SurplusAndZeroThreadsRunEveryItemOnce) {
  ExpectEachItemOnce(/*threads=*/8, /*count=*/3);
  ExpectEachItemOnce(/*threads=*/64, /*count=*/5);
  ExpectEachItemOnce(/*threads=*/0, /*count=*/1000);
}

TEST(ParallelForTest, ZeroAndTinyCounts) {
  for (const std::size_t threads : {0ul, 1ul, 4ul}) {
    std::atomic<int> calls{0};
    ParallelFor(threads, 0, [&calls](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
    ParallelFor(threads, 1, [&calls](std::size_t i) {
      EXPECT_EQ(i, 0u);
      calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 1);
  }
}

TEST(ParallelForTest, InlineRunsEveryBodyThenRethrowsLowestException) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> ran(100, 0);
  bool on_caller = true;
  const std::string thrown = ThrownMessage(1, ran.size(), [&](std::size_t i) {
    ++ran[i];
    on_caller = on_caller && std::this_thread::get_id() == caller;
    if (i == 3 || i == 7) throw std::runtime_error(std::to_string(i));
  });
  EXPECT_EQ(thrown, "3");
  EXPECT_TRUE(on_caller);
  for (std::size_t i = 0; i < ran.size(); ++i) EXPECT_EQ(ran[i], 1) << i;
}

TEST(ParallelForTest, ThreadedRunsEveryBodyThenRethrowsLowestException) {
  // Whichever thread hits which throw first, item 17's is the one that
  // surfaces, and only after the items past it ran too.
  std::vector<std::atomic<int>> ran(10000);
  const std::string thrown = ThrownMessage(4, ran.size(), [&](std::size_t i) {
    ran[i].fetch_add(1);
    if (i == 17 || i == 5000 || i == 9999) {
      throw std::runtime_error(std::to_string(i));
    }
  });
  EXPECT_EQ(thrown, "17");
  for (std::size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i].load(), 1) << i;
  }
}

TEST(ParallelForTest, EveryItemThrowingRethrowsItemZero) {
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> ran{0};
    EXPECT_EQ(ThrownMessage(8, 64,
                            [&ran](std::size_t i) {
                              ran.fetch_add(1);
                              throw std::runtime_error(std::to_string(i));
                            }),
              "0");
    EXPECT_EQ(ran.load(), 64);
  }
}

}  // namespace
}  // namespace siot
