// Copyright 2026 The siot-trust Authors.
// The serving core shared by leader and follower, tested directly:
//
//   * routing — ShardedEngines::ShardOf, TrustService::ShardOf and
//     ShardIndexForTrustor agree for every trustor and shard count;
//   * GroupByShard hands every index to exactly one bucket, the right
//     one, ascending — so batch results land in input order;
//   * the task watermark only admits a task every shard has noted;
//   * the concurrent restore fan-out runs every index once and reports
//     what a serial loop in index order would: the lowest failure,
//     whether a status or a thrown exception;
//   * a read that waited on its shard lock while the engines were
//     exchanged fails closed instead of reaching the engine's
//     unknown-task check;
//   * PeriodicWorker: Stop interrupts a long period at once, the body
//     never runs after Stop returns, a stop before the first run is
//     clean, run_at_start runs at once, a body returning false ends its
//     own loop, and Wake runs the body at once, also when it comes while
//     the body runs.

#include "service/sharded_engines.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "service/periodic_worker.h"
#include "service/trust_service.h"

namespace siot::service {
namespace {

using trust::AgentId;

constexpr std::chrono::milliseconds kPrompt{5000};

/// Minimal role shard: no state beyond the core's.
struct TestShard : EngineShard {
  using EngineShard::EngineShard;
};

// ------------------------------------------------------------- routing --

TEST(ShardedEnginesTest, RoutingAgreesWithShardIndexForTrustor) {
  for (const std::size_t shards : {1u, 2u, 7u, 16u}) {
    const ShardedEngines<TestShard> core(shards, {});
    const TrustService service(TrustServiceConfig{shards, {}});
    ASSERT_EQ(core.shard_count(), shards);
    for (AgentId trustor = 0; trustor < 2000; ++trustor) {
      const std::size_t expected = ShardIndexForTrustor(trustor, shards);
      ASSERT_LT(expected, shards);
      EXPECT_EQ(core.ShardOf(trustor), expected);
      EXPECT_EQ(service.ShardOf(trustor), expected);
    }
  }
  // Shard count 0 clamps to one shard, like the services.
  EXPECT_EQ(ShardedEngines<TestShard>(0, {}).shard_count(), 1u);
}

TEST(ShardedEnginesTest, GroupByShardKeepsInputOrder) {
  constexpr std::size_t kShards = 5;
  // Trustors in a scrambled order with repeats.
  std::vector<AgentId> trustors;
  for (AgentId i = 0; i < 300; ++i) trustors.push_back((i * 37 + 11) % 97);
  std::vector<int> seen(trustors.size(), 0);
  std::vector<AgentId> results(trustors.size(), trust::kNoAgent);
  std::size_t last_shard = 0;
  bool first = true;
  GroupByShard(
      kShards, trustors.size(), [&](std::size_t i) { return trustors[i]; },
      [&](std::size_t s, const std::vector<std::size_t>& indices) {
        ASSERT_FALSE(indices.empty());
        if (!first) {
          EXPECT_GT(s, last_shard);
        }
        first = false;
        last_shard = s;
        for (std::size_t k = 0; k < indices.size(); ++k) {
          if (k > 0) {
            EXPECT_LT(indices[k - 1], indices[k]);
          }
          EXPECT_EQ(ShardIndexForTrustor(trustors[indices[k]], kShards), s);
          ++seen[indices[k]];
          results[indices[k]] = trustors[indices[k]];
        }
      });
  for (std::size_t i = 0; i < trustors.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "index " << i;
  }
  EXPECT_EQ(results, trustors);
}

// ----------------------------------------------------------- watermark --

TEST(ShardedEnginesTest, TaskValidatesOnlyOnceEveryShardNotedIt) {
  ShardedEngines<TestShard> core(3, {});
  EXPECT_TRUE(core.ValidateTask(0).IsInvalidArgument());
  for (std::size_t s = 0; s < core.shard_count(); ++s) {
    TestShard& shard = core.shard(s);
    const WriterLock lock(&shard.mutex);
    ASSERT_TRUE(shard.engine.catalog().AddUniform("sense", {0, 1}).ok());
    core.NoteCatalogLocked(shard);
    // Shards noted so far have the task; the rest do not yet.
    const bool everywhere = s + 1 == core.shard_count();
    EXPECT_EQ(core.ValidateTask(0).ok(), everywhere) << "after shard " << s;
  }
  EXPECT_TRUE(core.ValidateTask(1).IsInvalidArgument());
  // A rejected read is not counted.
  EXPECT_TRUE(core.PreEvaluate(1, 2, 1).status().IsInvalidArgument());
  EXPECT_TRUE(core.PreEvaluate(1, 2, 0).ok());
  EXPECT_EQ(core.Stats().pre_evaluations, 1u);
}

TEST(ShardedEnginesTest, ReadsAfterEnginesAreExchangedAwayFailClosed) {
  ShardedEngines<TestShard> core(3, {});
  for (std::size_t s = 0; s < core.shard_count(); ++s) {
    TestShard& shard = core.shard(s);
    const WriterLock lock(&shard.mutex);
    ASSERT_TRUE(shard.engine.catalog().AddUniform("sense", {0, 1}).ok());
    core.NoteCatalogLocked(shard);
  }
  ASSERT_TRUE(core.PreEvaluate(1, 2, 0).ok());
  std::vector<trust::TrustEngine> engines(core.shard_count());
  core.ExchangeEngines(engines);
  for (const trust::TrustEngine& engine : engines) {
    EXPECT_EQ(engine.catalog().size(), 1u);
  }
  // The watermark keeps its height, so a read validates exactly as one
  // already past validation did when the engines left; the check under
  // the shard lock turns it away instead of the engine aborting.
  EXPECT_TRUE(core.ValidateTask(0).ok());
  EXPECT_TRUE(core.PreEvaluate(1, 2, 0).status().IsFailedPrecondition());
  std::vector<PreEvaluateRequest> batch;
  for (AgentId trustor = 0; trustor < 12; ++trustor) {
    batch.push_back({trustor, 2, 0});
  }
  EXPECT_TRUE(core.BatchPreEvaluate(batch).status().IsFailedPrecondition());
  EXPECT_EQ(core.Stats().pre_evaluations, 1u);
  // Exchanging them back serves again.
  core.ExchangeEngines(engines);
  EXPECT_TRUE(core.PreEvaluate(1, 2, 0).ok());
  EXPECT_EQ(core.BatchPreEvaluate(batch).value().size(), batch.size());
}

// ------------------------------------------------------------ fan-out --

TEST(ShardedEnginesTest, ConcurrentFanOutReportsTheLowestFailure) {
  constexpr std::size_t kCount = 16;
  std::vector<std::atomic<int>> runs(kCount);
  const Status status = ForEachIndexConcurrently(kCount, [&](std::size_t s) {
    runs[s].fetch_add(1);
    if (s == 3 || s == 7) return Status::Corruption(std::to_string(s));
    return Status::OK();
  });
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(status.message(), "3");
  for (std::size_t s = 0; s < runs.size(); ++s) {
    EXPECT_EQ(runs[s].load(), 1) << "shard " << s;
  }
  // A throw below the lowest failing status wins; above it, it loses.
  const auto throwing_at = [&](std::size_t thrower) {
    return ForEachIndexConcurrently(kCount, [thrower](std::size_t s) {
      if (s == thrower) throw std::runtime_error("thrown");
      if (s == 5) return Status::Corruption("5");
      return Status::OK();
    });
  };
  EXPECT_THROW(throwing_at(2), std::runtime_error);
  EXPECT_EQ(throwing_at(9).message(), "5");
}

// ------------------------------------------------------ periodic worker --

/// Counts body runs and lets the test wait for a count without sleeping.
class RunCounter {
 public:
  void Bump() {
    {
      const MutexLock lock(&mutex_);
      ++runs_;
    }
    cv_.NotifyAll();
  }
  int runs() {
    const MutexLock lock(&mutex_);
    return runs_;
  }
  /// True once `target` runs happened; false after `timeout`.
  bool AwaitRuns(int target,
                 std::chrono::milliseconds timeout = kPrompt) {
    MutexLock lock(&mutex_);
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (runs_ < target) {
      if (!cv_.WaitUntil(mutex_, deadline)) return runs_ >= target;
    }
    return true;
  }

 private:
  Mutex mutex_;
  CondVar cv_;
  int runs_ SIOT_GUARDED_BY(mutex_) = 0;
};

TEST(PeriodicWorkerTest, StopInterruptsLongPeriodPromptly) {
  RunCounter counter;
  PeriodicWorker worker;
  worker.Start(std::chrono::hours(1), /*run_at_start=*/false, [&] {
    counter.Bump();
    return true;
  });
  const auto start = std::chrono::steady_clock::now();
  worker.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, kPrompt);
  // Stopped before the first period elapsed: the body never ran.
  EXPECT_EQ(counter.runs(), 0);
  worker.Stop();  // Idempotent.
}

TEST(PeriodicWorkerTest, BodyNeverRunsAfterStopReturns) {
  RunCounter counter;
  std::atomic<bool> stop_returned{false};
  std::atomic<bool> ran_after_stop{false};
  PeriodicWorker worker;
  worker.Start(std::chrono::milliseconds(1), /*run_at_start=*/false, [&] {
    if (stop_returned.load()) ran_after_stop.store(true);
    counter.Bump();
    return true;
  });
  ASSERT_TRUE(counter.AwaitRuns(3));
  worker.Stop();
  stop_returned.store(true);
  const int runs = counter.runs();
  // The worker thread is joined: nothing can run any more.
  EXPECT_EQ(counter.runs(), runs);
  EXPECT_FALSE(ran_after_stop.load());
}

TEST(PeriodicWorkerTest, StopBeforeFirstRunIsClean) {
  RunCounter counter;
  {
    // Stop() before Start(): a later Start() never runs the body, even
    // with run_at_start.
    PeriodicWorker worker;
    worker.Stop();
    worker.Start(std::chrono::milliseconds(1), /*run_at_start=*/true, [&] {
      counter.Bump();
      return true;
    });
    worker.Stop();
  }
  {
    // Destroyed without an explicit Stop(): the destructor stops it.
    PeriodicWorker worker;
    worker.Start(std::chrono::hours(1), /*run_at_start=*/false, [&] {
      counter.Bump();
      return true;
    });
  }
  EXPECT_EQ(counter.runs(), 0);
}

TEST(PeriodicWorkerTest, RunAtStartRunsWithoutWaitingAPeriod) {
  RunCounter counter;
  PeriodicWorker worker;
  worker.Start(std::chrono::hours(1), /*run_at_start=*/true, [&] {
    counter.Bump();
    return true;
  });
  EXPECT_TRUE(counter.AwaitRuns(1));
  worker.Stop();
  EXPECT_EQ(counter.runs(), 1);
}

TEST(PeriodicWorkerTest, BodyReturningFalseEndsTheLoop) {
  RunCounter counter;
  std::atomic<int> calls{0};
  PeriodicWorker worker;
  worker.Start(std::chrono::milliseconds(1), /*run_at_start=*/false, [&] {
    counter.Bump();
    return calls.fetch_add(1) + 1 < 2;  // false on the second run
  });
  ASSERT_TRUE(counter.AwaitRuns(2));
  // A live 1 ms loop would run again well within this wait.
  EXPECT_FALSE(counter.AwaitRuns(3, std::chrono::milliseconds(200)));
  worker.Stop();  // Joins the already-finished thread.
  EXPECT_EQ(calls.load(), 2);
}

TEST(PeriodicWorkerTest, WakeRunsTheBodyAtOnceAndIsNeverLost) {
  RunCounter counter;
  std::atomic<bool> woken_inside{false};
  PeriodicWorker worker;
  worker.Start(std::chrono::hours(1), /*run_at_start=*/false, [&] {
    counter.Bump();
    // A wake during the first run is kept for the next wait.
    if (!woken_inside.exchange(true)) worker.Wake();
    return true;
  });
  worker.Wake();
  EXPECT_TRUE(counter.AwaitRuns(2));
  // No wake is pending any more: the hour-long period holds.
  EXPECT_FALSE(counter.AwaitRuns(3, std::chrono::milliseconds(200)));
  worker.Stop();
  EXPECT_EQ(counter.runs(), 2);
}

}  // namespace
}  // namespace siot::service
