// Copyright 2026 The siot-trust Authors.
// Proof harness for the flush rule: a single-shard write fsyncs inline,
// and multi-shard writes coalesce their WAL flushes into shared group
// commit rounds.
//
// The invariants under test:
//   * the rule: a ReportOutcome (or a batch landing on one shard) fsyncs
//     its shard inline and never enrolls in the committer, while a batch
//     touching N shards pays ONE committer round, not N fsyncs;
//   * an admin write makes shard 0 durable before any other shard
//     appends, then flushes the rest in one round — recovery completes a
//     half-replicated admin write from shard 0;
//   * coalescing really happens (flushes < sync requests under
//     concurrent batches) and never costs correctness — a recovery after
//     a coalesced run is byte-identical to a single-threaded reference;
//   * the failure blast radius is exact: when a round's flush fails,
//     EVERY writer coalesced into it gets the SAME FailedPrecondition,
//     the service degrades, reads keep serving, and a restart recovers.
//
// The stress suite runs under TSan in CI (floor regex `GroupCommit`).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/mutex.h"
#include "service/persistence.h"
#include "service/trust_service.h"
#include "tests/test_dir.h"
#include "trust/trust_store_io.h"

namespace siot::service {
namespace {

using trust::AgentId;
using trust::TaskId;

TrustServiceConfig MakeConfig(std::size_t shards) {
  TrustServiceConfig config;
  config.shard_count = shards;
  config.engine.beta = trust::ForgettingFactors::Uniform(0.2);
  config.engine.initial_estimates = {0.5, 0.5, 0.5, 0.5};
  return config;
}

std::vector<std::string> ShardStates(const TrustService& service) {
  std::vector<std::string> states;
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    states.push_back(
        trust::SerializeTrustEngineState(service.shard_engine(s)));
  }
  return states;
}

/// Deterministic report for (writer, round): disjoint trustor ranges per
/// writer, so a single-threaded reference replay is byte-identical.
OutcomeReport MakeReport(int writer, std::uint64_t round, TaskId task) {
  OutcomeReport report;
  report.trustor = static_cast<AgentId>(100 * writer + round % 10);
  report.trustee = 1000 + static_cast<AgentId>((writer + round) % 7);
  report.task = task;
  report.outcome.success = (writer + round) % 3 != 0;
  report.outcome.gain = 0.5 + 0.03125 * static_cast<double>(round % 8);
  report.outcome.damage = report.outcome.success ? 0.0 : 0.25;
  report.outcome.cost = 0.125;
  report.trustor_was_abusive = (writer + round) % 5 == 0;
  if (round % 4 == 0) {
    report.intermediates = {2000 + static_cast<AgentId>(writer % 3)};
  }
  return report;
}

// ----------------------------------------------------------- coalescing --

/// Whether `batch` touches more than one of `shard_count` shards, i.e.
/// takes the group-commit path.
bool IsCrossShard(const std::vector<OutcomeReport>& batch,
                  std::size_t shard_count) {
  return std::any_of(batch.begin(), batch.end(), [&](const OutcomeReport& r) {
    return ShardIndexForTrustor(r.trustor, shard_count) !=
           ShardIndexForTrustor(batch.front().trustor, shard_count);
  });
}

/// Writer `w`'s batch for `round`: kBatch reports on at least two of
/// `shard_count` shards (the last trustor moves up the writer's own range
/// until it does), so every batch takes the group-commit path.
std::vector<OutcomeReport> MakeBatch(int writer, std::uint64_t round,
                                     TaskId task, std::size_t shard_count) {
  constexpr std::uint64_t kBatch = 4;
  std::vector<OutcomeReport> batch;
  for (std::uint64_t i = 0; i < kBatch; ++i) {
    batch.push_back(MakeReport(writer, kBatch * round + i, task));
  }
  while (!IsCrossShard(batch, shard_count)) {
    batch.back().trustor = 100 * static_cast<AgentId>(writer) +
                           (batch.back().trustor + 1) % 100;
  }
  return batch;
}

/// A FaultHook that, once `armed`, holds the first group-commit flush
/// until `service`'s Stats() show `enrolled` sync requests, so the
/// writers behind it must pile into the next round. Returns `result` from
/// every armed flush. The hold gives up after 30 s, so a write path that
/// enrolls fewer requests than expected fails the test's counts instead
/// of hanging it.
struct HoldFirstFlush {
  std::atomic<bool> armed{false};
  std::atomic<bool> held{false};
  TrustService* service = nullptr;
  std::uint64_t enrolled = 0;
  Status result;

  FaultHook Hook() {
    return [this](PersistStage stage, std::size_t) -> Status {
      if (stage != PersistStage::kGroupCommitFlush || !armed.load()) {
        return Status::OK();
      }
      if (!held.exchange(true)) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (service->Stats().wal_sync_requests < enrolled &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
      }
      return result;
    };
  }
};

TEST(GroupCommitTest, ConcurrentWritersCoalesceAndRecoverExactly) {
  const TrustServiceConfig config = MakeConfig(8);
  const std::string dir = MakeTestDir("coalesce");
  constexpr int kWriters = 8;
  constexpr std::uint64_t kRounds = 20;
  HoldFirstFlush hold;
  // The registration's shard-0 fsync and round, then every writer's
  // first batch.
  hold.enrolled = 2 + kWriters;
  PersistenceOptions options;
  options.directory = dir;
  options.sync_every_append = true;
  options.fault_hook = hold.Hook();

  TaskId task = trust::kNoTask;
  {
    auto service = std::move(TrustService::Open(config, options)).value();
    hold.service = service.get();
    task = service->RegisterTask("sense", {0, 1}).value();
    hold.armed = true;
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (std::uint64_t round = 0; round < kRounds; ++round) {
          const auto batch = MakeBatch(w, round, task, config.shard_count);
          EXPECT_TRUE(service->BatchReportOutcome(batch).ok());
        }
      });
    }
    for (std::thread& writer : writers) writer.join();

    const TrustServiceStats stats = service->Stats();
    // 1 sync per batch + the registration's shard-0 fsync and round.
    EXPECT_EQ(stats.wal_sync_requests,
              static_cast<std::uint64_t>(kWriters) * kRounds + 2);
    // The whole point: concurrent writers shared flushes. The held first
    // round kept the other 7 writers' first batches out of it, so they
    // enrolled together behind it.
    EXPECT_LT(stats.wal_fsyncs, stats.wal_sync_requests);
    EXPECT_GT(stats.wal_syncs_coalesced, 0u);
    EXPECT_EQ(stats.wal_fsyncs + stats.wal_syncs_coalesced,
              stats.wal_sync_requests);
  }

  // Coalescing changed WHEN bytes hit the platter, never WHICH bytes:
  // recovery equals a single-threaded unpersisted replay.
  TrustService reference(config);
  ASSERT_EQ(reference.RegisterTask("sense", {0, 1}).value(), task);
  for (int w = 0; w < kWriters; ++w) {
    for (std::uint64_t round = 0; round < kRounds; ++round) {
      const auto batch = MakeBatch(w, round, task, config.shard_count);
      ASSERT_TRUE(reference.BatchReportOutcome(batch).ok());
    }
  }
  PersistenceOptions clean = options;
  clean.fault_hook = nullptr;
  auto reopened = std::move(TrustService::Open(config, clean)).value();
  EXPECT_EQ(ShardStates(*reopened), ShardStates(reference));
  reopened.reset();
  std::filesystem::remove_all(dir);
}

TEST(GroupCommitTest, CrossShardBatchAndAdminWritesPayOneFlush) {
  // An admin write logs to EVERY shard and a batch touches many; each
  // pays exactly one group-commit round, not one fsync per shard (the
  // admin write also fsyncs shard 0 inline, ahead of the others).
  const TrustServiceConfig config = MakeConfig(8);
  const std::string dir = MakeTestDir("one_flush");
  PersistenceOptions options;
  options.directory = dir;
  options.sync_every_append = true;
  auto service = std::move(TrustService::Open(config, options)).value();

  const TaskId task = service->RegisterTask("sense", {0, 1}).value();
  TrustServiceStats stats = service->Stats();
  EXPECT_EQ(stats.wal_sync_requests, 2u)
      << "shard 0 inline, the other 7 shard appends in one round";
  EXPECT_EQ(stats.wal_fsyncs, 2u);
  EXPECT_EQ(stats.wal_syncs_coalesced, 0u);

  ASSERT_TRUE(service->SetReverseThreshold(7, trust::kNoTask, 0.8).ok());
  ASSERT_TRUE(service->SetEnvironmentIndicator(3, 0.5).ok());
  std::vector<OutcomeReport> batch;
  for (int i = 0; i < 32; ++i) {
    batch.push_back(MakeReport(i, 1, task));
  }
  ASSERT_TRUE(service->BatchReportOutcome(batch).ok());
  stats = service->Stats();
  EXPECT_EQ(stats.wal_sync_requests, 7u)
      << "2 each for task, theta and env + one 32-report cross-shard batch";
  EXPECT_EQ(stats.wal_fsyncs, 7u);
  service.reset();
  std::filesystem::remove_all(dir);
}

TEST(GroupCommitTest, StageHooksFireOnTheActivePath) {
  // The rule, observed at its two instrumentation points (the bench's
  // device model hinges on them): a single-shard report or batch fires
  // kWalBeforeSync once and never enrolls in the committer; a
  // cross-shard batch fires kGroupCommitFlush once and never fsyncs
  // inline; an admin write does both once (shard 0 inline, the rest in
  // one round).
  std::atomic<int> before_sync{0};
  std::atomic<int> group_flush{0};
  const TrustServiceConfig config = MakeConfig(4);
  const std::string dir = MakeTestDir("hooks");
  PersistenceOptions options;
  options.directory = dir;
  options.sync_every_append = true;
  options.fault_hook = [&](PersistStage stage, std::size_t) -> Status {
    if (stage == PersistStage::kWalBeforeSync) ++before_sync;
    if (stage == PersistStage::kGroupCommitFlush) ++group_flush;
    return Status::OK();
  };
  {
    auto service = std::move(TrustService::Open(config, options)).value();
    const TaskId task = service->RegisterTask("sense", {0}).value();
    EXPECT_EQ(before_sync.load(), 1) << "shard 0 inline";
    EXPECT_EQ(group_flush.load(), 1) << "shards 1-3 in one round";

    before_sync = 0;
    group_flush = 0;
    ASSERT_TRUE(service->ReportOutcome(MakeReport(1, 1, task)).ok());
    EXPECT_EQ(before_sync.load(), 1) << "one inline fsync";
    EXPECT_EQ(group_flush.load(), 0);

    before_sync = 0;
    group_flush = 0;
    std::vector<OutcomeReport> batch;
    std::vector<bool> touched(config.shard_count, false);
    for (int i = 0; i < 16; ++i) {
      batch.push_back(MakeReport(i, 0, task));
      touched[ShardIndexForTrustor(batch.back().trustor,
                                   config.shard_count)] = true;
    }
    ASSERT_GT(std::count(touched.begin(), touched.end(), true), 1);
    ASSERT_TRUE(service->BatchReportOutcome(batch).ok());
    EXPECT_EQ(before_sync.load(), 0);
    EXPECT_EQ(group_flush.load(), 1) << "every touched shard in one round";

    before_sync = 0;
    group_flush = 0;
    std::vector<OutcomeReport> one_shard;
    for (std::uint64_t round = 0; round < 4; ++round) {
      one_shard.push_back(MakeReport(1, round * 10, task));
    }
    ASSERT_FALSE(IsCrossShard(one_shard, config.shard_count));
    ASSERT_TRUE(service->BatchReportOutcome(one_shard).ok());
    EXPECT_EQ(before_sync.load(), 1) << "a one-shard batch fsyncs inline";
    EXPECT_EQ(group_flush.load(), 0);
  }
  std::filesystem::remove_all(dir);
}

TEST(GroupCommitTest, AdminWriteMakesShardZeroDurableBeforeOtherShards) {
  // Recovery completes a half-replicated admin write from shard 0, so
  // shard 0's record must be fsynced before any other shard's frame is
  // even written: a power cut can then never leave a later shard's record
  // on the disk without shard 0's.
  struct Event {
    PersistStage stage;
    std::size_t shard;
  };
  Mutex mutex;
  std::vector<Event> events;
  const TrustServiceConfig config = MakeConfig(4);
  const std::string dir = MakeTestDir("admin_order");
  PersistenceOptions options;
  options.directory = dir;
  options.sync_every_append = true;
  options.fault_hook = [&](PersistStage stage, std::size_t shard) -> Status {
    const MutexLock lock(&mutex);
    events.push_back({stage, shard});
    return Status::OK();
  };
  {
    auto service = std::move(TrustService::Open(config, options)).value();
    {
      const MutexLock lock(&mutex);
      events.clear();
    }
    ASSERT_TRUE(service->RegisterTask("sense", {0}).ok());
    ASSERT_TRUE(service->SetReverseThreshold(7, trust::kNoTask, 0.8).ok());
  }
  const MutexLock lock(&mutex);
  int writes = 0;
  bool shard0_durable = false;
  for (const Event& event : events) {
    if (event.stage == PersistStage::kWalBeforeAppend && event.shard == 0) {
      ++writes;
      shard0_durable = false;
    }
    if (event.stage == PersistStage::kWalBeforeSync) {
      EXPECT_EQ(event.shard, 0u) << "only shard 0 fsyncs inline";
      shard0_durable = true;
    }
    if (event.stage == PersistStage::kWalBeforeAppend && event.shard != 0) {
      EXPECT_TRUE(shard0_durable)
          << "admin write " << writes << ": shard " << event.shard
          << " appended before shard 0's fsync";
    }
  }
  EXPECT_EQ(writes, 2);
  std::filesystem::remove_all(dir);
}

TEST(GroupCommitTest, SyncfsIsTrustedFromLinux58) {
  // Before 5.8, syncfs(2) returns 0 after a failed writeback, so a
  // group round there fsyncs each descriptor instead.
  EXPECT_TRUE(SyncfsReportsWritebackErrors("5.8.0"));
  EXPECT_TRUE(SyncfsReportsWritebackErrors("5.15.0-122-generic"));
  EXPECT_TRUE(SyncfsReportsWritebackErrors("6.1.0"));
  EXPECT_TRUE(SyncfsReportsWritebackErrors("10.0"));
  EXPECT_FALSE(SyncfsReportsWritebackErrors("5.7.19"));
  EXPECT_FALSE(SyncfsReportsWritebackErrors("4.19.0-26-amd64"));
  EXPECT_FALSE(SyncfsReportsWritebackErrors("3.10.0-1160.el7.x86_64"));
  EXPECT_FALSE(SyncfsReportsWritebackErrors(""));
  EXPECT_FALSE(SyncfsReportsWritebackErrors("6"));
  EXPECT_FALSE(SyncfsReportsWritebackErrors("6."));
  EXPECT_FALSE(SyncfsReportsWritebackErrors("linux"));
}

// ------------------------------------------------- failure blast radius --

TEST(GroupCommitTest, FailedFlushFailsEveryCoalescedWriterTheSameWay) {
  // When a round's flush fails, every writer whose append was coalesced
  // into it must degrade identically — none may believe its write became
  // durable.
  const TrustServiceConfig config = MakeConfig(4);
  const std::string dir = MakeTestDir("blast_radius");
  constexpr int kWriters = 4;
  HoldFirstFlush hold;
  // Every writer's batch is appended and enrolled (after the
  // registration's shard-0 fsync and round) before the held flush fails,
  // so each one meets the failure in the committer — none sees a writer
  // another one's failure already poisoned.
  hold.enrolled = 2 + kWriters;
  hold.result = Status::IoError("simulated device failure");
  PersistenceOptions options;
  options.directory = dir;
  options.sync_every_append = true;
  options.fault_hook = hold.Hook();
  auto service = std::move(TrustService::Open(config, options)).value();
  hold.service = service.get();
  const TaskId task = service->RegisterTask("sense", {0}).value();

  hold.armed = true;
  std::vector<Status> statuses(kWriters);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      statuses[static_cast<std::size_t>(w)] = service->BatchReportOutcome(
          MakeBatch(w, 0, task, config.shard_count));
    });
  }
  for (std::thread& writer : writers) writer.join();

  for (int w = 0; w < kWriters; ++w) {
    const Status& status = statuses[static_cast<std::size_t>(w)];
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
        << "writer " << w << ": " << status.ToString();
    EXPECT_NE(status.ToString().find("group commit flush failed"),
              std::string::npos)
        << "writer " << w << ": " << status.ToString();
    // The SAME degradation, not four different stories.
    EXPECT_EQ(status.ToString(), statuses[0].ToString());
  }
  // The whole service is degraded (writers are poisoned), reads serve.
  EXPECT_TRUE(service->degraded());
  EXPECT_EQ(service->ReportOutcome(MakeReport(9, 1, task)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(service->PreEvaluate(1, 1001, task).ok());
  service.reset();

  // Restart squares the ledger and serves writes again.
  PersistenceOptions clean;
  clean.directory = dir;
  clean.sync_every_append = true;
  auto reopened = std::move(TrustService::Open(config, clean)).value();
  EXPECT_FALSE(reopened->degraded());
  EXPECT_TRUE(reopened->ReportOutcome(MakeReport(9, 2, task)).ok());
  reopened.reset();
  std::filesystem::remove_all(dir);
}

TEST(GroupCommitTest, FailedCrossShardFlushPoisonsEveryTouchedShard) {
  // The batch flavor of the blast radius: ONE deferred flush covers all
  // touched shards, so its failure must fail the batch and degrade the
  // service even though every per-shard append succeeded.
  const TrustServiceConfig config = MakeConfig(4);
  const std::string dir = MakeTestDir("batch_blast");
  auto armed = std::make_shared<std::atomic<bool>>(false);
  PersistenceOptions options;
  options.directory = dir;
  options.sync_every_append = true;
  options.fault_hook = [armed](PersistStage stage,
                               std::size_t) -> Status {
    if (stage == PersistStage::kGroupCommitFlush && armed->load()) {
      return Status::IoError("simulated device failure");
    }
    return Status::OK();
  };
  auto service = std::move(TrustService::Open(config, options)).value();
  const TaskId task = service->RegisterTask("sense", {0}).value();

  armed->store(true);
  std::vector<OutcomeReport> batch;
  for (int i = 0; i < 16; ++i) {
    batch.push_back(MakeReport(i, 0, task));
  }
  const Status failed = service->BatchReportOutcome(batch);
  armed->store(false);
  EXPECT_EQ(failed.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(failed.ToString().find("group commit flush failed"),
            std::string::npos)
      << failed.ToString();
  EXPECT_TRUE(service->degraded());
  service.reset();

  PersistenceOptions clean;
  clean.directory = dir;
  clean.sync_every_append = true;
  auto reopened = std::move(TrustService::Open(config, clean)).value();
  EXPECT_FALSE(reopened->degraded());
  EXPECT_TRUE(reopened->ReportOutcome(MakeReport(1, 1, task)).ok());
  reopened.reset();
  std::filesystem::remove_all(dir);
}

TEST(GroupCommitTest, FailedAppendMidBatchKeepsEarlierShardsOnly) {
  // An append that fails at the second shard a cross-shard batch touches:
  // the batch fails and the service degrades; the first shard's reports
  // are logged and applied, later shards are untouched, no group flush
  // runs, and a restart recovers exactly the logged frames.
  const TrustServiceConfig config = MakeConfig(4);
  const std::string dir = MakeTestDir("batch_append_fails");
  auto armed = std::make_shared<std::atomic<bool>>(false);
  auto appends = std::make_shared<std::atomic<int>>(0);
  auto group_flushes = std::make_shared<std::atomic<int>>(0);
  PersistenceOptions options;
  options.directory = dir;
  options.sync_every_append = true;
  options.fault_hook = [=](PersistStage stage, std::size_t) -> Status {
    if (!armed->load()) return Status::OK();
    if (stage == PersistStage::kGroupCommitFlush) ++*group_flushes;
    if (stage == PersistStage::kWalBeforeAppend && ++*appends == 2) {
      return Status::IoError("simulated device failure");
    }
    return Status::OK();
  };
  auto service = std::move(TrustService::Open(config, options)).value();
  const TaskId task = service->RegisterTask("sense", {0}).value();

  std::vector<OutcomeReport> batch;
  for (int i = 0; i < 16; ++i) {
    batch.push_back(MakeReport(i, 0, task));
  }
  ASSERT_TRUE(IsCrossShard(batch, config.shard_count));
  // Shards are written in ascending index order.
  std::size_t first_shard = config.shard_count;
  for (const OutcomeReport& report : batch) {
    first_shard = std::min(first_shard, service->ShardOf(report.trustor));
  }
  std::vector<OutcomeReport> logged;
  for (const OutcomeReport& report : batch) {
    if (service->ShardOf(report.trustor) == first_shard) {
      logged.push_back(report);
    }
  }
  const std::vector<ShardWalPosition> before = service->WalPositions();

  armed->store(true);
  const Status failed = service->BatchReportOutcome(batch);
  armed->store(false);
  EXPECT_EQ(failed.code(), StatusCode::kIoError) << failed.ToString();
  EXPECT_TRUE(service->degraded());
  EXPECT_EQ(group_flushes->load(), 0);

  TrustService reference(config);
  ASSERT_EQ(reference.RegisterTask("sense", {0}).value(), task);
  ASSERT_TRUE(reference.BatchReportOutcome(logged).ok());
  EXPECT_EQ(ShardStates(*service), ShardStates(reference));
  const std::vector<ShardWalPosition> after = service->WalPositions();
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    EXPECT_EQ(after[s].last_seq,
              before[s].last_seq + (s == first_shard ? logged.size() : 0))
        << "shard " << s;
  }
  service.reset();

  options.fault_hook = nullptr;
  auto reopened = std::move(TrustService::Open(config, options)).value();
  EXPECT_FALSE(reopened->degraded());
  EXPECT_EQ(ShardStates(*reopened), ShardStates(reference));
  reopened.reset();
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------------------- stress --

TEST(GroupCommitStressTest, WritersCheckpointsAndAdminRacesStayExact) {
  // The TSan surface for both flush paths: single reports fsyncing
  // inline, cross-shard batches and admin writes sharing committer
  // rounds, and explicit checkpoints, all racing — then a recovery that
  // must equal a single-threaded reference byte for byte.
  const TrustServiceConfig config = MakeConfig(8);
  const std::string dir = MakeTestDir("stress");
  PersistenceOptions options;
  options.directory = dir;
  options.sync_every_append = true;
  options.checkpoint_every_appends = 64;

  constexpr int kWriters = 4;
  constexpr std::uint64_t kRounds = 12;
  TaskId task = trust::kNoTask;
  {
    auto service = std::move(TrustService::Open(config, options)).value();
    task = service->RegisterTask("sense", {0, 1}).value();
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (std::uint64_t round = 0; round < kRounds; ++round) {
          if (round % 3 == 0) {
            std::vector<OutcomeReport> batch;
            for (int i = 0; i < 8; ++i) {
              batch.push_back(
                  MakeReport(w, 10 * round + static_cast<std::uint64_t>(i),
                             task));
            }
            EXPECT_TRUE(service->BatchReportOutcome(batch).ok());
          } else {
            EXPECT_TRUE(
                service->ReportOutcome(MakeReport(w, round, task)).ok());
          }
        }
      });
    }
    std::thread checkpointer([&] {
      for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(service->Checkpoint().ok());
      }
    });
    for (std::thread& writer : writers) writer.join();
    checkpointer.join();
    EXPECT_TRUE(service->background_status().ok());
    EXPECT_FALSE(service->degraded());
  }

  TrustService reference(config);
  ASSERT_EQ(reference.RegisterTask("sense", {0, 1}).value(), task);
  for (int w = 0; w < kWriters; ++w) {
    for (std::uint64_t round = 0; round < kRounds; ++round) {
      if (round % 3 == 0) {
        std::vector<OutcomeReport> batch;
        for (int i = 0; i < 8; ++i) {
          batch.push_back(MakeReport(
              w, 10 * round + static_cast<std::uint64_t>(i), task));
        }
        ASSERT_TRUE(reference.BatchReportOutcome(batch).ok());
      } else {
        ASSERT_TRUE(
            reference.ReportOutcome(MakeReport(w, round, task)).ok());
      }
    }
  }
  auto reopened = std::move(TrustService::Open(config, options)).value();
  EXPECT_EQ(ShardStates(*reopened), ShardStates(reference));
  reopened.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace siot::service
