// Copyright 2026 The siot-trust Authors.
// Crash-recovery proof for the TrustService persistence subsystem.
//
// The headline harness is a kill-point fault-injection matrix: a scripted
// run of data-plane and admin mutations is interrupted at EVERY stage of
// the durable write path (before the WAL append, mid-append with a torn
// frame, after the append but before the apply, and at every stage of a
// checkpoint: seal, tmp write, rename, unlink), for every occurrence of
// that stage in the script.
// After each simulated crash the service is recovered from disk and must
// be byte-identical (serialize-compare, per shard) to an in-memory
// reference holding exactly the acknowledged writes — plus, when the
// crash hit after the durable append, the un-acknowledged but logged op.
// Zero acknowledged-write loss, zero partial applies. A follower promoted
// over a copy of the same files must serve exactly what the restart
// recovered: failover and recovery read the log through one reader.
//
// Alongside it: restart-after-every-batch equivalence against an
// unpersisted single-threaded engine, corruption fault injection
// (truncation at every byte, random bit flips — recovery yields a
// consistent prefix or Status Corruption, never a crash), and a
// TSan-facing stress test racing background checkpoints against
// data-plane writers.

#include "service/persistence.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "common/rng.h"
#include "service/replication.h"
#include "service/trust_service.h"
#include "sim/parallel_runner.h"
#include "tests/test_dir.h"
#include "trust/trust_store_io.h"

namespace siot::service {
namespace {

using trust::AgentId;
using trust::DelegationOutcome;
using trust::DelegationRequestResult;
using trust::OutcomeEstimates;
using trust::TaskId;

TrustServiceConfig MakeConfig(std::size_t shards) {
  TrustServiceConfig config;
  config.shard_count = shards;
  config.engine.beta = trust::ForgettingFactors::Uniform(0.2);
  config.engine.initial_estimates = {0.5, 0.5, 0.5, 0.5};
  return config;
}

// ------------------------------------------------------- fault plan --

/// Shared state driving the FaultHook: fail the `fail_at`-th firing
/// (0-based) of `stage` while armed. `seen` counts firings of `stage`
/// so the test can tell WHICH shard an admin op crashed at.
struct FaultPlan {
  PersistStage stage = PersistStage::kWalBeforeAppend;
  bool armed = false;
  int fail_at = -1;
  int seen = 0;
};

FaultHook MakeHook(const std::shared_ptr<FaultPlan>& plan) {
  return [plan](PersistStage stage, std::size_t) -> Status {
    if (stage != plan->stage) return Status::OK();
    const int index = plan->seen++;
    if (plan->armed && index == plan->fail_at) {
      return Status::IoError("simulated crash");
    }
    return Status::OK();
  };
}

// ----------------------------------------------------------- script --

struct ScriptOp {
  enum Kind { kTask, kTheta, kEnv, kOutcome, kCheckpoint } kind = kOutcome;
  std::string name;                                   // kTask
  std::vector<trust::CharacteristicId> characteristics;  // kTask
  AgentId agent = 0;     // kTheta trustee / kEnv agent
  TaskId task = trust::kNoTask;  // kTheta
  double value = 0.0;    // kTheta theta / kEnv indicator
  OutcomeReport report;  // kOutcome
};

ScriptOp OutcomeOp(AgentId trustor, AgentId trustee, TaskId task,
                   bool success, double gain, double damage, double cost,
                   bool abusive = false,
                   std::vector<AgentId> intermediates = {}) {
  ScriptOp op;
  op.kind = ScriptOp::kOutcome;
  op.report.trustor = trustor;
  op.report.trustee = trustee;
  op.report.task = task;
  op.report.outcome = DelegationOutcome{success, gain, damage, cost};
  op.report.trustor_was_abusive = abusive;
  op.report.intermediates = std::move(intermediates);
  return op;
}

/// A deterministic mixed mutation script: task registrations, admin
/// writes, outcome reports with intermediates/abuse, and a mid-script
/// checkpoint so the kill-points cover the checkpoint + WAL-tail layout.
std::vector<ScriptOp> BuildScript() {
  std::vector<ScriptOp> ops;
  ops.push_back({ScriptOp::kTask, "gps", {0}, 0, trust::kNoTask, 0.0, {}});
  ops.push_back(
      {ScriptOp::kTask, "image", {0, 1}, 0, trust::kNoTask, 0.0, {}});
  ops.push_back(
      {ScriptOp::kTheta, "", {}, 7, trust::kNoTask, 0.8, {}});
  ops.push_back({ScriptOp::kEnv, "", {}, 5, trust::kNoTask, 0.5, {}});
  for (AgentId t = 0; t < 8; ++t) {
    ops.push_back(OutcomeOp(t, t + 100, t % 2, t % 3 != 0,
                            0.125 * (t + 1), 0.0625 * t, 0.25,
                            t % 4 == 0,
                            t % 3 == 0 ? std::vector<AgentId>{t + 50}
                                       : std::vector<AgentId>{}));
  }
  ops.push_back(
      {ScriptOp::kCheckpoint, "", {}, 0, trust::kNoTask, 0.0, {}});
  ops.push_back({ScriptOp::kTheta, "", {}, 3, 1, 0.6, {}});
  ops.push_back({ScriptOp::kEnv, "", {}, 9, trust::kNoTask, 0.25, {}});
  for (AgentId t = 3; t < 11; ++t) {
    ops.push_back(OutcomeOp(t, t + 1, (t + 1) % 2, t % 2 == 0,
                            0.5, 0.125, 0.0625 * (t % 5), t % 5 == 0));
  }
  return ops;
}

Status ApplyScriptOp(TrustService* service, const ScriptOp& op) {
  switch (op.kind) {
    case ScriptOp::kTask: {
      const auto id = service->RegisterTask(op.name, op.characteristics);
      return id.ok() ? Status::OK() : id.status();
    }
    case ScriptOp::kTheta:
      return service->SetReverseThreshold(op.agent, op.task, op.value);
    case ScriptOp::kEnv:
      return service->SetEnvironmentIndicator(op.agent, op.value);
    case ScriptOp::kOutcome:
      return service->ReportOutcome(op.report);
    case ScriptOp::kCheckpoint:
      return service->Checkpoint();
  }
  return Status::Internal("unreachable");
}

/// Firings of WAL `stage` this op performs. Admin ops append to every
/// shard, fsync shard 0 inline and flush the others in one group-commit
/// round; an outcome report appends to one shard and fsyncs it inline.
int WalFiringsOf(const ScriptOp& op, std::size_t shards,
                 PersistStage stage) {
  switch (op.kind) {
    case ScriptOp::kTask:
    case ScriptOp::kTheta:
    case ScriptOp::kEnv:
      // Shard 0 fsyncs inline; the other shards share one group round.
      if (stage == PersistStage::kWalBeforeSync) return 1;
      if (stage == PersistStage::kGroupCommitFlush) return 1;
      return static_cast<int>(shards);
    case ScriptOp::kOutcome:
      return stage == PersistStage::kGroupCommitFlush ? 0 : 1;
    case ScriptOp::kCheckpoint:
      return 0;
  }
  return 0;
}

/// Canonical per-shard state of a service (the comparison currency of
/// every recovery assertion).
std::vector<std::string> ShardStates(const TrustService& service) {
  std::vector<std::string> states;
  states.reserve(service.shard_count());
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    states.push_back(
        trust::SerializeTrustEngineState(service.shard_engine(s)));
  }
  return states;
}

/// In-memory reference: the script prefix [0, count) applied to a plain
/// (unpersisted) service, plus optionally the op at `count` itself.
std::vector<std::string> ExpectedStates(const TrustServiceConfig& config,
                                        const std::vector<ScriptOp>& ops,
                                        std::size_t count,
                                        bool include_crashed_op) {
  TrustService reference(config);
  for (std::size_t i = 0; i < count + (include_crashed_op ? 1u : 0u);
       ++i) {
    if (ops[i].kind == ScriptOp::kCheckpoint) continue;
    EXPECT_TRUE(ApplyScriptOp(&reference, ops[i]).ok());
  }
  return ShardStates(reference);
}

/// Path of `shard`'s newest WAL segment, the one its leader appends to.
std::string NewestSegment(const std::string& dir, std::size_t shard) {
  const std::vector<WalSegment> segments =
      ListWalSegments(dir, shard).value();
  EXPECT_FALSE(segments.empty()) << dir << " shard " << shard;
  return segments.empty() ? ShardWalPath(dir, shard) : segments.back().path;
}

/// Shard states of a follower promoted over a copy of `dir`: what a
/// failover serves from the files a crash left. The copy is removed.
std::vector<std::string> PromotedStates(const TrustServiceConfig& config,
                                        const std::string& dir) {
  const std::string copy = dir + "_promoted";
  std::filesystem::remove_all(copy);
  std::filesystem::copy(dir, copy, std::filesystem::copy_options::recursive);
  std::vector<std::string> states;
  {
    ReplicaOptions replica_options;
    replica_options.directory = copy;
    auto replica = ReplicaService::Open(config, replica_options);
    EXPECT_TRUE(replica.ok()) << replica.status().ToString();
    PersistenceOptions promote_options;
    promote_options.directory = copy;
    if (replica.ok()) {
      auto promoted = replica.value()->Promote(promote_options);
      EXPECT_TRUE(promoted.ok()) << promoted.status().ToString();
      if (promoted.ok()) states = ShardStates(*promoted.value());
    }
  }
  std::filesystem::remove_all(copy);
  return states;
}

// =====================================================================
// Kill-point matrix: WAL stages
// =====================================================================

class WalKillPointTest : public ::testing::TestWithParam<PersistStage> {};

TEST_P(WalKillPointTest, EveryKillPointRecoversWithoutLossOrPartialApply) {
  const PersistStage stage = GetParam();
  const std::size_t kShards = 4;
  const TrustServiceConfig config = MakeConfig(kShards);
  const std::vector<ScriptOp> ops = BuildScript();
  int total_firings = 0;
  for (const ScriptOp& op : ops) {
    total_firings += WalFiringsOf(op, kShards, stage);
  }

  for (int fail_at = 0; fail_at < total_firings; ++fail_at) {
    const std::string dir = MakeTestDir(
        "walkill_" + std::to_string(static_cast<int>(stage)) + "_" +
        std::to_string(fail_at));
    auto plan = std::make_shared<FaultPlan>();
    plan->stage = stage;
    plan->armed = true;
    plan->fail_at = fail_at;
    PersistenceOptions options;
    options.directory = dir;
    options.sync_every_append = true;
    options.fault_hook = MakeHook(plan);

    auto opened = TrustService::Open(config, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<TrustService> service = std::move(opened).value();

    // Drive the script op by op, tracking acknowledgements, until the
    // simulated crash hits.
    std::size_t crashed_op = ops.size();
    int firings_before_crashed_op = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const int seen_before = plan->seen;
      const Status status = ApplyScriptOp(service.get(), ops[i]);
      if (!status.ok()) {
        ASSERT_EQ(status.ToString().find("simulated crash") !=
                      std::string::npos,
                  true)
            << status.ToString();
        crashed_op = i;
        firings_before_crashed_op = seen_before;
        break;
      }
    }
    ASSERT_LT(crashed_op, ops.size())
        << "fail_at " << fail_at << " never fired";
    // Which firing within the crashed op took the hit? For admin ops
    // that is the shard index the crash interrupted replication at.
    const int firing_in_op = fail_at - firings_before_crashed_op;
    ASSERT_GE(firing_in_op, 0);

    // The crashed op survives recovery iff it became durable somewhere
    // that recovery honors: after the full append (logged, not yet
    // applied — replay applies it; the flush stages stand there too,
    // with every frame fully written), or — for replicated admin ops —
    // once shard 0's copy was durably applied (recovery completes the
    // partial replication from shard 0).
    const bool survives = firing_in_op > 0 ||
                          stage == PersistStage::kWalBeforeSync ||
                          stage == PersistStage::kWalAfterAppend ||
                          stage == PersistStage::kGroupCommitFlush;

    // Simulate the process death: drop the service object cold.
    service.reset();
    const std::vector<std::string> promoted = PromotedStates(config, dir);

    PersistenceOptions clean = options;
    clean.fault_hook = nullptr;
    auto reopened = TrustService::Open(config, clean);
    ASSERT_TRUE(reopened.ok())
        << "stage " << static_cast<int>(stage) << " fail_at " << fail_at
        << ": " << reopened.status().ToString();
    const std::vector<std::string> recovered =
        ShardStates(*reopened.value());
    const std::vector<std::string> expected =
        ExpectedStates(config, ops, crashed_op, survives);
    ASSERT_EQ(recovered.size(), expected.size());
    for (std::size_t s = 0; s < expected.size(); ++s) {
      EXPECT_EQ(recovered[s], expected[s])
          << "shard " << s << " diverged after crash at stage "
          << static_cast<int>(stage) << ", firing " << fail_at
          << " (op " << crashed_op << ")";
    }
    // A failover over the same files reads the log back through the same
    // reader, so it serves exactly what the restart recovered.
    EXPECT_EQ(promoted, recovered)
        << "promote diverged from recovery after a crash at stage "
        << static_cast<int>(stage) << ", firing " << fail_at;

    // The recovered service must keep serving and checkpointing. (When
    // the crash killed the very first op — the task registration — the
    // catalog is legitimately empty and the write is a bad request.)
    const Status resumed =
        reopened.value()->ReportOutcome(
            OutcomeOp(1, 2, 0, true, 0.5, 0.0, 0.1).report);
    if (reopened.value()->shard_engine(0).catalog().size() > 0) {
      EXPECT_TRUE(resumed.ok()) << resumed.ToString();
    } else {
      EXPECT_TRUE(resumed.IsInvalidArgument());
    }
    EXPECT_TRUE(reopened.value()->Checkpoint().ok());
    reopened.value().reset();
    std::filesystem::remove_all(dir);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWalStages, WalKillPointTest,
                         ::testing::Values(
                             PersistStage::kWalBeforeAppend,
                             PersistStage::kWalMidAppend,
                             PersistStage::kWalBeforeSync,
                             PersistStage::kWalAfterAppend,
                             PersistStage::kGroupCommitFlush));

// =====================================================================
// Kill-point matrix: checkpoint stages
// =====================================================================

class CheckpointKillPointTest
    : public ::testing::TestWithParam<PersistStage> {};

TEST_P(CheckpointKillPointTest, CheckpointCrashNeverLosesState) {
  const PersistStage stage = GetParam();
  const std::size_t kShards = 4;
  const TrustServiceConfig config = MakeConfig(kShards);
  const std::vector<ScriptOp> ops = BuildScript();

  // Crash the explicit end-of-script checkpoint at every firing: once
  // per shard for the classic stages, once per shard per binary section
  // for kCheckpointMidSection (the tmp file then ends exactly on a
  // section boundary — a complete header + a prefix of sections).
  const std::size_t firings_per_shard =
      stage == PersistStage::kCheckpointMidSection
          ? kCheckpointSectionCount
          : 1;
  for (std::size_t crash = 0; crash < kShards * firings_per_shard;
       ++crash) {
    const std::string dir = MakeTestDir(
        "ckptkill_" + std::to_string(static_cast<int>(stage)) + "_" +
        std::to_string(crash));
    auto plan = std::make_shared<FaultPlan>();
    plan->stage = stage;
    PersistenceOptions options;
    options.directory = dir;
    options.fault_hook = MakeHook(plan);

    auto opened = TrustService::Open(config, options);
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<TrustService> service = std::move(opened).value();
    for (const ScriptOp& op : ops) {
      ASSERT_TRUE(ApplyScriptOp(service.get(), op).ok());
    }
    // Arm now: fail the crash-th checkpoint-stage firing.
    plan->fail_at = plan->seen + static_cast<int>(crash);
    plan->armed = true;
    EXPECT_FALSE(service->Checkpoint().ok());
    service.reset();

    // A checkpoint is pure compaction: whatever instant it died at, the
    // recovered state is the full script, bit for bit — for a follower
    // opened over the files the crash left, and for the next leader.
    const std::vector<std::string> expected =
        ExpectedStates(config, ops, ops.size(), false);
    {
      ReplicaOptions replica_options;
      replica_options.directory = dir;
      auto replica = ReplicaService::Open(config, replica_options);
      ASSERT_TRUE(replica.ok()) << replica.status().ToString();
      std::vector<std::string> followed;
      for (std::size_t s = 0; s < kShards; ++s) {
        followed.push_back(trust::SerializeTrustEngineState(
            replica.value()->shard_engine(s)));
      }
      EXPECT_EQ(followed, expected)
          << "follower after a checkpoint crash at stage "
          << static_cast<int>(stage) << " firing " << crash;
    }
    const std::vector<std::string> promoted = PromotedStates(config, dir);
    PersistenceOptions clean = options;
    clean.fault_hook = nullptr;
    auto reopened = TrustService::Open(config, clean);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(ShardStates(*reopened.value()), expected)
        << "checkpoint crash at stage " << static_cast<int>(stage)
        << " firing " << crash;
    EXPECT_EQ(promoted, ShardStates(*reopened.value()))
        << "promote diverged from recovery after a checkpoint crash at "
           "stage "
        << static_cast<int>(stage) << " firing " << crash;

    // And the next incarnation checkpoints + serves cleanly.
    EXPECT_TRUE(reopened.value()->Checkpoint().ok());
    EXPECT_TRUE(reopened.value()
                    ->ReportOutcome(OutcomeOp(2, 3, 1, false, 0.0, 0.5,
                                              0.1)
                                        .report)
                    .ok());
    reopened.value().reset();
    std::filesystem::remove_all(dir);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCheckpointStages, CheckpointKillPointTest,
                         ::testing::Values(
                             PersistStage::kCheckpointMidWrite,
                             PersistStage::kCheckpointMidSection,
                             PersistStage::kCheckpointBeforeRename,
                             PersistStage::kCheckpointBeforeUnlink,
                             PersistStage::kCheckpointAfterSeal));

/// Names of `shard`'s WAL segments under `dir`, oldest first.
std::vector<std::uint64_t> SegmentsOf(const std::string& dir,
                                      std::size_t shard) {
  const std::vector<WalSegment> segments =
      ListWalSegments(dir, shard).value();
  std::vector<std::uint64_t> firsts;
  for (const WalSegment& segment : segments) {
    firsts.push_back(segment.first_seq);
  }
  return firsts;
}

TEST(PersistenceTest, CheckpointSealsBeforeWritingAndUnlinksAfterRename) {
  // Records every hook firing of a checkpoint with the files each one
  // sees. kCheckpointAfterSeal fires once the new segment's directory
  // entry is synced, kCheckpointBeforeUnlink once the rename's is: so
  // the new segment must exist, empty, before any checkpoint byte or
  // frame, and every old segment must still exist until the rename is
  // durable.
  const TrustServiceConfig config = MakeConfig(2);
  const std::string dir = MakeTestDir("seal_order");
  struct Firing {
    PersistStage stage;
    std::size_t shard;
    std::vector<std::uint64_t> segments;
    std::uint64_t newest_bytes;
    bool checkpoint_exists;
  };
  std::vector<Firing> firings;
  PersistenceOptions options;
  options.directory = dir;
  options.sync_every_append = true;
  options.fault_hook = [&](PersistStage stage, std::size_t shard) {
    const std::vector<std::uint64_t> segments = SegmentsOf(dir, shard);
    firings.push_back({stage, shard, segments,
                       std::filesystem::file_size(ShardSegmentPath(
                           dir, shard, segments.back())),
                       FileExists(ShardCheckpointPath(dir, shard))});
    return Status::OK();
  };
  auto service = std::move(TrustService::Open(config, options)).value();
  const TaskId task = service->RegisterTask("gps", {0}).value();
  for (AgentId t = 0; t < 6; ++t) {
    ASSERT_TRUE(
        service->ReportOutcome(OutcomeOp(t, t + 9, task, true, 0.5, 0, 0.1)
                                   .report)
            .ok());
  }
  const std::vector<ShardWalPosition> before = service->WalPositions();
  firings.clear();
  ASSERT_TRUE(service->Checkpoint().ok());
  const std::vector<Firing> checkpoint = firings;
  ASSERT_TRUE(
      service->ReportOutcome(OutcomeOp(1, 2, task, true, 0.5, 0, 0.1).report)
          .ok());

  for (std::size_t s = 0; s < config.shard_count; ++s) {
    const std::uint64_t sealed_at = before[s].last_seq + 1;
    std::vector<PersistStage> order;
    for (const Firing& firing : checkpoint) {
      if (firing.shard != s) continue;
      order.push_back(firing.stage);
      // No unlink before the checkpoint rename's directory sync: the
      // segment the checkpoint seals is still there at every stage.
      EXPECT_EQ(firing.segments,
                (std::vector<std::uint64_t>{1, sealed_at}))
          << "shard " << s << " stage " << static_cast<int>(firing.stage);
      // No frame in the new segment before its directory sync.
      EXPECT_EQ(firing.newest_bytes, 0u) << "shard " << s;
      EXPECT_EQ(firing.checkpoint_exists,
                firing.stage == PersistStage::kCheckpointBeforeUnlink)
          << "shard " << s << " stage " << static_cast<int>(firing.stage);
    }
    ASSERT_FALSE(order.empty()) << "shard " << s;
    EXPECT_EQ(order.front(), PersistStage::kCheckpointAfterSeal);
    EXPECT_EQ(order.back(), PersistStage::kCheckpointBeforeUnlink);
    EXPECT_EQ(std::count(order.begin(), order.end(),
                         PersistStage::kCheckpointBeforeRename),
              1);
    // After it: only the new segment.
    EXPECT_EQ(SegmentsOf(dir, s), std::vector<std::uint64_t>{sealed_at})
        << "shard " << s;
  }
  // The next append comes after every firing of the checkpoint, into
  // the new segment.
  const Firing& append = firings[checkpoint.size()];
  EXPECT_EQ(append.stage, PersistStage::kWalBeforeAppend);
  EXPECT_EQ(append.segments.back(), before[append.shard].last_seq + 1);
  service.reset();
  std::filesystem::remove_all(dir);
}

// =====================================================================
// Clean-restart byte identity + manifest guard
// =====================================================================

TEST(PersistenceTest, CleanRestartIsByteIdentical) {
  const TrustServiceConfig config = MakeConfig(8);
  const std::string dir = MakeTestDir("clean_restart");
  PersistenceOptions options;
  options.directory = dir;

  std::vector<std::string> before;
  {
    auto service = std::move(TrustService::Open(config, options)).value();
    for (const ScriptOp& op : BuildScript()) {
      ASSERT_TRUE(ApplyScriptOp(service.get(), op).ok());
    }
    before = ShardStates(*service);
  }
  {
    auto service = std::move(TrustService::Open(config, options)).value();
    EXPECT_EQ(ShardStates(*service), before) << "WAL-tail recovery";
    // Checkpoint, restart again: the checkpoint path must reproduce the
    // same bytes as the WAL replay did.
    ASSERT_TRUE(service->Checkpoint().ok());
  }
  {
    auto service = std::move(TrustService::Open(config, options)).value();
    EXPECT_EQ(ShardStates(*service), before) << "checkpoint recovery";
  }
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, ManifestRefusesDifferentConfiguration) {
  const std::string dir = MakeTestDir("manifest");
  PersistenceOptions options;
  options.directory = dir;
  { ASSERT_TRUE(TrustService::Open(MakeConfig(8), options).ok()); }
  // Different shard count: records would land on the wrong shards.
  EXPECT_TRUE(TrustService::Open(MakeConfig(4), options)
                  .status()
                  .IsInvalidArgument());
  // Different forgetting factor: WAL replay would diverge.
  TrustServiceConfig other = MakeConfig(8);
  other.engine.beta = trust::ForgettingFactors::Uniform(0.5);
  EXPECT_TRUE(
      TrustService::Open(other, options).status().IsInvalidArgument());
  // The matching config still opens.
  EXPECT_TRUE(TrustService::Open(MakeConfig(8), options).ok());
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, WalFailureDegradesServiceInsteadOfAborting) {
  // A WAL append that fails midway through admin replication leaves the
  // in-memory replicas divergent. The live service must degrade —
  // refuse further mutations — rather than keep serving from divergent
  // catalogs (where a later RegisterTask would trip the replica-id
  // SIOT_CHECK and abort the process). A restart squares the ledger.
  const TrustServiceConfig config = MakeConfig(4);
  const std::string dir = MakeTestDir("degraded");
  auto plan = std::make_shared<FaultPlan>();
  plan->stage = PersistStage::kWalBeforeAppend;
  PersistenceOptions options;
  options.directory = dir;
  options.fault_hook = MakeHook(plan);
  auto service = std::move(TrustService::Open(config, options)).value();
  ASSERT_TRUE(service->RegisterTask("gps", {0}).ok());
  ASSERT_TRUE(
      service->ReportOutcome(OutcomeOp(1, 2, 0, true, 0.5, 0.0, 0.1)
                                 .report)
          .ok());
  EXPECT_FALSE(service->degraded());
  // Fail the append at shard 2 of the next registration: shards 0-1
  // apply it, shards 2-3 never see it.
  plan->fail_at = plan->seen + 2;
  plan->armed = true;
  EXPECT_FALSE(service->RegisterTask("image", {1}).ok());
  plan->armed = false;
  EXPECT_TRUE(service->degraded());
  // Every further mutation refuses instead of touching divergent state.
  EXPECT_EQ(service->RegisterTask("lidar", {2}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service->ReportOutcome(
                        OutcomeOp(3, 4, 0, true, 0.5, 0.0, 0.1).report)
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service->SetReverseThreshold(1, trust::kNoTask, 0.5).code(),
            StatusCode::kFailedPrecondition);
  std::vector<OutcomeReport> batch = {
      OutcomeOp(5, 6, 0, true, 0.5, 0.0, 0.1).report};
  EXPECT_EQ(service->BatchReportOutcome(batch).code(),
            StatusCode::kFailedPrecondition);
  // Reads keep serving.
  EXPECT_TRUE(service->PreEvaluate(1, 2, 0).ok());
  // Restart: recovery completes the interrupted registration from
  // shard 0's copy and the service is whole again.
  service.reset();
  PersistenceOptions clean = options;
  clean.fault_hook = nullptr;
  auto reopened = std::move(TrustService::Open(config, clean)).value();
  EXPECT_FALSE(reopened->degraded());
  EXPECT_EQ(reopened->RegisterTask("lidar", {2}).value(), 2u)
      << "the crashed 'image' registration completed as id 1";
  for (std::size_t s = 0; s < reopened->shard_count(); ++s) {
    EXPECT_EQ(reopened->shard_engine(s).catalog().size(), 3u)
        << "shard " << s;
  }
  reopened.reset();
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, CheckpointWithoutPersistenceIsFailedPrecondition) {
  TrustService service(MakeConfig(2));
  EXPECT_EQ(service.Checkpoint().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(service.persistent());
}

TEST(PersistenceTest, SecondLiveOpenOfSameDirectoryIsRefused) {
  // Two live services appending to the same WALs would interleave
  // sequence numbers and make the directory unrecoverable; the LOCK
  // file refuses the second Open while the first lives.
  const TrustServiceConfig config = MakeConfig(2);
  const std::string dir = MakeTestDir("dirlock");
  PersistenceOptions options;
  options.directory = dir;
  auto first = std::move(TrustService::Open(config, options)).value();
  EXPECT_EQ(TrustService::Open(config, options).status().code(),
            StatusCode::kFailedPrecondition);
  first.reset();
  EXPECT_TRUE(TrustService::Open(config, options).ok())
      << "the lock releases with the owning service";
  std::filesystem::remove_all(dir);
}

/// A 16-shard directory with a checkpoint and a WAL tail on most shards:
/// the mixed script plus outcome reports for enough trustors to reach
/// every shard on both sides of a second checkpoint.
void WriteSixteenShardHistory(const TrustServiceConfig& config,
                              const PersistenceOptions& options) {
  auto service = std::move(TrustService::Open(config, options)).value();
  for (const ScriptOp& op : BuildScript()) {
    ASSERT_TRUE(ApplyScriptOp(service.get(), op).ok());
  }
  for (int round = 0; round < 2; ++round) {
    std::vector<OutcomeReport> reports;
    for (AgentId t = 0; t < 96; ++t) {
      reports.push_back(OutcomeOp(t, 200 + (t + round) % 9, t % 2,
                                  (t + round) % 3 != 0, 0.5, 0.125, 0.25)
                            .report);
    }
    ASSERT_TRUE(service->BatchReportOutcome(reports).ok());
    if (round == 0) {
      ASSERT_TRUE(service->Checkpoint().ok());
    }
  }
}

TEST(PersistenceTest, ParallelOpenMatchesSerialShardRecovery) {
  // Open restores shards concurrently; each shard must come out exactly
  // as ShardPersistence::Recover rebuilds it alone, one after another.
  const TrustServiceConfig config = MakeConfig(16);
  const std::string dir = MakeTestDir("parallel_open");
  PersistenceOptions options;
  options.directory = dir;
  WriteSixteenShardHistory(config, options);
  std::vector<std::string> serial;
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    trust::TrustEngine engine(config.engine);
    ShardPersistence persist(&options, s);
    ASSERT_TRUE(persist.Recover(&engine).ok()) << "shard " << s;
    serial.push_back(trust::SerializeTrustEngineState(engine));
  }
  for (int run = 0; run < 5; ++run) {
    auto service = std::move(TrustService::Open(config, options)).value();
    EXPECT_EQ(ShardStates(*service), serial) << "run " << run;
  }
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, ParallelOpenReportsLowestCorruptShard) {
  // Shards 3 and 7 both hold a damaged checkpoint. Restore runs shards
  // concurrently, yet Open must name shard 3 every time, as a serial
  // restore in shard order would.
  const TrustServiceConfig config = MakeConfig(16);
  const std::string dir = MakeTestDir("parallel_corrupt");
  PersistenceOptions options;
  options.directory = dir;
  WriteSixteenShardHistory(config, options);
  for (const std::size_t s : {3, 7}) {
    const std::string path = ShardCheckpointPath(dir, s);
    std::string bytes = ReadFileToString(path).value();
    ASSERT_GT(bytes.size(), 64u) << "shard " << s;
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
    ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
  }
  for (int run = 0; run < 20; ++run) {
    const auto service = TrustService::Open(config, options);
    ASSERT_FALSE(service.ok());
    EXPECT_EQ(service.status().code(), StatusCode::kCorruption);
    EXPECT_NE(service.status().message().find("shard-3.ckpt"),
              std::string::npos)
        << "run " << run << ": " << service.status().ToString();
  }
  std::filesystem::remove_all(dir);
}

TEST(PersistenceTest, HostileReportsAreRejectedAtTheBoundary) {
  const TrustServiceConfig config = MakeConfig(2);
  const std::string dir = MakeTestDir("hostile");
  PersistenceOptions options;
  options.directory = dir;
  auto service = std::move(TrustService::Open(config, options)).value();
  ASSERT_TRUE(service->RegisterTask("gps", {0}).ok());
  // An absurd relay chain must come back InvalidArgument, not march
  // into the WAL writer's payload-size SIOT_CHECK.
  OutcomeReport report = OutcomeOp(1, 2, 0, true, 0.5, 0.0, 0.1).report;
  report.intermediates.assign(2000, 7);
  EXPECT_TRUE(service->ReportOutcome(report).IsInvalidArgument());
  // NaN thresholds would defeat MissingAdminOps' exact-equality compare
  // (NaN != NaN re-logs the op on every restart).
  EXPECT_TRUE(service
                  ->SetReverseThreshold(1, trust::kNoTask,
                                        std::nan(""))
                  .IsInvalidArgument());
  // Non-finite observations would poison the pair's estimates — and
  // with persistence the NaN would survive every restart.
  OutcomeReport poisoned = OutcomeOp(1, 2, 0, true, 0.5, 0.0, 0.1).report;
  poisoned.outcome.gain = std::nan("");
  EXPECT_TRUE(service->ReportOutcome(poisoned).IsInvalidArgument());
  poisoned.outcome.gain = 0.5;
  poisoned.outcome.cost = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(service->ReportOutcome(poisoned).IsInvalidArgument());
  EXPECT_FALSE(service->degraded()) << "rejections are not IO failures";
  service.reset();
  std::filesystem::remove_all(dir);
}

// =====================================================================
// Restart-after-every-batch equivalence vs unpersisted reference
// =====================================================================

constexpr AgentId kAgents = 96;
constexpr std::size_t kRounds = 8;
constexpr std::uint64_t kSeed = 2026;

struct BatchScript {
  std::vector<TaskId> tasks;

  static std::vector<AgentId> Candidates(AgentId trustor) {
    std::vector<AgentId> candidates = {(trustor + 1) % kAgents,
                                       (trustor + 2) % kAgents,
                                       (trustor + 3) % kAgents};
    if (trustor % 4 == 0) candidates.push_back(trustor);
    return candidates;
  }

  DelegationServiceRequest Request(AgentId trustor, Rng& rng) const {
    DelegationServiceRequest request;
    request.trustor = trustor;
    request.task = tasks[rng.NextBounded(tasks.size())];
    request.candidates = Candidates(trustor);
    if (rng.NextBounded(3) == 0) {
      request.self_estimates =
          OutcomeEstimates{rng.NextDouble(), rng.NextDouble(),
                           rng.NextDouble(), rng.NextDouble()};
    }
    return request;
  }

  OutcomeReport Report(const DelegationServiceRequest& request,
                       const DelegationRequestResult& result,
                       Rng& rng) const {
    OutcomeReport report;
    report.trustor = request.trustor;
    report.trustee =
        (result.trustee != trust::kNoAgent && !result.self_execution)
            ? result.trustee
            : request.candidates.front();
    report.task = request.task;
    report.outcome.success = rng.Bernoulli(0.7);
    report.outcome.gain = report.outcome.success ? rng.NextDouble() : 0.0;
    report.outcome.damage =
        report.outcome.success ? 0.0 : rng.NextDouble();
    report.outcome.cost = 0.25 * rng.NextDouble();
    if (rng.NextBounded(4) == 0) {
      report.intermediates = {(request.trustor + 7) % kAgents};
    }
    report.trustor_was_abusive = rng.Bernoulli(0.2);
    return report;
  }
};

TEST(PersistenceEquivalenceTest,
     RestartAfterEveryBatchMatchesUnpersistedReference) {
  const TrustServiceConfig config = MakeConfig(8);
  const std::string dir = MakeTestDir("equivalence");
  PersistenceOptions options;
  options.directory = dir;
  // Small auto-checkpoint interval: rounds cross checkpoint boundaries
  // mid-stream, so recovery exercises every checkpoint + WAL-tail split.
  options.checkpoint_every_appends = 7;

  // Unpersisted single-threaded reference engine.
  trust::TrustEngine reference(config.engine);
  BatchScript script;
  script.tasks = {reference.catalog().AddUniform("gps", {0}).value(),
                  reference.catalog().AddUniform("image", {1}).value(),
                  reference.catalog().AddUniform("traffic", {0, 1}).value()};
  for (AgentId agent = 0; agent < kAgents; agent += 7) {
    reference.reverse_evaluator().SetThreshold(agent, trust::kNoTask, 0.8);
  }
  for (AgentId agent = 0; agent < kAgents; agent += 5) {
    reference.environment().SetIndicator(agent, 0.5);
  }

  {
    auto service = std::move(TrustService::Open(config, options)).value();
    ASSERT_EQ(service->RegisterTask("gps", {0}).value(), script.tasks[0]);
    ASSERT_EQ(service->RegisterTask("image", {1}).value(),
              script.tasks[1]);
    ASSERT_EQ(service->RegisterTask("traffic", {0, 1}).value(),
              script.tasks[2]);
    for (AgentId agent = 0; agent < kAgents; agent += 7) {
      ASSERT_TRUE(
          service->SetReverseThreshold(agent, trust::kNoTask, 0.8).ok());
    }
    for (AgentId agent = 0; agent < kAgents; agent += 5) {
      ASSERT_TRUE(service->SetEnvironmentIndicator(agent, 0.5).ok());
    }
  }

  std::vector<Rng> reference_streams;
  std::vector<Rng> service_streams;
  for (AgentId t = 0; t < kAgents; ++t) {
    reference_streams.push_back(sim::DeriveStream(kSeed, t));
    service_streams.push_back(sim::DeriveStream(kSeed, t));
  }

  for (std::size_t round = 0; round < kRounds; ++round) {
    // Every round runs against a FRESH recovery of the on-disk state.
    auto service = std::move(TrustService::Open(config, options)).value();
    std::vector<DelegationServiceRequest> requests;
    for (AgentId t = 0; t < kAgents; ++t) {
      requests.push_back(script.Request(t, service_streams[t]));
    }
    const std::vector<DelegationRequestResult> results =
        service->BatchRequestDelegation(requests).value();
    std::vector<OutcomeReport> reports;
    for (AgentId t = 0; t < kAgents; ++t) {
      reports.push_back(
          script.Report(requests[t], results[t], service_streams[t]));
    }
    ASSERT_TRUE(service->BatchReportOutcome(reports).ok());

    for (AgentId t = 0; t < kAgents; ++t) {
      const DelegationServiceRequest request =
          script.Request(t, reference_streams[t]);
      const DelegationRequestResult expected = reference.RequestDelegation(
          request.trustor, request.task, request.candidates,
          request.self_estimates);
      ASSERT_EQ(results[t].trustee, expected.trustee)
          << "round " << round << " trustor " << t;
      EXPECT_EQ(results[t].trustworthiness, expected.trustworthiness);
      EXPECT_EQ(results[t].expected_profit, expected.expected_profit);
      EXPECT_EQ(results[t].refusals, expected.refusals);
      const OutcomeReport report =
          script.Report(request, expected, reference_streams[t]);
      reference.ReportOutcome(report.trustor, report.trustee, report.task,
                              report.outcome, report.trustor_was_abusive,
                              report.intermediates);
    }
  }

  // Final recovery: every reference record present, record for record.
  auto service = std::move(TrustService::Open(config, options)).value();
  std::size_t service_records = 0;
  for (std::size_t s = 0; s < service->shard_count(); ++s) {
    service_records += service->shard_engine(s).store().size();
  }
  EXPECT_EQ(service_records, reference.store().size());
  for (const auto& [key, record] : reference.store().AllRecords()) {
    const auto& engine =
        service->shard_engine(service->ShardOf(key.trustor));
    const auto found =
        engine.store().Find(key.trustor, key.trustee, key.task);
    ASSERT_TRUE(found.has_value())
        << key.trustor << "→" << key.trustee << " task " << key.task;
    EXPECT_EQ(found->estimates, record.estimates);
    EXPECT_EQ(found->observations, record.observations);
  }
  service.reset();
  std::filesystem::remove_all(dir);
}

// =====================================================================
// Corruption fault injection
// =====================================================================

/// Single-shard script whose WAL layout the truncation sweep dissects.
std::vector<ScriptOp> SmallScript() {
  std::vector<ScriptOp> ops;
  ops.push_back({ScriptOp::kTask, "gps", {0}, 0, trust::kNoTask, 0.0, {}});
  for (AgentId t = 0; t < 6; ++t) {
    ops.push_back(OutcomeOp(t, t + 10, 0, t % 2 == 0, 0.5, 0.25, 0.125,
                            t % 3 == 0));
  }
  return ops;
}

TEST(PersistenceTest, FramesLostBeforeASealRestartTheNewestSegment) {
  // Without durable writes a power cut after a seal can keep the new
  // segment's name while the sealed segment loses its unsynced tail. The
  // recovered leader must append where its log really ends, under that
  // seq's name, so a follower can cross its next seal.
  const TrustServiceConfig config = MakeConfig(1);
  const std::string dir = MakeTestDir("lost_before_seal");
  std::vector<ScriptOp> ops = SmallScript();
  PersistenceOptions options;
  options.directory = dir;
  options.fault_hook = [](PersistStage stage, std::size_t) {
    return stage == PersistStage::kCheckpointAfterSeal
               ? Status::IoError("simulated crash")
               : Status::OK();
  };
  {
    auto service = std::move(TrustService::Open(config, options)).value();
    for (const ScriptOp& op : ops) {
      ASSERT_TRUE(ApplyScriptOp(service.get(), op).ok());
    }
    ASSERT_FALSE(service->Checkpoint().ok());
  }
  // The cut keeps 4 of the sealed segment's 7 frames.
  const std::string sealed = ShardSegmentPath(dir, 0, 1);
  const WalContents wal = ReadWal(sealed).value();
  ASSERT_EQ(wal.entries.size(), ops.size());
  std::uintmax_t kept = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    kept += 16 + wal.entries[i].payload.size();
  }
  std::filesystem::resize_file(sealed, kept);
  ASSERT_EQ(SegmentsOf(dir, 0),
            (std::vector<std::uint64_t>{1, ops.size() + 1}));

  // Before the leader comes back, a follower over a copy of the cut
  // directory promotes: it reads the same log through the same reader,
  // so it must come up where the restart below does.
  const std::string copy = MakeTestDir("lost_before_seal_copy");
  std::filesystem::copy(dir, copy, std::filesystem::copy_options::recursive);
  ReplicaOptions follower_options;
  follower_options.directory = copy;
  auto follower = ReplicaService::Open(config, follower_options).value();
  PersistenceOptions promote_options;
  promote_options.directory = copy;
  auto promoted = follower->Promote(promote_options);
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(SegmentsOf(copy, 0), (std::vector<std::uint64_t>{1, 5}));

  options.fault_hook = nullptr;
  auto service = std::move(TrustService::Open(config, options)).value();
  EXPECT_EQ(ShardStates(*service), ExpectedStates(config, ops, 4, false));
  EXPECT_EQ(SegmentsOf(dir, 0), (std::vector<std::uint64_t>{1, 5}));
  EXPECT_EQ(ShardStates(*promoted.value()), ShardStates(*service));
  promoted.value().reset();
  follower.reset();
  std::filesystem::remove_all(copy);
  ReplicaOptions replica_options;
  replica_options.directory = dir;
  auto replica = ReplicaService::Open(config, replica_options).value();
  ASSERT_TRUE(service->ReportOutcome(ops[4].report).ok());
  ASSERT_TRUE(service->Checkpoint().ok());
  ASSERT_TRUE(service->ReportOutcome(ops[5].report).ok());
  ASSERT_TRUE(replica
                  ->AwaitPositions(service->WalPositions(),
                                   std::chrono::milliseconds(10000))
                  .ok());
  EXPECT_EQ(trust::SerializeTrustEngineState(replica->shard_engine(0)),
            ShardStates(*service)[0]);
  replica.reset();
  service.reset();
  std::filesystem::remove_all(dir);
}

TEST(PersistenceCorruptionTest, TruncationAtEveryByteRecoversAPrefix) {
  const TrustServiceConfig config = MakeConfig(1);
  const std::vector<ScriptOp> ops = SmallScript();
  const std::string dir = MakeTestDir("truncate_master");
  PersistenceOptions options;
  options.directory = dir;
  {
    auto service = std::move(TrustService::Open(config, options)).value();
    for (const ScriptOp& op : ops) {
      ASSERT_TRUE(ApplyScriptOp(service.get(), op).ok());
    }
  }
  const std::string wal_path = NewestSegment(dir, 0);
  const std::string wal_bytes = ReadFileToString(wal_path).value();

  // Frame boundaries -> how many ops survive a cut at byte `cut`.
  const WalContents contents = ReadWal(wal_path).value();
  ASSERT_EQ(contents.entries.size(), ops.size());
  std::vector<std::size_t> boundary;  // boundary[k] = bytes of k frames
  boundary.push_back(0);
  for (const WalEntry& entry : contents.entries) {
    boundary.push_back(boundary.back() + 16 + entry.payload.size());
  }
  ASSERT_EQ(boundary.back(), wal_bytes.size());

  // Every possible prefix state, serialized.
  std::vector<std::vector<std::string>> prefix_states;
  for (std::size_t k = 0; k <= ops.size(); ++k) {
    prefix_states.push_back(ExpectedStates(config, ops, k, false));
  }

  const std::string work = MakeTestDir("truncate_work");
  for (std::size_t cut = 0; cut <= wal_bytes.size(); ++cut) {
    std::filesystem::remove_all(work);
    std::filesystem::copy(dir, work,
                          std::filesystem::copy_options::recursive);
    {
      std::ofstream f(NewestSegment(work, 0),
                      std::ios::binary | std::ios::trunc);
      f.write(wal_bytes.data(), static_cast<std::streamsize>(cut));
    }
    PersistenceOptions cut_options;
    cut_options.directory = work;
    auto reopened = TrustService::Open(config, cut_options);
    ASSERT_TRUE(reopened.ok())
        << "cut at byte " << cut << ": " << reopened.status().ToString();
    // The recovered state is exactly the ops whose frames fit below the
    // cut — a torn record never half-applies.
    std::size_t survivors = 0;
    while (survivors + 1 < boundary.size() &&
           boundary[survivors + 1] <= cut) {
      ++survivors;
    }
    EXPECT_EQ(ShardStates(*reopened.value()), prefix_states[survivors])
        << "cut at byte " << cut;
  }
  std::filesystem::remove_all(work);
  std::filesystem::remove_all(dir);
}

TEST(PersistenceCorruptionTest,
     CheckpointTruncationAtEveryByteIsCorruption) {
  // The service-level half of the binary-checkpoint torn-write sweep:
  // after the atomic rename only complete files exist, so recovery
  // treats ANY shorter checkpoint as Corruption — it never crashes and
  // never restores a partial engine.
  const TrustServiceConfig config = MakeConfig(1);
  const std::vector<ScriptOp> ops = SmallScript();
  const std::string dir = MakeTestDir("ckpt_truncate_master");
  PersistenceOptions options;
  options.directory = dir;
  {
    auto service = std::move(TrustService::Open(config, options)).value();
    for (const ScriptOp& op : ops) {
      ASSERT_TRUE(ApplyScriptOp(service.get(), op).ok());
    }
    ASSERT_TRUE(service->Checkpoint().ok());
  }
  const std::string ckpt_bytes =
      ReadFileToString(ShardCheckpointPath(dir, 0)).value();
  ASSERT_EQ(CheckpointFormat(ckpt_bytes), kCheckpointFormatBinary);

  const std::string work = MakeTestDir("ckpt_truncate_work");
  for (std::size_t cut = 0; cut < ckpt_bytes.size(); ++cut) {
    std::filesystem::remove_all(work);
    std::filesystem::copy(dir, work,
                          std::filesystem::copy_options::recursive);
    {
      std::ofstream f(ShardCheckpointPath(work, 0),
                      std::ios::binary | std::ios::trunc);
      f.write(ckpt_bytes.data(), static_cast<std::streamsize>(cut));
    }
    PersistenceOptions cut_options;
    cut_options.directory = work;
    const auto reopened = TrustService::Open(config, cut_options);
    ASSERT_FALSE(reopened.ok()) << "cut at byte " << cut;
    EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
        << "cut at byte " << cut << ": " << reopened.status().ToString();
  }
  std::filesystem::remove_all(work);
  std::filesystem::remove_all(dir);
}

TEST(PersistenceCorruptionTest, ReadWalClassifiesTornVsCorruptTails) {
  // A follower tailing a live WAL needs to tell "torn tail, retry
  // later" (an append mid-flight / a crash mid-append) from "corrupt
  // interior, halt" (bit rot that waiting can never fix). ReadWal
  // reports the distinction via WalContents::tail.
  const TrustServiceConfig config = MakeConfig(1);
  const std::vector<ScriptOp> ops = SmallScript();
  const std::string dir = MakeTestDir("tail_kind_master");
  PersistenceOptions options;
  options.directory = dir;
  {
    auto service = std::move(TrustService::Open(config, options)).value();
    for (const ScriptOp& op : ops) {
      ASSERT_TRUE(ApplyScriptOp(service.get(), op).ok());
    }
  }
  const std::string wal_path = NewestSegment(dir, 0);
  const std::string wal_bytes = ReadFileToString(wal_path).value();
  const WalContents master = ReadWal(wal_path).value();
  ASSERT_EQ(master.tail, WalTailKind::kClean);
  ASSERT_EQ(master.entries.size(), ops.size());
  std::vector<std::size_t> boundary{0};
  for (const WalEntry& entry : master.entries) {
    boundary.push_back(boundary.back() + 16 + entry.payload.size());
  }

  const auto write_wal = [&](const std::string& bytes) {
    std::ofstream f(wal_path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  // Every mid-frame truncation is TORN (the missing bytes could still
  // arrive); every frame-boundary cut is CLEAN.
  for (std::size_t cut = 0; cut <= wal_bytes.size(); ++cut) {
    write_wal(wal_bytes.substr(0, cut));
    const WalContents contents = ReadWal(wal_path).value();
    const bool at_boundary =
        std::find(boundary.begin(), boundary.end(), cut) != boundary.end();
    EXPECT_EQ(contents.tail,
              at_boundary ? WalTailKind::kClean : WalTailKind::kTorn)
        << "cut at byte " << cut;
    EXPECT_EQ(contents.dropped_tail, !at_boundary) << "cut " << cut;
  }

  // A payload bit flip inside a COMPLETE interior frame is CORRUPT: all
  // its bytes are present, so the CRC mismatch is final. The scan stops
  // at the frame's start and names the failure.
  {
    std::string flipped = wal_bytes;
    const std::size_t victim = boundary[2] + 16 + 2;  // frame 2 payload
    flipped[victim] = static_cast<char>(flipped[victim] ^ 0x01);
    write_wal(flipped);
    const WalContents contents = ReadWal(wal_path).value();
    EXPECT_EQ(contents.tail, WalTailKind::kCorrupt);
    EXPECT_EQ(contents.entries.size(), 2u);
    EXPECT_EQ(contents.valid_bytes, boundary[2]);
    EXPECT_NE(contents.tail_error.find("CRC mismatch"), std::string::npos)
        << contents.tail_error;
  }

  // An absurd length field is CORRUPT too — no append ever writes one,
  // and a torn write only shortens a frame.
  {
    std::string oversized = wal_bytes;
    oversized[boundary[3] + 3] = static_cast<char>(0xFF);  // len high byte
    write_wal(oversized);
    const WalContents contents = ReadWal(wal_path).value();
    EXPECT_EQ(contents.tail, WalTailKind::kCorrupt);
    EXPECT_EQ(contents.entries.size(), 3u);
    EXPECT_NE(contents.tail_error.find("length"), std::string::npos)
        << contents.tail_error;
  }
  std::filesystem::remove_all(dir);
}

TEST(PersistenceCorruptionTest, RandomBitFlipsNeverCrashRecovery) {
  const TrustServiceConfig config = MakeConfig(2);
  const std::vector<ScriptOp> ops = BuildScript();
  const std::string dir = MakeTestDir("bitflip_master");
  PersistenceOptions options;
  options.directory = dir;
  {
    auto service = std::move(TrustService::Open(config, options)).value();
    for (const ScriptOp& op : ops) {
      ASSERT_TRUE(ApplyScriptOp(service.get(), op).ok());
    }
    // Half the state in checkpoints, half in WAL tails.
    ASSERT_TRUE(service->Checkpoint().ok());
    for (AgentId t = 0; t < 6; ++t) {
      ASSERT_TRUE(service
                      ->ReportOutcome(OutcomeOp(t, t + 20, 0, true, 0.75,
                                                0.0, 0.125)
                                          .report)
                      .ok());
    }
  }

  const std::string work = MakeTestDir("bitflip_work");
  Rng rng(7);
  std::size_t corrupted = 0;
  for (int trial = 0; trial < 160; ++trial) {
    std::filesystem::remove_all(work);
    std::filesystem::copy(dir, work,
                          std::filesystem::copy_options::recursive);
    // Flip one random bit in one shard file (WAL or checkpoint).
    const std::size_t shard = rng.NextBounded(2);
    const bool flip_wal = rng.NextBounded(2) == 0;
    const std::string victim = flip_wal ? NewestSegment(work, shard)
                                        : ShardCheckpointPath(work, shard);
    std::string bytes = ReadFileToString(victim).value();
    if (bytes.empty()) continue;  // This shard's WAL tail happens empty.
    const std::size_t offset = rng.NextBounded(bytes.size());
    bytes[offset] = static_cast<char>(
        static_cast<unsigned char>(bytes[offset]) ^
        (1u << rng.NextBounded(8)));
    {
      std::ofstream f(victim, std::ios::binary | std::ios::trunc);
      f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    PersistenceOptions flip_options;
    flip_options.directory = work;
    const auto reopened = TrustService::Open(config, flip_options);
    // The contract under arbitrary corruption: recover a consistent
    // prefix (OK) or report Corruption. Crashing, SIOT_CHECK-tripping,
    // or loading garbage state silently are the failure modes.
    if (!reopened.ok()) {
      EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
          << reopened.status().ToString();
      ++corrupted;
    }
  }
  // Sanity: the sweep actually hit detectable corruption (checkpoint
  // flips virtually always break the CRC).
  EXPECT_GT(corrupted, 0u);
  std::filesystem::remove_all(work);
  std::filesystem::remove_all(dir);
}

TEST(PersistenceCorruptionTest, SemanticallyInvalidOpsAreCorruption) {
  // CRC-valid frames whose payloads violate engine preconditions must be
  // rejected as Corruption, never forwarded into a SIOT_CHECK.
  trust::TrustEngine engine(MakeConfig(1).engine);
  EXPECT_EQ(ApplyWalOp("outcome 0 1 0 1 0.5 0 0.1 0 0", &engine).code(),
            StatusCode::kCorruption)
      << "unknown task must be corruption";
  ASSERT_TRUE(engine.catalog().AddUniform("gps", {0}).ok());
  EXPECT_TRUE(ApplyWalOp("outcome 0 1 0 1 0.5 0 0.1 0 0", &engine).ok());
  EXPECT_EQ(ApplyWalOp("env 3 7.5", &engine).code(),
            StatusCode::kCorruption)
      << "out-of-range indicator";
  EXPECT_EQ(ApplyWalOp("outcome 4294967295 1 0 1 0.5 0 0.1 0 0",
                       &engine)
                .code(),
            StatusCode::kCorruption)
      << "sentinel agent id";
  EXPECT_EQ(ApplyWalOp("outcome 0 1 0 1 0.5 0 0.1 0 2 5", &engine).code(),
            StatusCode::kCorruption)
      << "intermediate count mismatch";
  EXPECT_EQ(ApplyWalOp("outcome 0 1 0 1 nan 0 0.1 0 0", &engine).code(),
            StatusCode::kCorruption)
      << "non-finite outcome value";
  EXPECT_EQ(ApplyWalOp("theta 5 * nan", &engine).code(),
            StatusCode::kCorruption)
      << "NaN theta";
  EXPECT_EQ(ApplyWalOp("frobnicate 1 2", &engine).code(),
            StatusCode::kCorruption)
      << "unknown op";
}

TEST(PersistenceCorruptionTest, RepeatedOrMissingFramesAreCorruption) {
  // Valid frames out of sequence past the checkpoint mean a spliced or
  // reordered log. Recovery and a follower read it through one reader,
  // so both refuse it: neither skips a repeat nor bridges a gap.
  const TrustServiceConfig config = MakeConfig(1);
  const std::string dir = MakeTestDir("out_of_sequence_master");
  PersistenceOptions options;
  options.directory = dir;
  {
    auto service = std::move(TrustService::Open(config, options)).value();
    for (const ScriptOp& op : SmallScript()) {
      ASSERT_TRUE(ApplyScriptOp(service.get(), op).ok());
    }
  }
  const std::string wal = ReadFileToString(NewestSegment(dir, 0)).value();
  const WalContents contents = ReadWal(NewestSegment(dir, 0)).value();
  std::vector<std::size_t> boundary{0};
  for (const WalEntry& entry : contents.entries) {
    boundary.push_back(boundary.back() + 16 + entry.payload.size());
  }
  const auto frame = [&](std::size_t i) {
    return wal.substr(boundary[i], boundary[i + 1] - boundary[i]);
  };
  const std::string repeated = wal + frame(2);
  const std::string missing = wal.substr(0, boundary[2]) +
                              wal.substr(boundary[3]);
  const std::string work = MakeTestDir("out_of_sequence_work");
  for (const std::string& log : {repeated, missing}) {
    std::filesystem::remove_all(work);
    std::filesystem::copy(dir, work,
                          std::filesystem::copy_options::recursive);
    {
      std::ofstream f(NewestSegment(work, 0),
                      std::ios::binary | std::ios::trunc);
      f.write(log.data(), static_cast<std::streamsize>(log.size()));
    }
    ReplicaOptions replica_options;
    replica_options.directory = work;
    const auto replica = ReplicaService::Open(config, replica_options);
    EXPECT_EQ(replica.status().code(), StatusCode::kCorruption)
        << replica.status().ToString();
    PersistenceOptions work_options;
    work_options.directory = work;
    const auto reopened = TrustService::Open(config, work_options);
    EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
        << reopened.status().ToString();
  }
  std::filesystem::remove_all(work);
  std::filesystem::remove_all(dir);
}

// =====================================================================
// Concurrency: explicit and inline checkpoints racing data-plane writers
// (the TSan job runs this suite).
// =====================================================================

TEST(PersistenceStressTest, ConcurrentCheckpointsAndWritersStayExact) {
  const TrustServiceConfig config = MakeConfig(8);
  const std::string dir = MakeTestDir("stress");
  PersistenceOptions options;
  options.directory = dir;
  options.checkpoint_every_appends = 64;

  constexpr AgentId kStressAgents = 128;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kStressRounds = 10;

  // Reference: unpersisted service, single thread, same per-trustor op
  // sequences (state is keyed by trustor, so cross-trustor interleaving
  // is immaterial — the PR 3 equivalence guarantee).
  TrustService reference(MakeConfig(8));
  const TaskId task = reference.RegisterTask("sense", {0}).value();

  {
    auto opened = TrustService::Open(config, options);
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<TrustService> service = std::move(opened).value();
    ASSERT_EQ(service->RegisterTask("sense", {0}).value(), task);

    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        const AgentId chunk = kStressAgents / kThreads;
        const AgentId begin = static_cast<AgentId>(w) * chunk;
        const AgentId end = begin + chunk;
        std::vector<Rng> streams;
        for (AgentId t = begin; t < end; ++t) {
          streams.push_back(sim::DeriveStream(kSeed, t));
        }
        for (std::size_t round = 0; round < kStressRounds; ++round) {
          std::vector<OutcomeReport> reports;
          for (AgentId t = begin; t < end; ++t) {
            Rng& rng = streams[t - begin];
            OutcomeReport report;
            report.trustor = t;
            report.trustee = (t + 1 + static_cast<AgentId>(round)) %
                             kStressAgents;
            report.task = task;
            report.outcome.success = rng.Bernoulli(0.6);
            report.outcome.gain = rng.NextDouble();
            report.outcome.damage = rng.NextDouble();
            report.outcome.cost = 0.5 * rng.NextDouble();
            report.trustor_was_abusive = rng.Bernoulli(0.1);
            reports.push_back(report);
          }
          EXPECT_TRUE(service->BatchReportOutcome(reports).ok());
        }
      });
    }
    // An extra thread hammers explicit checkpoints while writers run.
    std::thread checkpointer([&] {
      for (int i = 0; i < 20; ++i) {
        EXPECT_TRUE(service->Checkpoint().ok());
      }
    });
    for (std::thread& worker : workers) worker.join();
    checkpointer.join();
    EXPECT_TRUE(service->background_status().ok());
  }

  // Reference run (single-threaded, same streams).
  for (std::size_t w = 0; w < kThreads; ++w) {
    const AgentId chunk = kStressAgents / kThreads;
    const AgentId begin = static_cast<AgentId>(w) * chunk;
    const AgentId end = begin + chunk;
    std::vector<Rng> streams;
    for (AgentId t = begin; t < end; ++t) {
      streams.push_back(sim::DeriveStream(kSeed, t));
    }
    for (std::size_t round = 0; round < kStressRounds; ++round) {
      std::vector<OutcomeReport> reports;
      for (AgentId t = begin; t < end; ++t) {
        Rng& rng = streams[t - begin];
        OutcomeReport report;
        report.trustor = t;
        report.trustee =
            (t + 1 + static_cast<AgentId>(round)) % kStressAgents;
        report.task = task;
        report.outcome.success = rng.Bernoulli(0.6);
        report.outcome.gain = rng.NextDouble();
        report.outcome.damage = rng.NextDouble();
        report.outcome.cost = 0.5 * rng.NextDouble();
        report.trustor_was_abusive = rng.Bernoulli(0.1);
        reports.push_back(report);
      }
      ASSERT_TRUE(reference.BatchReportOutcome(reports).ok());
    }
  }

  // Recover and compare byte for byte.
  auto reopened = TrustService::Open(config, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(ShardStates(*reopened.value()), ShardStates(reference));
  reopened.value().reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace siot::service
