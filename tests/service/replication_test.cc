// Copyright 2026 The siot-trust Authors.
// Proof harness for the WAL-tailing replication subsystem.
//
// The invariant under test: a follower tailing a leader's per-shard WALs
// is BYTE-IDENTICAL (SerializeTrustEngineState compare, per shard) to
// the leader at every acknowledged frame. The suites drive that through
// every hazard of tailing a live log:
//
//   * equivalence after every acknowledged batch, including with 8
//     concurrent leader writer threads and a background tailer;
//   * checkpoints under a tailing follower — the segment it reads sealed
//     and unlinked, repeatedly and between polls, and a legacy
//     single-file WAL handing over to the first numbered segment;
//   * torn-tail patience — a half-written frame makes the follower wait,
//     never poison, and the frame applies once its bytes complete;
//   * interior corruption halts (sticky Corruption) instead of serving
//     diverged state;
//   * follower kill/restart at random points during catch-up resumes to
//     the identical state with no frame applied twice (double-apply
//     diverges the estimates, so byte-identity is the detector);
//   * Promote(): fencing against a live leader, takeover after leader
//     death with zero acknowledged-write loss, and writability after.

#include "service/replication.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "common/rng.h"
#include "service/persistence.h"
#include "service/trust_service.h"
#include "tests/test_dir.h"
#include "trust/trust_store_io.h"

namespace siot::service {
namespace {

using trust::AgentId;
using trust::TaskId;

constexpr std::chrono::milliseconds kAwaitTimeout{10000};

TrustServiceConfig MakeConfig(std::size_t shards) {
  TrustServiceConfig config;
  config.shard_count = shards;
  config.engine.beta = trust::ForgettingFactors::Uniform(0.2);
  config.engine.initial_estimates = {0.5, 0.5, 0.5, 0.5};
  return config;
}

std::string StateOf(const trust::TrustEngine& engine) {
  return trust::SerializeTrustEngineState(engine);
}

/// Per-shard byte-identity between a leader (or promoted service) and a
/// follower.
template <typename Leader, typename Follower>
void ExpectIdentical(const Leader& leader, const Follower& follower,
                     std::size_t shards, const std::string& where) {
  for (std::size_t s = 0; s < shards; ++s) {
    EXPECT_EQ(StateOf(leader.shard_engine(s)),
              StateOf(follower.shard_engine(s)))
        << where << ": shard " << s << " diverged";
  }
}

/// One deterministic batch of outcome reports for trustors
/// [base, base + count), varying by `round` so every batch changes state.
std::vector<OutcomeReport> MakeBatch(AgentId base, AgentId count,
                                     TaskId task, std::uint64_t round) {
  std::vector<OutcomeReport> reports;
  for (AgentId t = base; t < base + count; ++t) {
    OutcomeReport report;
    report.trustor = t;
    report.trustee = 1000 + ((t + round) % 7);
    report.task = task;
    report.outcome.success = (t + round) % 3 != 0;
    report.outcome.gain = 0.5 + 0.01 * static_cast<double>(round % 13);
    report.outcome.damage = report.outcome.success ? 0.0 : 0.3;
    report.outcome.cost = 0.1;
    report.trustor_was_abusive = (t + round) % 11 == 0;
    if (t % 5 == 0) report.intermediates = {2000 + t % 3};
    reports.push_back(report);
  }
  return reports;
}

/// Opens a leader with one registered task and a few admin settings.
StatusOr<std::unique_ptr<TrustService>> OpenLeader(
    const TrustServiceConfig& config, const std::string& dir,
    TaskId* task, std::size_t checkpoint_every = 0) {
  PersistenceOptions options;
  options.directory = dir;
  options.checkpoint_every_appends = checkpoint_every;
  SIOT_ASSIGN_OR_RETURN(std::unique_ptr<TrustService> leader,
                        TrustService::Open(config, options));
  SIOT_ASSIGN_OR_RETURN(*task, leader->RegisterTask("sense", {0, 1}));
  SIOT_RETURN_IF_ERROR(
      leader->SetReverseThreshold(1001, trust::kNoTask, 0.7));
  SIOT_RETURN_IF_ERROR(leader->SetEnvironmentIndicator(2000, 0.9));
  return leader;
}

// --------------------------------------------------------- equivalence --

TEST(ReplicationTest, FollowerMatchesLeaderAfterEveryBatch) {
  const std::string dir = MakeTestDir("every_batch");
  const TrustServiceConfig config = MakeConfig(4);
  TaskId task = trust::kNoTask;
  auto leader = OpenLeader(config, dir, &task).value();

  ReplicaOptions replica_options;
  replica_options.directory = dir;
  auto replica = ReplicaService::Open(config, replica_options).value();

  for (std::uint64_t round = 0; round < 12; ++round) {
    ASSERT_TRUE(
        leader->BatchReportOutcome(MakeBatch(0, 40, task, round)).ok());
    if (round == 4) {
      // Admin writes ride the same stream.
      ASSERT_TRUE(leader->RegisterTask("act_" + std::to_string(round),
                                       {1})
                      .ok());
      ASSERT_TRUE(
          leader->SetEnvironmentIndicator(2000 + round, 0.5).ok());
    }
    const std::vector<ShardWalPosition> positions =
        leader->WalPositions();
    ASSERT_TRUE(replica->AwaitPositions(positions, kAwaitTimeout).ok());
    ExpectIdentical(*leader, *replica, config.shard_count,
                    "round " + std::to_string(round));
  }
  EXPECT_TRUE(replica->TailStatus().ok());

  // The replicated read surface answers exactly like the leader.
  const double leader_tw = leader->PreEvaluate(3, 1001, task).value();
  EXPECT_EQ(leader_tw, replica->PreEvaluate(3, 1001, task).value());
  DelegationServiceRequest request;
  request.trustor = 3;
  request.task = task;
  request.candidates = {1001, 1002, 1003};
  const auto leader_rank = leader->RequestDelegation(request).value();
  const auto replica_rank = replica->RequestDelegation(request).value();
  EXPECT_EQ(leader_rank.trustee, replica_rank.trustee);
  EXPECT_EQ(leader_rank.trustworthiness, replica_rank.trustworthiness);
}

TEST(ReplicationStressTest, EightThreadLeaderWritersReplicateExactly) {
  const std::string dir = MakeTestDir("eight_writers");
  const TrustServiceConfig config = MakeConfig(8);
  TaskId task = trust::kNoTask;
  auto leader = OpenLeader(config, dir, &task).value();

  // Background tailer polls concurrently with the 8 writer threads —
  // the TSan surface for reader/tailer/file interplay.
  ReplicaOptions replica_options;
  replica_options.directory = dir;
  replica_options.poll_period = std::chrono::milliseconds(1);
  auto replica = ReplicaService::Open(config, replica_options).value();

  constexpr int kWriters = 8;
  constexpr std::uint64_t kRounds = 20;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t round = 0; round < kRounds; ++round) {
        // Disjoint trustor ranges per writer; outcomes deterministic.
        const auto batch = MakeBatch(static_cast<AgentId>(100 * w), 25,
                                     task, round);
        EXPECT_TRUE(leader->BatchReportOutcome(batch).ok());
        // Interleave replica reads with the writes: they must never
        // crash or observe a torn state (any consistent prefix is fine).
        if (round % 5 == 0) {
          const auto tw = replica->PreEvaluate(
              static_cast<AgentId>(100 * w), 1001, task);
          EXPECT_TRUE(tw.ok());
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();

  const std::vector<ShardWalPosition> positions = leader->WalPositions();
  ASSERT_TRUE(replica->AwaitPositions(positions, kAwaitTimeout).ok());
  ExpectIdentical(*leader, *replica, config.shard_count,
                  "after 8-writer run");
  EXPECT_TRUE(replica->TailStatus().ok());
  EXPECT_EQ(leader->Stats().record_count, replica->Stats().record_count);
}

// ------------------------------------- checkpoints under a follower --

TEST(ReplicationTest, RewindAfterCheckpointTruncation) {
  const std::string dir = MakeTestDir("ckpt_rewind");
  const TrustServiceConfig config = MakeConfig(4);
  TaskId task = trust::kNoTask;
  auto leader = OpenLeader(config, dir, &task).value();

  ReplicaOptions replica_options;
  replica_options.directory = dir;
  auto replica = ReplicaService::Open(config, replica_options).value();

  // Follower fully caught up (read offsets deep into the segments) ...
  ASSERT_TRUE(
      leader->BatchReportOutcome(MakeBatch(0, 60, task, 1)).ok());
  ASSERT_TRUE(
      replica->AwaitPositions(leader->WalPositions(), kAwaitTimeout).ok());
  // ... then the leader checkpoints: every segment the follower reads is
  // sealed and unlinked, and new frames land in segments it has not
  // opened.
  ASSERT_TRUE(leader->Checkpoint().ok());
  ASSERT_TRUE(
      leader->BatchReportOutcome(MakeBatch(0, 60, task, 2)).ok());
  ASSERT_TRUE(
      replica->AwaitPositions(leader->WalPositions(), kAwaitTimeout).ok());
  ExpectIdentical(*leader, *replica, config.shard_count,
                  "after shrink rewind");
  EXPECT_TRUE(replica->TailStatus().ok());
}

TEST(ReplicationTest, RewindWhenWalRegrowsPastStaleOffset) {
  // Varying the pre-checkpoint batch size varies the follower's byte
  // offset in the segment the checkpoint seals. The new segment then
  // grows well past that offset; reading it there would land mid-frame
  // (as a corrupt frame at most offsets, as a torn one where a frame
  // header fakes a plausible length). The follower must read the new
  // segment from its start instead.
  for (const AgentId first_batch : {17, 33, 50, 61}) {
    const std::string dir =
        MakeTestDir("ckpt_regrow_" + std::to_string(first_batch));
    const TrustServiceConfig config = MakeConfig(2);
    TaskId task = trust::kNoTask;
    auto leader = OpenLeader(config, dir, &task).value();

    // Let the follower consume a prefix, leaving its offsets in the
    // middle of the WALs.
    ASSERT_TRUE(
        leader->BatchReportOutcome(MakeBatch(0, first_batch, task, 1))
            .ok());
    ReplicaOptions replica_options;
    replica_options.directory = dir;
    auto replica = ReplicaService::Open(config, replica_options).value();
    ASSERT_TRUE(
        replica->AwaitPositions(leader->WalPositions(), kAwaitTimeout)
            .ok());

    // Checkpoint, then write MORE bytes than before: the new segments
    // grow past the follower's offsets in the sealed ones.
    ASSERT_TRUE(leader->Checkpoint().ok());
    for (std::uint64_t round = 2; round < 8; ++round) {
      ASSERT_TRUE(
          leader->BatchReportOutcome(MakeBatch(0, 60, task, round)).ok());
    }
    ASSERT_TRUE(
        replica->AwaitPositions(leader->WalPositions(), kAwaitTimeout)
            .ok());
    ExpectIdentical(*leader, *replica, config.shard_count,
                    "past the sealed segments' offsets (first batch " +
                        std::to_string(first_batch) + ")");
    EXPECT_TRUE(replica->TailStatus().ok());
  }
}

TEST(ReplicationTest, RepeatedCheckpointsBetweenPolls) {
  const std::string dir = MakeTestDir("ckpt_repeat");
  const TrustServiceConfig config = MakeConfig(4);
  TaskId task = trust::kNoTask;
  auto leader = OpenLeader(config, dir, &task).value();

  ReplicaOptions replica_options;
  replica_options.directory = dir;
  auto replica = ReplicaService::Open(config, replica_options).value();

  for (std::uint64_t round = 0; round < 6; ++round) {
    ASSERT_TRUE(
        leader->BatchReportOutcome(MakeBatch(0, 40, task, round)).ok());
    ASSERT_TRUE(leader->Checkpoint().ok());
    if (round % 2 == 0) {
      ASSERT_TRUE(
          replica->AwaitPositions(leader->WalPositions(), kAwaitTimeout)
              .ok());
      ExpectIdentical(*leader, *replica, config.shard_count,
                      "checkpointed round " + std::to_string(round));
    }
  }
  ASSERT_TRUE(
      replica->AwaitPositions(leader->WalPositions(), kAwaitTimeout).ok());
  ExpectIdentical(*leader, *replica, config.shard_count, "final");
}

// ------------------------------------------------------ torn / corrupt --

/// Runs an identical scripted leader in `dir` for `rounds` batches, then
/// closes it, leaving static WAL files.
void RunScriptedLeader(const TrustServiceConfig& config,
                       const std::string& dir, std::uint64_t rounds) {
  TaskId task = trust::kNoTask;
  auto leader = OpenLeader(config, dir, &task).value();
  for (std::uint64_t round = 0; round < rounds; ++round) {
    ASSERT_TRUE(
        leader->BatchReportOutcome(MakeBatch(0, 30, task, round)).ok());
  }
}

std::string ReadAll(const std::string& path) {
  return ReadFileToString(path).value();
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

void AppendRaw(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// Path of `shard`'s newest WAL segment, the one its leader appends to.
std::string NewestSegment(const std::string& dir, std::size_t shard) {
  const std::vector<WalSegment> segments =
      ListWalSegments(dir, shard).value();
  EXPECT_FALSE(segments.empty()) << dir << " shard " << shard;
  return segments.empty() ? ShardWalPath(dir, shard) : segments.back().path;
}

TEST(ReplicationTest, TornTailWaitsThenAppliesWhenCompleted) {
  // Two identical scripted leaders, one run a batch further: the byte
  // difference of each shard's WAL is exactly the extra batch's frames.
  const TrustServiceConfig config = MakeConfig(3);
  const std::string dir_short = MakeTestDir("torn_short");
  const std::string dir_long = MakeTestDir("torn_long");
  RunScriptedLeader(config, dir_short, 4);
  RunScriptedLeader(config, dir_long, 5);

  ReplicaOptions replica_options;
  replica_options.directory = dir_short;
  auto replica = ReplicaService::Open(config, replica_options).value();
  ASSERT_TRUE(replica->PollAll().ok());
  std::vector<std::string> shard_states;
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    shard_states.push_back(StateOf(replica->shard_engine(s)));
  }

  // Feed each shard a PREFIX of its extra frame bytes that stops inside
  // the very first extra frame (20 bytes: the 16-byte header plus 4
  // payload bytes): a torn tail, exactly what a reader sees while the
  // leader's append syscall is in flight — with zero complete frames.
  constexpr std::size_t kTornCut = 20;
  std::vector<std::string> extras;
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    const std::string short_wal = ReadAll(NewestSegment(dir_short, s));
    const std::string long_wal = ReadAll(NewestSegment(dir_long, s));
    ASSERT_GT(long_wal.size(), short_wal.size() + kTornCut)
        << "shard " << s;
    ASSERT_EQ(long_wal.substr(0, short_wal.size()), short_wal)
        << "scripted leaders diverged; the torn-tail construction is "
           "invalid";
    const std::string extra = long_wal.substr(short_wal.size());
    AppendRaw(NewestSegment(dir_short, s),
              std::string_view(extra).substr(0, kTornCut));
    extras.push_back(extra);
  }

  // Patience: the torn tail applies nothing, poisons nothing, and the
  // follower keeps serving its previous state.
  const auto polled_torn = replica->PollAll();
  ASSERT_TRUE(polled_torn.ok()) << polled_torn.status().ToString();
  EXPECT_EQ(polled_torn.value(), 0u);
  EXPECT_TRUE(replica->TailStatus().ok());
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    EXPECT_EQ(shard_states[s], StateOf(replica->shard_engine(s)));
  }
  for (const ShardReplicationLag& lag : replica->ReplicationLag()) {
    EXPECT_TRUE(lag.torn_tail) << "shard " << lag.shard;
    EXPECT_GT(lag.byte_lag, 0u) << "shard " << lag.shard;
    EXPECT_EQ(lag.seq_lag, 0u) << "shard " << lag.shard;
  }

  // The remaining bytes arrive; the frames must now apply and the state
  // must equal the longer run's.
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    AppendRaw(NewestSegment(dir_short, s),
              std::string_view(extras[s]).substr(kTornCut));
  }
  const auto polled_complete = replica->PollAll();
  ASSERT_TRUE(polled_complete.ok());
  EXPECT_GT(polled_complete.value(), 0u);

  ReplicaOptions long_options;
  long_options.directory = dir_long;
  auto long_replica = ReplicaService::Open(config, long_options).value();
  ASSERT_TRUE(long_replica->PollAll().ok());
  ExpectIdentical(*long_replica, *replica, config.shard_count,
                  "after tail completed");
}

TEST(ReplicationTest, InteriorCorruptionHaltsStickily) {
  const TrustServiceConfig config = MakeConfig(2);
  const std::string dir = MakeTestDir("interior_corrupt");
  RunScriptedLeader(config, dir, 4);

  // A caught-up follower, then corruption lands in bytes it has not
  // read: a fresh follower re-reading from zero must halt on it.
  const std::string wal_path = NewestSegment(dir, 0);
  std::string bytes = ReadAll(wal_path);
  ASSERT_GT(bytes.size(), 200u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  WriteRaw(wal_path, bytes);

  ReplicaOptions replica_options;
  replica_options.directory = dir;
  const auto replica = ReplicaService::Open(config, replica_options);
  ASSERT_FALSE(replica.ok());
  EXPECT_EQ(replica.status().code(), StatusCode::kCorruption)
      << replica.status().ToString();
}

TEST(ReplicationTest, CorruptionDuringTailingIsStickyButReadsServe) {
  const TrustServiceConfig config = MakeConfig(1);
  const std::string dir = MakeTestDir("sticky_corrupt");
  RunScriptedLeader(config, dir, 3);

  ReplicaOptions replica_options;
  replica_options.directory = dir;
  auto replica = ReplicaService::Open(config, replica_options).value();
  const std::string state = StateOf(replica->shard_engine(0));

  // Garbage lands past the follower's offset, full-frame-sized so it
  // cannot be mistaken for a torn tail (its length field is absurd).
  AppendRaw(NewestSegment(dir, 0), std::string(64, '\xff'));
  const auto polled = replica->PollAll();
  ASSERT_FALSE(polled.ok());
  EXPECT_EQ(polled.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(replica->TailStatus().code(), StatusCode::kCorruption);
  // Sticky: the next poll refuses with the same corruption.
  EXPECT_EQ(replica->PollAll().status().code(), StatusCode::kCorruption);
  // But the last consistent state still serves.
  EXPECT_EQ(state, StateOf(replica->shard_engine(0)));
  EXPECT_TRUE(replica->PreEvaluate(1, 1001, 0).ok());
}

// ------------------------------------------- follower kill / restart --

TEST(ReplicationPropertyTest, FollowerKilledDuringCatchUpResumesExactly) {
  // Leader history with interior checkpoints; then followers that are
  // repeatedly "killed" (destroyed) at random points mid-catch-up. Every
  // reopen must land byte-identical to the full history — a frame
  // applied twice or skipped diverges the estimates and fails the
  // compare.
  const TrustServiceConfig config = MakeConfig(3);
  const std::string dir = MakeTestDir("kill_resume");
  TaskId task = trust::kNoTask;
  {
    auto leader = OpenLeader(config, dir, &task).value();
    for (std::uint64_t round = 0; round < 10; ++round) {
      ASSERT_TRUE(
          leader->BatchReportOutcome(MakeBatch(0, 40, task, round)).ok());
      if (round == 3 || round == 7) {
        ASSERT_TRUE(leader->Checkpoint().ok());
      }
    }
  }
  // Reference follower: one clean catch-up.
  ReplicaOptions reference_options;
  reference_options.directory = dir;
  auto reference = ReplicaService::Open(config, reference_options).value();
  ASSERT_TRUE(reference->PollAll().ok());

  Rng rng(7);
  for (int trial = 0; trial < 12; ++trial) {
    ReplicaOptions options;
    options.directory = dir;
    // Tiny poll budgets stop the follower at arbitrary frame positions.
    options.max_frames_per_poll =
        static_cast<std::size_t>(1 + rng.UniformInt(0, 6));
    std::unique_ptr<ReplicaService> follower;
    // Random number of partial polls, then the "kill" (destruction) —
    // a follower keeps no local durable state, so reopening restarts
    // from the leader's checkpoint and re-skips already-folded seqs.
    for (int lives = 0; lives < 3; ++lives) {
      auto opened = ReplicaService::Open(config, options);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      follower = std::move(opened).value();
      const int polls = static_cast<int>(rng.UniformInt(0, 4));
      for (int p = 0; p < polls; ++p) {
        ASSERT_TRUE(follower->PollAll().ok());
      }
      // Destructor mid-catch-up == kill.
      follower.reset();
    }
    options.max_frames_per_poll = 0;
    follower = ReplicaService::Open(config, options).value();
    for (;;) {
      const auto polled = follower->PollAll();
      ASSERT_TRUE(polled.ok());
      if (polled.value() == 0) break;
    }
    ExpectIdentical(*reference, *follower, config.shard_count,
                    "trial " + std::to_string(trial));
  }
}

// -------------------------------------------------------------- promote --

TEST(ReplicationTest, PromoteRefusedWhileLeaderAlive) {
  const std::string dir = MakeTestDir("promote_alive");
  const TrustServiceConfig config = MakeConfig(2);
  TaskId task = trust::kNoTask;
  auto leader = OpenLeader(config, dir, &task).value();

  ReplicaOptions replica_options;
  replica_options.directory = dir;
  auto replica = ReplicaService::Open(config, replica_options).value();
  PersistenceOptions promote_options;
  promote_options.directory = dir;
  const auto promoted = replica->Promote(promote_options);
  ASSERT_FALSE(promoted.ok());
  EXPECT_TRUE(promoted.status().IsFailedPrecondition())
      << promoted.status().ToString();
  // The refused promote changes nothing: the follower keeps tailing.
  ASSERT_TRUE(
      leader->BatchReportOutcome(MakeBatch(0, 20, task, 1)).ok());
  ASSERT_TRUE(
      replica->AwaitPositions(leader->WalPositions(), kAwaitTimeout).ok());
  ExpectIdentical(*leader, *replica, config.shard_count,
                  "after refused promote");
}

TEST(ReplicationTest, PromoteAfterLeaderKillLosesNoAcknowledgedWrite) {
  const std::string dir = MakeTestDir("promote_kill");
  const TrustServiceConfig config = MakeConfig(4);
  TaskId task = trust::kNoTask;

  std::vector<std::string> acknowledged_state;
  std::vector<ShardWalPosition> final_positions;
  {
    auto leader = OpenLeader(config, dir, &task).value();
    for (std::uint64_t round = 0; round < 8; ++round) {
      ASSERT_TRUE(
          leader->BatchReportOutcome(MakeBatch(0, 50, task, round)).ok());
      if (round == 5) {
        ASSERT_TRUE(leader->Checkpoint().ok());
      }
    }
    for (std::size_t s = 0; s < config.shard_count; ++s) {
      acknowledged_state.push_back(StateOf(leader->shard_engine(s)));
    }
    final_positions = leader->WalPositions();
    // Leader "killed" here: destructor releases the LOCK; every write
    // above was acknowledged, so all of them must survive failover.
  }

  ReplicaOptions replica_options;
  replica_options.directory = dir;
  auto replica = ReplicaService::Open(config, replica_options).value();
  ASSERT_TRUE(
      replica->AwaitPositions(final_positions, kAwaitTimeout).ok());

  PersistenceOptions promote_options;
  promote_options.directory = dir;
  auto promoted = replica->Promote(promote_options).value();

  // Zero acknowledged-write loss, and the promoted state equals both the
  // dead leader's last acknowledged state and what the replica tailed to
  // (end-to-end proof the tail replicated faithfully).
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    EXPECT_EQ(acknowledged_state[s], StateOf(promoted->shard_engine(s)))
        << "shard " << s << " lost acknowledged writes across failover";
  }

  // The old replica object stops serving (its engines would go stale)...
  EXPECT_TRUE(replica->PreEvaluate(1, 1001, task)
                  .status()
                  .IsFailedPrecondition());
  EXPECT_TRUE(replica->PollAll().status().IsFailedPrecondition());

  // ... and the promoted service is a fully writable leader.
  OutcomeReport report;
  report.trustor = 1;
  report.trustee = 1001;
  report.task = task;
  report.outcome = {true, 0.9, 0.0, 0.1};
  ASSERT_TRUE(promoted->ReportOutcome(report).ok());
  ASSERT_TRUE(promoted->RegisterTask("post_failover", {1}).ok());

  // A second-generation follower tails the promoted leader.
  auto follower2 = ReplicaService::Open(config, replica_options).value();
  ASSERT_TRUE(
      follower2->AwaitPositions(promoted->WalPositions(), kAwaitTimeout)
          .ok());
  ExpectIdentical(*promoted, *follower2, config.shard_count,
                  "second-generation follower");
}

TEST(ReplicationTest, PromoteDiscardsUnacknowledgedTornTail) {
  // The leader "dies mid-append": its WAL ends in a half frame. The
  // promoted service must come up on the acknowledged prefix.
  const TrustServiceConfig config = MakeConfig(1);
  const std::string dir = MakeTestDir("promote_torn");
  RunScriptedLeader(config, dir, 3);

  ReplicaOptions replica_options;
  replica_options.directory = dir;
  auto replica = ReplicaService::Open(config, replica_options).value();
  const std::string acknowledged = StateOf(replica->shard_engine(0));

  // Half a frame of plausible-looking bytes lands at the tail (a small
  // length prefix so it reads as a frame whose payload never arrived).
  AppendRaw(NewestSegment(dir, 0),
            std::string_view("\x40\x00\x00\x00\xde\xad\xbe\xef", 8));

  PersistenceOptions promote_options;
  promote_options.directory = dir;
  auto promoted = replica->Promote(promote_options).value();
  EXPECT_EQ(acknowledged, StateOf(promoted->shard_engine(0)));
  // Writable: the torn tail was truncated, so appends land cleanly.
  OutcomeReport report;
  report.trustor = 2;
  report.trustee = 1001;
  report.task = 0;
  report.outcome = {true, 0.8, 0.0, 0.1};
  EXPECT_TRUE(promoted->ReportOutcome(report).ok());
}

/// Positions compared field by field, so a mismatch names the shard.
void ExpectSamePositions(const std::vector<ShardWalPosition>& a,
                         const std::vector<ShardWalPosition>& b,
                         const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].shard, b[s].shard) << where;
    EXPECT_EQ(a[s].last_seq, b[s].last_seq) << where << ": shard " << s;
    EXPECT_EQ(a[s].wal_bytes, b[s].wal_bytes) << where << ": shard " << s;
  }
}

TEST(ReplicationTest, PromotedStateEqualsFreshRecovery) {
  // Promote adopts the replica's tailed engines and log positions
  // instead of recovering from disk. Recovery of a copy of the same dead
  // leader's directory is the reference: the engines, the WAL positions
  // AND the appends counted toward the next inline checkpoint must all
  // agree. The history covers what recovery squares up: a checkpoint
  // with a WAL tail past it, an admin write a crash left on shards 0-1
  // only, a torn final frame and a stale .tmp checkpoint.
  const TrustServiceConfig config = MakeConfig(4);
  const std::string dir = MakeTestDir("promote_fresh");
  const std::string copy = MakeTestDir("promote_fresh_copy");
  TaskId task = trust::kNoTask;
  {
    auto leader = OpenLeader(config, dir, &task).value();
    for (std::uint64_t round = 0; round < 6; ++round) {
      ASSERT_TRUE(
          leader->BatchReportOutcome(MakeBatch(0, 30, task, round)).ok());
      if (round == 2) {
        ASSERT_TRUE(leader->Checkpoint().ok());
      }
    }
  }
  {
    // The crash interrupts a registration after shard 1's append.
    PersistenceOptions crashing;
    crashing.directory = dir;
    crashing.fault_hook = [](PersistStage stage, std::size_t shard) {
      return stage == PersistStage::kWalBeforeAppend && shard == 2
                 ? Status::IoError("simulated crash")
                 : Status::OK();
    };
    auto leader = TrustService::Open(config, crashing).value();
    ASSERT_FALSE(leader->RegisterTask("half_replicated", {1}).ok());
  }
  AppendRaw(NewestSegment(dir, 3),
            std::string_view("\x40\x00\x00\x00\xde\xad\xbe\xef", 8));
  WriteRaw(ShardCheckpointPath(dir, 1) + ".tmp", "unfinished checkpoint");

  ReplicaOptions replica_options;
  replica_options.directory = dir;
  auto replica = ReplicaService::Open(config, replica_options).value();
  std::filesystem::copy(dir, copy,
                        std::filesystem::copy_options::recursive);

  // Fewer appends than this have accumulated on any shard since the
  // checkpoint, so driving this many appends per shard below fires each
  // shard's inline checkpoint on exactly one append — the same one on
  // both leaders only if they count the same appends_since_checkpoint.
  constexpr std::size_t kCheckpointEvery = 64;
  PersistenceOptions promote_options;
  promote_options.directory = dir;
  promote_options.checkpoint_every_appends = kCheckpointEvery;
  auto promoted = replica->Promote(promote_options).value();
  PersistenceOptions fresh_options = promote_options;
  fresh_options.directory = copy;
  auto fresh = TrustService::Open(config, fresh_options).value();

  ExpectIdentical(*fresh, *promoted, config.shard_count, "after promote");
  ExpectSamePositions(fresh->WalPositions(), promoted->WalPositions(),
                      "after promote");
  EXPECT_EQ(fresh->Stats().record_count, promoted->Stats().record_count);
  EXPECT_FALSE(FileExists(ShardCheckpointPath(dir, 1) + ".tmp"));
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    const std::vector<WalSegment> promoted_segments =
        ListWalSegments(dir, s).value();
    const std::vector<WalSegment> fresh_segments =
        ListWalSegments(copy, s).value();
    ASSERT_EQ(promoted_segments.size(), fresh_segments.size())
        << "shard " << s;
    for (std::size_t i = 0; i < fresh_segments.size(); ++i) {
      EXPECT_EQ(promoted_segments[i].first_seq, fresh_segments[i].first_seq)
          << "shard " << s;
      EXPECT_EQ(ReadAll(promoted_segments[i].path),
                ReadAll(fresh_segments[i].path))
          << "shard " << s << " segment " << fresh_segments[i].first_seq;
    }
  }
  // The reconciled registration validates on the promoted leader.
  const TaskId half = task + 1;
  EXPECT_TRUE(promoted->PreEvaluate(1, 1001, half).ok());

  std::vector<std::size_t> checkpoints_fired(config.shard_count, 0);
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    AgentId trustor = 0;
    while (promoted->ShardOf(trustor) != s) ++trustor;
    for (std::size_t i = 0; i < kCheckpointEvery; ++i) {
      OutcomeReport report = MakeBatch(trustor, 1, task, i).front();
      ASSERT_TRUE(fresh->ReportOutcome(report).ok());
      ASSERT_TRUE(promoted->ReportOutcome(report).ok());
      const auto positions = promoted->WalPositions();
      ExpectSamePositions(fresh->WalPositions(), positions,
                          "append " + std::to_string(i) + " to shard " +
                              std::to_string(s));
      if (positions[s].wal_bytes == 0) ++checkpoints_fired[s];
    }
    EXPECT_EQ(checkpoints_fired[s], 1u) << "shard " << s;
  }
  ExpectIdentical(*fresh, *promoted, config.shard_count, "after appends");

  // A restart of the promoted leader recovers exactly what it served.
  std::vector<std::string> served;
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    served.push_back(StateOf(promoted->shard_engine(s)));
  }
  const std::vector<ShardWalPosition> served_positions =
      promoted->WalPositions();
  promoted.reset();
  auto reopened = TrustService::Open(config, promote_options).value();
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    EXPECT_EQ(served[s], StateOf(reopened->shard_engine(s)))
        << "shard " << s;
  }
  ExpectSamePositions(served_positions, reopened->WalPositions(),
                      "after restart");
}

/// The 0-based index of the first of `count` single reports to
/// `service`'s shard 0 after which an inline checkpoint has run (its
/// open segment is empty again), or `count` when none ran.
std::size_t FirstCheckpointingAppend(TrustService& service, TaskId task,
                                     std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(service.ReportOutcome(MakeBatch(0, 1, task, i).front()).ok());
    if (service.WalPositions()[0].wal_bytes == 0) return i;
  }
  return count;
}

TEST(ReplicationTest, AdminWritesTakeTheAutoCheckpoint) {
  // Admin writes count toward checkpoint_every_appends like reports: the
  // one that brings the shards to the interval checkpoints each of them.
  // Recovery and Promote over the result equal an unpersisted reference.
  const TrustServiceConfig config = MakeConfig(4);
  const std::string dir = MakeTestDir("admin_checkpoint");
  const std::string copy = MakeTestDir("admin_checkpoint_copy");
  const auto admin_writes = [](TrustService& service) -> Status {
    SIOT_RETURN_IF_ERROR(service.RegisterTask("sense", {0, 1}).status());
    SIOT_RETURN_IF_ERROR(
        service.SetReverseThreshold(1001, trust::kNoTask, 0.7));
    return service.SetEnvironmentIndicator(2000, 0.9);
  };
  TrustService reference(config);
  ASSERT_TRUE(admin_writes(reference).ok());

  PersistenceOptions options;
  options.directory = dir;
  options.checkpoint_every_appends = 3;
  auto leader = TrustService::Open(config, options).value();
  ReplicaOptions replica_options;
  replica_options.directory = dir;
  auto replica = ReplicaService::Open(config, replica_options).value();
  ASSERT_TRUE(admin_writes(*leader).ok());
  for (const ShardWalPosition& position : leader->WalPositions()) {
    EXPECT_EQ(position.last_seq, 3u) << "shard " << position.shard;
    EXPECT_EQ(position.wal_bytes, 0u)
        << "shard " << position.shard << " did not checkpoint";
  }
  ExpectIdentical(reference, *leader, config.shard_count, "leader");
  // The checkpointer writes the files off the write path; closing the
  // leader drains it.
  leader.reset();
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    EXPECT_TRUE(FileExists(ShardCheckpointPath(dir, s))) << "shard " << s;
  }

  std::filesystem::copy(dir, copy, std::filesystem::copy_options::recursive);
  PersistenceOptions recover_options = options;
  recover_options.directory = copy;
  auto recovered = TrustService::Open(config, recover_options).value();
  ExpectIdentical(reference, *recovered, config.shard_count, "recovered");
  auto promoted = replica->Promote(options).value();
  ExpectIdentical(reference, *promoted, config.shard_count, "promoted");
}

TEST(ReplicationTest, InlineCheckpointKeepsScheduleAfterCrashAfterSeal) {
  // A checkpoint that crashes after its seal leaves the older checkpoint
  // on disk and a new, empty segment. The frames past that checkpoint
  // still count toward the next inline checkpoint, so it fires on
  // schedule after a restart, and after a promote whose follower tailed
  // across both seals without loading a checkpoint.
  const TrustServiceConfig config = MakeConfig(1);
  const std::string dir = MakeTestDir("seal_crash_count");
  const std::string copy = MakeTestDir("seal_crash_count_copy");
  auto crash = std::make_shared<std::atomic<bool>>(false);
  PersistenceOptions options;
  options.directory = dir;
  options.fault_hook = [crash](PersistStage stage, std::size_t) {
    return crash->load() && stage == PersistStage::kCheckpointAfterSeal
               ? Status::IoError("simulated crash")
               : Status::OK();
  };
  TaskId task = trust::kNoTask;
  {
    auto leader = TrustService::Open(config, options).value();
    ReplicaOptions replica_options;
    replica_options.directory = dir;
    auto replica = ReplicaService::Open(config, replica_options).value();
    task = leader->RegisterTask("sense", {0}).value();
    ASSERT_TRUE(leader->BatchReportOutcome(MakeBatch(0, 3, task, 0)).ok());
    ASSERT_TRUE(leader->Checkpoint().ok());  // At seq 4.
    ASSERT_TRUE(replica->PollAll().ok());
    ASSERT_TRUE(leader->BatchReportOutcome(MakeBatch(0, 3, task, 1)).ok());
    crash->store(true);
    ASSERT_FALSE(leader->Checkpoint().ok());  // Seals at seq 7, then dies.
    leader.reset();
    std::filesystem::copy(dir, copy,
                          std::filesystem::copy_options::recursive);

    // Seqs 5-7 lie past the checkpoint: with an interval of 5 the second
    // append from here checkpoints.
    PersistenceOptions resumed;
    resumed.directory = dir;
    resumed.checkpoint_every_appends = 5;
    auto promoted = replica->Promote(resumed).value();
    EXPECT_EQ(FirstCheckpointingAppend(*promoted, task, 5), 1u);
    resumed.directory = copy;
    auto recovered = TrustService::Open(config, resumed).value();
    EXPECT_EQ(FirstCheckpointingAppend(*recovered, task, 5), 1u);
    ExpectIdentical(*recovered, *promoted, 1, "after the appends");
  }
}

TEST(ReplicationTest, PromoteOverCorruptTailLeavesReplicaServing) {
  // A complete frame with garbage past the replica's offset and no newer
  // checkpoint to explain it: leader recovery would cut it off, but a
  // follower never applies past corruption, so the promote must fail —
  // and leave the replica serving its last consistent engines.
  const TrustServiceConfig config = MakeConfig(2);
  const std::string dir = MakeTestDir("promote_corrupt");
  RunScriptedLeader(config, dir, 3);
  ReplicaOptions replica_options;
  replica_options.directory = dir;
  auto replica = ReplicaService::Open(config, replica_options).value();
  std::vector<std::string> before;
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    before.push_back(StateOf(replica->shard_engine(s)));
  }
  const double tw = replica->PreEvaluate(1, 1001, 0).value();

  AppendRaw(NewestSegment(dir, 1), std::string(64, '\xff'));
  PersistenceOptions promote_options;
  promote_options.directory = dir;
  const auto promoted = replica->Promote(promote_options);
  ASSERT_FALSE(promoted.ok());
  EXPECT_EQ(promoted.status().code(), StatusCode::kCorruption)
      << promoted.status().ToString();

  for (std::size_t s = 0; s < config.shard_count; ++s) {
    EXPECT_EQ(before[s], StateOf(replica->shard_engine(s))) << "shard " << s;
  }
  EXPECT_EQ(tw, replica->PreEvaluate(1, 1001, 0).value());
}

TEST(ReplicationTest, PromoteFailingAfterFenceKeepsReplicaTailing) {
  // The promote gets past the fence and the final catch-up, then cannot
  // reopen shard 1's newest WAL segment for appends (a directory stands
  // at its path).
  // Nothing has moved yet, so the replica must keep its engines and keep
  // tailing a leader that comes back.
  const TrustServiceConfig config = MakeConfig(2);
  const std::string dir = MakeTestDir("promote_late_failure");
  RunScriptedLeader(config, dir, 3);
  ReplicaOptions replica_options;
  replica_options.directory = dir;
  auto replica = ReplicaService::Open(config, replica_options).value();
  std::vector<std::string> before;
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    before.push_back(StateOf(replica->shard_engine(s)));
  }

  const std::string wal = NewestSegment(dir, 1);
  std::filesystem::rename(wal, wal + ".aside");
  std::filesystem::create_directory(wal);
  PersistenceOptions promote_options;
  promote_options.directory = dir;
  const auto promoted = replica->Promote(promote_options);
  ASSERT_FALSE(promoted.ok());
  EXPECT_EQ(promoted.status().code(), StatusCode::kIoError)
      << promoted.status().ToString();
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    EXPECT_EQ(before[s], StateOf(replica->shard_engine(s))) << "shard " << s;
  }
  EXPECT_TRUE(replica->TailStatus().ok());

  // The failed promote released its fence: a leader can come back, and
  // the replica follows it.
  std::filesystem::remove(wal);
  std::filesystem::rename(wal + ".aside", wal);
  PersistenceOptions leader_options;
  leader_options.directory = dir;
  auto leader = TrustService::Open(config, leader_options).value();
  ASSERT_TRUE(leader->BatchReportOutcome(MakeBatch(0, 30, 0, 9)).ok());
  ASSERT_TRUE(
      replica->AwaitPositions(leader->WalPositions(), kAwaitTimeout).ok());
  ExpectIdentical(*leader, *replica, config.shard_count,
                  "after failed promote");
}

TEST(ReplicationTest, ReadsInFlightDuringPromoteFailClosed) {
  // A read that passes the replica's serving check just before Promote
  // hands the engines over reaches its shard lock after the hand-over.
  // It must answer from the caught-up engine or fail FailedPrecondition,
  // never reach an engine that lacks its task (that check aborts the
  // process). Batches span all 16 shards, so the hand-over regularly
  // lands mid-batch; a concurrent PollAll must not apply anything to the
  // emptied engines either.
  const TrustServiceConfig config = MakeConfig(16);
  constexpr AgentId kTrustors = 200;
  for (std::uint64_t round = 0; round < 8; ++round) {
    const std::string dir = MakeTestDir("promote_inflight");
    TaskId task = trust::kNoTask;
    std::vector<std::string> acknowledged;
    {
      auto leader = OpenLeader(config, dir, &task).value();
      ASSERT_TRUE(leader->BatchReportOutcome(MakeBatch(0, kTrustors, task,
                                                       round))
                      .ok());
      for (std::size_t s = 0; s < config.shard_count; ++s) {
        acknowledged.push_back(StateOf(leader->shard_engine(s)));
      }
    }
    ReplicaOptions replica_options;
    replica_options.directory = dir;
    auto replica = ReplicaService::Open(config, replica_options).value();

    std::vector<PreEvaluateRequest> queries;
    std::vector<DelegationServiceRequest> delegations;
    for (AgentId t = 0; t < kTrustors; ++t) {
      queries.push_back({t, 1000 + t % 7, task});
      delegations.push_back({t, task, {1000, 1001, 1002}, std::nullopt});
    }
    std::atomic<bool> stop{false};
    std::atomic<int> answered{0};
    std::atomic<int> unexpected{0};
    const auto tally = [&](const Status& status) {
      if (status.ok()) {
        answered.fetch_add(1);
      } else if (!status.IsFailedPrecondition()) {
        unexpected.fetch_add(1);
      }
    };
    std::vector<std::thread> readers;
    readers.emplace_back([&] {
      while (!stop.load()) tally(replica->BatchPreEvaluate(queries).status());
    });
    readers.emplace_back([&] {
      while (!stop.load()) {
        tally(replica->BatchRequestDelegation(delegations).status());
      }
    });
    readers.emplace_back([&] {
      for (AgentId t = 0; !stop.load(); t = (t + 1) % kTrustors) {
        tally(replica->PreEvaluate(t, 1001, task).status());
      }
    });
    readers.emplace_back([&] {
      while (!stop.load()) tally(replica->PollAll().status());
    });
    while (answered.load() < 8 && unexpected.load() == 0) {
      std::this_thread::yield();
    }

    PersistenceOptions promote_options;
    promote_options.directory = dir;
    auto promoted = replica->Promote(promote_options);
    stop.store(true);
    for (std::thread& reader : readers) reader.join();
    ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
    EXPECT_EQ(unexpected.load(), 0) << "round " << round;
    for (std::size_t s = 0; s < config.shard_count; ++s) {
      EXPECT_EQ(acknowledged[s], StateOf(promoted.value()->shard_engine(s)))
          << "round " << round << ", shard " << s;
    }
    EXPECT_TRUE(
        replica->BatchPreEvaluate(queries).status().IsFailedPrecondition());
  }
}

TEST(ReplicationTest, ParallelOpenReportsLowestCorruptShard) {
  // Shards 3 and 7 both hold a damaged checkpoint. Restore runs shards
  // concurrently, yet Open must name shard 3 every time, as a serial
  // restore in shard order would.
  const TrustServiceConfig config = MakeConfig(16);
  const std::string dir = MakeTestDir("parallel_corrupt");
  {
    TaskId task = trust::kNoTask;
    auto leader = OpenLeader(config, dir, &task).value();
    ASSERT_TRUE(
        leader->BatchReportOutcome(MakeBatch(0, 200, task, 1)).ok());
    ASSERT_TRUE(leader->Checkpoint().ok());
  }
  for (const std::size_t s : {3, 7}) {
    const std::string path = ShardCheckpointPath(dir, s);
    std::string bytes = ReadAll(path);
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
    WriteRaw(path, bytes);
  }
  ReplicaOptions replica_options;
  replica_options.directory = dir;
  for (int run = 0; run < 20; ++run) {
    const auto replica = ReplicaService::Open(config, replica_options);
    ASSERT_FALSE(replica.ok());
    EXPECT_EQ(replica.status().code(), StatusCode::kCorruption);
    EXPECT_NE(replica.status().message().find("shard-3.ckpt"),
              std::string::npos)
        << "run " << run << ": " << replica.status().ToString();
  }
}

// ------------------------------------------------------- misc surface --

// A follower has no mutation surface: none of the writable calls
// compiles on it. Each requirement holds for TrustService, so a false one
// on ReplicaService means the call is missing there, not that the
// expression is malformed.
template <typename Role>
constexpr bool kReportsOutcome =
    requires(Role& role, const OutcomeReport& report) {
      role.ReportOutcome(report);
    };
template <typename Role>
constexpr bool kReportsBatches =
    requires(Role& role, std::span<const OutcomeReport> reports) {
      role.BatchReportOutcome(reports);
    };
template <typename Role>
constexpr bool kRegistersTasks =
    requires(Role& role, const std::vector<trust::CharacteristicId>& ids) {
      role.RegisterTask("task", ids);
    };
template <typename Role>
constexpr bool kSetsThresholds = requires(Role& role) {
  role.SetReverseThreshold(AgentId{1}, trust::kNoTask, 0.5);
};
template <typename Role>
constexpr bool kSetsIndicators = requires(Role& role) {
  role.SetEnvironmentIndicator(AgentId{1}, 0.5);
};
static_assert(kReportsOutcome<TrustService> &&
              !kReportsOutcome<ReplicaService>);
static_assert(kReportsBatches<TrustService> &&
              !kReportsBatches<ReplicaService>);
static_assert(kRegistersTasks<TrustService> &&
              !kRegistersTasks<ReplicaService>);
static_assert(kSetsThresholds<TrustService> &&
              !kSetsThresholds<ReplicaService>);
static_assert(kSetsIndicators<TrustService> &&
              !kSetsIndicators<ReplicaService>);

TEST(ReplicationTest, OpenRefusesUninitializedOrMismatchedDirectory) {
  const std::string dir = MakeTestDir("bad_open");
  ReplicaOptions options;
  options.directory = dir;
  // No manifest: a replica never initializes a directory.
  EXPECT_TRUE(ReplicaService::Open(MakeConfig(2), options)
                  .status()
                  .IsFailedPrecondition());

  TaskId task = trust::kNoTask;
  auto leader = OpenLeader(MakeConfig(2), dir, &task).value();
  // Shard-count mismatch: replaying 2 shards' WALs into 3 shards would
  // route trustors to the wrong engines.
  EXPECT_TRUE(ReplicaService::Open(MakeConfig(3), options)
                  .status()
                  .IsInvalidArgument());
  TrustServiceConfig tweaked = MakeConfig(2);
  tweaked.engine.beta = trust::ForgettingFactors::Uniform(0.4);
  // Engine-config mismatch: replay would re-run Eqs. 14-18 with a
  // different forgetting factor and silently diverge.
  EXPECT_TRUE(ReplicaService::Open(tweaked, options)
                  .status()
                  .IsInvalidArgument());
}

TEST(ReplicationTest, OpenRejectsFenceForDifferentDirectory) {
  // A held fence only justifies skipping the LOCK acquire for the
  // directory it actually locks; anything else would admit two live
  // appenders to the unprotected directory.
  const std::string dir_a = MakeTestDir("fence_a");
  const std::string dir_b = MakeTestDir("fence_b");
  ASSERT_TRUE(CreateDirectories(dir_a).ok());
  DirectoryLock fence;
  ASSERT_TRUE(fence.Acquire(dir_a).ok());
  PersistenceOptions options;
  options.directory = dir_b;
  // Well-formed adoption inputs, so only the fence can be refused.
  const std::vector<ShardLogPosition> positions(2);
  const std::vector<TrustService::AdminState> admin(2);
  const auto opened = TrustService::OpenForAdoption(
      MakeConfig(2), options, std::move(fence), positions, admin);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsInvalidArgument())
      << opened.status().ToString();
}

TEST(ReplicationTest, ReplicationLagReportsCatchUpDistance) {
  const std::string dir = MakeTestDir("lag");
  const TrustServiceConfig config = MakeConfig(1);
  TaskId task = trust::kNoTask;
  auto leader = OpenLeader(config, dir, &task).value();
  ReplicaOptions replica_options;
  replica_options.directory = dir;
  auto replica = ReplicaService::Open(config, replica_options).value();
  ASSERT_TRUE(replica->PollAll().ok());

  ASSERT_TRUE(
      leader->BatchReportOutcome(MakeBatch(0, 32, task, 1)).ok());
  const std::vector<ShardReplicationLag> behind =
      replica->ReplicationLag();
  ASSERT_EQ(behind.size(), 1u);
  EXPECT_EQ(behind[0].seq_lag, 32u);
  EXPECT_GT(behind[0].byte_lag, 0u);
  EXPECT_EQ(behind[0].visible_seq, leader->WalPositions()[0].last_seq);

  ASSERT_TRUE(
      replica->AwaitPositions(leader->WalPositions(), kAwaitTimeout).ok());
  const std::vector<ShardReplicationLag> caught_up =
      replica->ReplicationLag();
  EXPECT_EQ(caught_up[0].seq_lag, 0u);
  EXPECT_EQ(caught_up[0].byte_lag, 0u);
  EXPECT_FALSE(caught_up[0].torn_tail);

  // A checkpoint between polls seals (and unlinks) the segment the
  // follower reads: the frames left in it and in its successor both
  // count.
  ASSERT_TRUE(
      leader->BatchReportOutcome(MakeBatch(0, 24, task, 2)).ok());
  ASSERT_TRUE(leader->Checkpoint().ok());
  ASSERT_TRUE(
      leader->BatchReportOutcome(MakeBatch(0, 16, task, 3)).ok());
  const std::vector<ShardReplicationLag> across =
      replica->ReplicationLag();
  EXPECT_EQ(across[0].applied_seq, caught_up[0].applied_seq);
  EXPECT_EQ(across[0].seq_lag, 40u);
  EXPECT_EQ(across[0].visible_seq, leader->WalPositions()[0].last_seq);
  EXPECT_GE(across[0].visible_seq, across[0].applied_seq);
  EXPECT_GT(across[0].byte_lag, 0u);
  ASSERT_TRUE(
      replica->AwaitPositions(leader->WalPositions(), kAwaitTimeout).ok());
  const std::vector<ShardReplicationLag> after = replica->ReplicationLag();
  EXPECT_EQ(after[0].seq_lag, 0u);
  EXPECT_EQ(after[0].byte_lag, 0u);
  EXPECT_EQ(after[0].visible_seq, after[0].applied_seq);
  EXPECT_EQ(after[0].wal_bytes, leader->WalPositions()[0].wal_bytes);
}

// ------------------------------------------ one read surface, two roles --

/// Issues every read kind with an unregistered task to `role` and
/// expects InvalidArgument with the accepted-read counters unchanged.
template <typename Role>
void ExpectRejectedReadsUncounted(const Role& role, TaskId valid,
                                  TaskId unknown, const std::string& who) {
  const TrustServiceStats before = role.Stats();
  EXPECT_TRUE(role.PreEvaluate(1, 1001, unknown).status().IsInvalidArgument())
      << who;
  DelegationServiceRequest request;
  request.trustor = 1;
  request.task = unknown;
  request.candidates = {1001, 1002};
  EXPECT_TRUE(role.RequestDelegation(request).status().IsInvalidArgument())
      << who;
  // Batches whose LAST element is bad are rejected whole.
  const std::vector<PreEvaluateRequest> pre = {{1, 1001, valid},
                                               {2, 1002, unknown}};
  EXPECT_TRUE(role.BatchPreEvaluate(pre).status().IsInvalidArgument())
      << who;
  DelegationServiceRequest good = request;
  good.task = valid;
  const std::vector<DelegationServiceRequest> delegations = {good, request};
  EXPECT_TRUE(
      role.BatchRequestDelegation(delegations).status().IsInvalidArgument())
      << who;
  const TrustServiceStats after = role.Stats();
  EXPECT_EQ(after.pre_evaluations, before.pre_evaluations) << who;
  EXPECT_EQ(after.delegation_requests, before.delegation_requests) << who;
}

TEST(ReplicationTest, RejectedReadsAreNotCountedOnEitherRole) {
  const std::string dir = MakeTestDir("rejected_reads");
  const TrustServiceConfig config = MakeConfig(4);
  TaskId task = trust::kNoTask;
  auto leader = OpenLeader(config, dir, &task).value();
  ReplicaOptions replica_options;
  replica_options.directory = dir;
  auto replica = ReplicaService::Open(config, replica_options).value();
  ASSERT_TRUE(
      replica->AwaitPositions(leader->WalPositions(), kAwaitTimeout).ok());

  ExpectRejectedReadsUncounted(*leader, task, task + 1, "leader");
  ExpectRejectedReadsUncounted(*replica, task, task + 1, "follower");
  // Accepted reads are counted the same way on both roles.
  ASSERT_TRUE(leader->PreEvaluate(1, 1001, task).ok());
  ASSERT_TRUE(replica->PreEvaluate(1, 1001, task).ok());
  EXPECT_EQ(leader->Stats().pre_evaluations, 1u);
  EXPECT_EQ(replica->Stats().pre_evaluations, 1u);
}

TEST(ReplicationTest, FollowerBatchReadsMatchLeader) {
  const std::string dir = MakeTestDir("batch_reads");
  const TrustServiceConfig config = MakeConfig(4);
  TaskId task = trust::kNoTask;
  auto leader = OpenLeader(config, dir, &task).value();
  ReplicaOptions replica_options;
  replica_options.directory = dir;
  auto replica = ReplicaService::Open(config, replica_options).value();
  for (std::uint64_t round = 0; round < 6; ++round) {
    ASSERT_TRUE(
        leader->BatchReportOutcome(MakeBatch(0, 40, task, round)).ok());
  }
  ASSERT_TRUE(
      replica->AwaitPositions(leader->WalPositions(), kAwaitTimeout).ok());

  std::vector<PreEvaluateRequest> pre;
  std::vector<DelegationServiceRequest> delegations;
  for (AgentId t = 0; t < 40; ++t) {
    pre.push_back({t, static_cast<AgentId>(1000 + t % 7), task});
    DelegationServiceRequest request;
    request.trustor = t;
    request.task = task;
    request.candidates = {1000, 1001, 1002, 1003};
    if (t % 3 == 0) request.self_estimates = trust::OutcomeEstimates{};
    delegations.push_back(request);
  }
  const auto leader_pre = leader->BatchPreEvaluate(pre);
  const auto replica_pre = replica->BatchPreEvaluate(pre);
  ASSERT_TRUE(leader_pre.ok());
  ASSERT_TRUE(replica_pre.ok());
  EXPECT_EQ(leader_pre.value(), replica_pre.value());
  const auto leader_rank = leader->BatchRequestDelegation(delegations);
  const auto replica_rank = replica->BatchRequestDelegation(delegations);
  ASSERT_TRUE(leader_rank.ok());
  ASSERT_TRUE(replica_rank.ok());
  ASSERT_EQ(leader_rank.value().size(), delegations.size());
  ASSERT_EQ(replica_rank.value().size(), delegations.size());
  for (std::size_t i = 0; i < delegations.size(); ++i) {
    const trust::DelegationRequestResult& a = leader_rank.value()[i];
    const trust::DelegationRequestResult& b = replica_rank.value()[i];
    EXPECT_EQ(a.trustee, b.trustee) << "request " << i;
    EXPECT_EQ(a.no_candidates, b.no_candidates) << "request " << i;
    EXPECT_EQ(a.unavailable, b.unavailable) << "request " << i;
    EXPECT_EQ(a.self_execution, b.self_execution) << "request " << i;
    EXPECT_EQ(a.trustworthiness, b.trustworthiness) << "request " << i;
    EXPECT_EQ(a.expected_profit, b.expected_profit) << "request " << i;
    EXPECT_EQ(a.refusals, b.refusals) << "request " << i;
    // The batch answers exactly like the single-request path.
    const auto single = replica->RequestDelegation(delegations[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(single.value().trustee, b.trustee) << "request " << i;
  }

  // A batch whose last request names an unregistered task is rejected
  // whole by both roles.
  pre.back().task = task + 1;
  delegations.back().task = task + 1;
  EXPECT_TRUE(leader->BatchPreEvaluate(pre).status().IsInvalidArgument());
  EXPECT_TRUE(replica->BatchPreEvaluate(pre).status().IsInvalidArgument());
  EXPECT_TRUE(leader->BatchRequestDelegation(delegations)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(replica->BatchRequestDelegation(delegations)
                  .status()
                  .IsInvalidArgument());
}

TEST(ReplicationTest, AwaitedRegistrationIsServedAtOnceWithBackgroundPoll) {
  const std::string dir = MakeTestDir("awaited_registration");
  const TrustServiceConfig config = MakeConfig(8);
  TaskId task = trust::kNoTask;
  auto leader = OpenLeader(config, dir, &task).value();
  ReplicaOptions replica_options;
  replica_options.directory = dir;
  replica_options.poll_period = std::chrono::milliseconds(1);
  auto replica = ReplicaService::Open(config, replica_options).value();
  for (int round = 0; round < 20; ++round) {
    const auto added =
        leader->RegisterTask("task_" + std::to_string(round), {1});
    ASSERT_TRUE(added.ok());
    ASSERT_TRUE(
        replica->AwaitPositions(leader->WalPositions(), kAwaitTimeout).ok());
    // Every trustor lands on some shard; all of them must accept the
    // task the moment AwaitPositions returned.
    std::vector<PreEvaluateRequest> batch;
    for (AgentId t = 0; t < 32; ++t) {
      ASSERT_TRUE(replica->PreEvaluate(t, 1001, added.value()).ok())
          << "round " << round << " trustor " << t;
      batch.push_back({t, 1001, added.value()});
    }
    ASSERT_TRUE(replica->BatchPreEvaluate(batch).ok()) << "round " << round;
  }
  EXPECT_TRUE(replica->TailStatus().ok());
}

// A follower can poll in the window between the leader's checkpoint
// rename and its unlink of the sealed segment, and the new segment then
// grows past the sealed one's size before the next poll. The follower
// must read the new segment from its start, never at its offset in the
// sealed one.
TEST(ReplicationTest, CheckpointLoadedBeforeItsTruncationIsNotCorruption) {
  const std::string dir = MakeTestDir("ckpt_before_truncate");
  const TrustServiceConfig config = MakeConfig(1);
  ReplicaOptions replica_options;
  replica_options.directory = dir;
  std::unique_ptr<ReplicaService> replica;
  bool polled_in_window = false;
  PersistenceOptions options;
  options.directory = dir;
  options.fault_hook = [&](PersistStage stage, std::size_t) {
    if (stage == PersistStage::kCheckpointBeforeUnlink &&
        replica != nullptr && !polled_in_window) {
      polled_in_window = true;
      EXPECT_TRUE(replica->PollAll().ok());
    }
    return Status::OK();
  };
  auto leader = TrustService::Open(config, options).value();
  const TaskId task = leader->RegisterTask("sense", {0, 1}).value();
  ASSERT_TRUE(leader->BatchReportOutcome(MakeBatch(0, 40, task, 0)).ok());
  replica = ReplicaService::Open(config, replica_options).value();
  const std::uintmax_t old_wal_bytes =
      std::filesystem::file_size(NewestSegment(dir, 0));

  ASSERT_TRUE(leader->Checkpoint().ok());
  ASSERT_TRUE(polled_in_window);
  for (std::uint64_t round = 1;
       std::filesystem::file_size(NewestSegment(dir, 0)) <= old_wal_bytes;
       ++round) {
    ASSERT_TRUE(
        leader->BatchReportOutcome(MakeBatch(0, 40, task, round)).ok());
  }
  ASSERT_TRUE(
      replica->AwaitPositions(leader->WalPositions(), kAwaitTimeout).ok());
  EXPECT_TRUE(replica->TailStatus().ok());
  ExpectIdentical(*leader, *replica, config.shard_count,
                  "after the new segment outgrew the sealed one");

  replica.reset();
  leader.reset();
  std::filesystem::remove_all(dir);
}

TEST(ReplicationTest, FollowerTwoCheckpointsBehindCatchesUp) {
  // Between two polls the leader checkpoints twice: the segment the
  // follower reads and its successor are both unlinked. The follower
  // finishes the first through its open descriptor, finds no segment
  // named for its next seq, and jumps through the newest checkpoint.
  const std::string dir = MakeTestDir("two_behind");
  const TrustServiceConfig config = MakeConfig(2);
  TaskId task = trust::kNoTask;
  auto leader = OpenLeader(config, dir, &task).value();
  ReplicaOptions replica_options;
  replica_options.directory = dir;
  auto replica = ReplicaService::Open(config, replica_options).value();
  ASSERT_TRUE(leader->BatchReportOutcome(MakeBatch(0, 30, task, 0)).ok());
  ASSERT_TRUE(
      replica->AwaitPositions(leader->WalPositions(), kAwaitTimeout).ok());

  ASSERT_TRUE(leader->BatchReportOutcome(MakeBatch(0, 30, task, 1)).ok());
  ASSERT_TRUE(leader->Checkpoint().ok());
  ASSERT_TRUE(leader->BatchReportOutcome(MakeBatch(0, 30, task, 2)).ok());
  ASSERT_TRUE(leader->Checkpoint().ok());
  ASSERT_TRUE(leader->BatchReportOutcome(MakeBatch(0, 30, task, 3)).ok());
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    // Only the segment the second checkpoint opened is left.
    const std::vector<WalSegment> segments =
        ListWalSegments(dir, s).value();
    ASSERT_EQ(segments.size(), 1u) << "shard " << s;
    EXPECT_GT(segments[0].first_seq, 1u) << "shard " << s;
  }

  ASSERT_TRUE(
      replica->AwaitPositions(leader->WalPositions(), kAwaitTimeout).ok());
  EXPECT_TRUE(replica->TailStatus().ok());
  ExpectIdentical(*leader, *replica, config.shard_count,
                  "after two checkpoints between polls");
}

TEST(ReplicationTest, FollowerCrossesLegacyWalIntoFirstSegment) {
  // A directory written before segments holds one shard-<k>.wal. The
  // leader keeps appending to it, and its first checkpoint seals it into
  // shard-<k>.<S+1>.wal; a follower tailing the legacy file across that
  // checkpoint stays byte-identical.
  const std::string dir = MakeTestDir("legacy_wal");
  const TrustServiceConfig config = MakeConfig(2);
  RunScriptedLeader(config, dir, 3);
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    // The log a pre-segment service leaves: the same frames under the
    // single-file name.
    std::filesystem::rename(NewestSegment(dir, s), ShardWalPath(dir, s));
  }
  PersistenceOptions options;
  options.directory = dir;
  auto leader = TrustService::Open(config, options).value();
  ReplicaOptions replica_options;
  replica_options.directory = dir;
  auto replica = ReplicaService::Open(config, replica_options).value();
  ASSERT_TRUE(leader->BatchReportOutcome(MakeBatch(0, 30, 0, 7)).ok());
  ASSERT_TRUE(
      replica->AwaitPositions(leader->WalPositions(), kAwaitTimeout).ok());
  ExpectIdentical(*leader, *replica, config.shard_count,
                  "appended to the legacy WAL");

  const std::vector<ShardWalPosition> sealed = leader->WalPositions();
  ASSERT_TRUE(leader->Checkpoint().ok());
  ASSERT_TRUE(leader->BatchReportOutcome(MakeBatch(0, 30, 0, 8)).ok());
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    EXPECT_FALSE(FileExists(ShardWalPath(dir, s))) << "shard " << s;
    EXPECT_EQ(NewestSegment(dir, s),
              ShardSegmentPath(dir, s, sealed[s].last_seq + 1));
  }
  ASSERT_TRUE(
      replica->AwaitPositions(leader->WalPositions(), kAwaitTimeout).ok());
  EXPECT_TRUE(replica->TailStatus().ok());
  ExpectIdentical(*leader, *replica, config.shard_count,
                  "across the first checkpoint");
}

}  // namespace
}  // namespace siot::service
