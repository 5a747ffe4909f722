// Copyright 2026 The siot-trust Authors.
// Mixed-version recovery matrix for the WAL format change: a directory
// written by the v1 (text-payload) service must recover byte-identically
// under the binary-codec service with NO migration step, and a WAL whose
// prefix is text and whose tail is binary must replay cleanly — on the
// leader, through the kill-point fault harness, and on a tailing
// follower.
//
// The v1 directories are built the way the old service built them:
// manifest + the exported v1 text encoders logged op by op to one
// legacy shard-<k>.wal per shard (optionally checkpointing midway), so
// the bytes on disk are exactly what a pre-binary deployment leaves
// behind.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/file_util.h"
#include "service/persistence.h"
#include "service/replication.h"
#include "service/trust_service.h"
#include "service/wal_codec.h"
#include "tests/test_dir.h"
#include "trust/trust_engine.h"
#include "trust/trust_store_io.h"

namespace siot::service {
namespace {

using trust::AgentId;
using trust::TaskId;

// The frame header layout ([u32 len][u32 crc][u64 seq]) is stable across
// payload format versions; the classification test builds frames by hand.
constexpr std::size_t kFrameHeaderBytes = 16;

TrustServiceConfig MakeConfig(std::size_t shards) {
  TrustServiceConfig config;
  config.shard_count = shards;
  config.engine.beta = trust::ForgettingFactors::Uniform(0.2);
  config.engine.initial_estimates = {0.5, 0.5, 0.5, 0.5};
  return config;
}

template <typename Service>
std::vector<std::string> ShardStates(const Service& service) {
  std::vector<std::string> states;
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    states.push_back(
        trust::SerializeTrustEngineState(service.shard_engine(s)));
  }
  return states;
}

std::string ReadAll(const std::string& path) {
  return ReadFileToString(path).value();
}

void WriteRaw(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

void AppendRaw(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// --------------------------------------------------------- op script --

/// Deterministic outcome i of the script. Doubles are picked to need
/// every bit (1/32 steps and an irrational-ish damage) so "byte-identical
/// recovery" actually tests the codec's round trip, not round numbers.
OutcomeReport CompatReport(int i, TaskId task) {
  OutcomeReport report;
  report.trustor = static_cast<AgentId>(17 * i % 101);
  report.trustee = 1000 + static_cast<AgentId>(i % 7);
  report.task = task;
  report.outcome.success = i % 3 != 0;
  report.outcome.gain = 0.5 + 0.03125 * static_cast<double>(i % 11);
  report.outcome.damage = report.outcome.success ? 0.0 : 0.1 * i;
  report.outcome.cost = 0.125;
  report.trustor_was_abusive = i % 5 == 0;
  if (i % 4 == 0) {
    report.intermediates = {2000 + static_cast<AgentId>(i % 3)};
  }
  return report;
}

std::string V1OutcomePayload(const OutcomeReport& report) {
  return EncodeOutcomeOp(report.trustor, report.trustee, report.task,
                         report.outcome, report.trustor_was_abusive,
                         report.intermediates);
}

/// Builds a persistence directory the way the PRE-BINARY service did:
/// manifest, then v1 text payloads logged op by op (admin ops to every
/// shard, outcomes routed by ShardIndexForTrustor), checkpointing every
/// shard after `checkpoint_after` outcomes (0 = never), with the frames
/// past the checkpoint in one legacy shard-<k>.wal per shard. Writes
/// outcomes [0, outcomes) of the script on top of the standard admin
/// prologue.
void BuildV1Directory(const TrustServiceConfig& config,
                      const std::string& dir, int outcomes,
                      int checkpoint_after) {
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  ASSERT_TRUE(WriteFileAtomic(ManifestPath(dir),
                              BuildServiceManifest(config.shard_count,
                                                   config))
                  .ok());
  struct LegacyShard {
    std::unique_ptr<trust::TrustEngine> engine;
    std::uint64_t last_seq = 0;
    std::vector<std::string> tail;  // Payloads past the checkpoint.
  };
  std::vector<LegacyShard> shards(config.shard_count);
  for (LegacyShard& shard : shards) {
    shard.engine = std::make_unique<trust::TrustEngine>(config.engine);
  }
  const auto log = [&](std::size_t s, const std::string& payload) {
    ASSERT_TRUE(ApplyWalOp(payload, shards[s].engine.get()).ok());
    ++shards[s].last_seq;
    shards[s].tail.push_back(payload);
  };
  for (const std::string& payload :
       {EncodeTaskOp("sense", {0, 1}), EncodeThetaOp(1001, trust::kNoTask, 0.7),
        EncodeEnvOp(2000, 0.9)}) {
    for (std::size_t s = 0; s < shards.size(); ++s) log(s, payload);
  }
  for (int i = 0; i < outcomes; ++i) {
    const OutcomeReport report = CompatReport(i, 0);
    log(ShardIndexForTrustor(report.trustor, config.shard_count),
        V1OutcomePayload(report));
    if (checkpoint_after > 0 && i + 1 == checkpoint_after) {
      // Pre-binary deployments only knew the text checkpoint encoding;
      // checkpointing emptied the WAL.
      for (std::size_t c = 0; c < shards.size(); ++c) {
        ASSERT_TRUE(WriteFileAtomic(ShardCheckpointPath(dir, c),
                                    EncodeCheckpointText(shards[c].last_seq,
                                                         *shards[c].engine))
                        .ok());
        shards[c].tail.clear();
      }
    }
  }
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const LegacyShard& shard = shards[s];
    WalWriter wal;
    ASSERT_TRUE(wal.Open(ShardWalPath(dir, s), 0).ok());
    ASSERT_TRUE(wal.Append(shard.tail, shard.last_seq - shard.tail.size() + 1,
                           /*sync=*/false, {}, s)
                    .ok());
  }
}

/// Unpersisted single-threaded reference run of the same script: the
/// admin prologue plus outcomes [0, outcomes).
std::unique_ptr<TrustService> ReferenceService(
    const TrustServiceConfig& config, int outcomes) {
  auto reference = std::make_unique<TrustService>(config);
  EXPECT_EQ(reference->RegisterTask("sense", {0, 1}).value(), 0u);
  EXPECT_TRUE(
      reference->SetReverseThreshold(1001, trust::kNoTask, 0.7).ok());
  EXPECT_TRUE(reference->SetEnvironmentIndicator(2000, 0.9).ok());
  for (int i = 0; i < outcomes; ++i) {
    EXPECT_TRUE(reference->ReportOutcome(CompatReport(i, 0)).ok());
  }
  return reference;
}

// ------------------------------------------------- leader recovery --

TEST(WalFormatCompatTest, PureV1DirectoryRecoversByteIdentically) {
  // The no-migration guarantee: a directory whose every WAL payload is
  // v1 text — with and without a checkpoint in the middle — opens under
  // the binary-codec service to the exact bytes a reference replay
  // produces.
  const TrustServiceConfig config = MakeConfig(4);
  const auto reference = ReferenceService(config, 40);
  for (const int checkpoint_after : {0, 24}) {
    const std::string dir = MakeTestDir(
        checkpoint_after == 0 ? "pure_v1_wal" : "pure_v1_ckpt");
    BuildV1Directory(config, dir, 40, checkpoint_after);
    PersistenceOptions options;
    options.directory = dir;
    auto service = std::move(TrustService::Open(config, options)).value();
    EXPECT_EQ(ShardStates(*service), ShardStates(*reference))
        << "checkpoint_after=" << checkpoint_after;
    service.reset();
    std::filesystem::remove_all(dir);
  }
}

TEST(WalFormatCompatTest, MixedTextThenBinaryWalMatchesPureBinary) {
  // A v1 deployment upgraded in place: the WAL's prefix is text, the
  // tail (written by the reopened service) is binary. The mixed
  // directory, a pure-binary fresh directory, and the unpersisted
  // reference must all land on identical bytes.
  const TrustServiceConfig config = MakeConfig(4);
  const std::string mixed_dir = MakeTestDir("mixed");
  BuildV1Directory(config, mixed_dir, 24, 0);

  PersistenceOptions options;
  options.directory = mixed_dir;
  {
    // The "upgrade": the binary-codec service opens the v1 directory and
    // keeps appending — binary frames after text frames in one WAL.
    auto service = std::move(TrustService::Open(config, options)).value();
    for (int i = 24; i < 40; ++i) {
      ASSERT_TRUE(service->ReportOutcome(CompatReport(i, 0)).ok());
    }
    ASSERT_TRUE(service->SetEnvironmentIndicator(2000, 0.4).ok());
  }

  // The WAL really is mixed-format (otherwise this test proves nothing):
  // every shard holds at least one text payload before its first binary
  // payload.
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    const WalContents wal =
        ReadWal(ShardWalPath(mixed_dir, s)).value();
    ASSERT_EQ(wal.tail, WalTailKind::kClean);
    bool saw_binary = false;
    std::size_t text = 0, binary = 0;
    for (const WalEntry& entry : wal.entries) {
      const std::uint8_t format = WalPayloadFormat(entry.payload);
      if (format == kWalFormatBinary) {
        saw_binary = true;
        ++binary;
      } else {
        ASSERT_EQ(format, kWalFormatText);
        ASSERT_FALSE(saw_binary)
            << "text frame after a binary frame in shard " << s;
        ++text;
      }
    }
    EXPECT_GT(text, 0u) << "shard " << s;
    EXPECT_GT(binary, 0u) << "shard " << s;
  }

  auto reference = ReferenceService(config, 40);
  ASSERT_TRUE(reference->SetEnvironmentIndicator(2000, 0.4).ok());

  const std::string binary_dir = MakeTestDir("pure_binary");
  PersistenceOptions binary_options;
  binary_options.directory = binary_dir;
  auto pure_binary =
      std::move(TrustService::Open(config, binary_options)).value();
  ASSERT_EQ(pure_binary->RegisterTask("sense", {0, 1}).value(), 0u);
  ASSERT_TRUE(
      pure_binary->SetReverseThreshold(1001, trust::kNoTask, 0.7).ok());
  ASSERT_TRUE(pure_binary->SetEnvironmentIndicator(2000, 0.9).ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(pure_binary->ReportOutcome(CompatReport(i, 0)).ok());
  }
  ASSERT_TRUE(pure_binary->SetEnvironmentIndicator(2000, 0.4).ok());

  auto reopened = std::move(TrustService::Open(config, options)).value();
  EXPECT_EQ(ShardStates(*reopened), ShardStates(*reference));
  EXPECT_EQ(ShardStates(*pure_binary), ShardStates(*reference));

  reopened.reset();
  pure_binary.reset();
  std::filesystem::remove_all(mixed_dir);
  std::filesystem::remove_all(binary_dir);
}

// ------------------------------------------------- fault injection --

struct FaultPlan {
  PersistStage stage = PersistStage::kWalBeforeAppend;
  std::atomic<bool> armed{false};
  std::atomic<int> fail_at{-1};
  std::atomic<int> seen{0};
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

TEST(WalFormatCompatTest, KillPointsOverAV1PrefixRecoverExactly) {
  // The existing kill-point harness, re-aimed at the upgrade moment:
  // binary appends crashing at every WAL stage ON TOP OF a v1 text
  // prefix. The durable prefix after each crash is exact — ops before
  // the crash point, plus the crashing op iff it failed after the append
  // (kWalAfterAppend fires once the bytes are down).
  const TrustServiceConfig config = MakeConfig(2);
  for (const PersistStage stage :
       {PersistStage::kWalBeforeAppend, PersistStage::kWalMidAppend,
        PersistStage::kWalAfterAppend}) {
    for (int fail_at = 0; fail_at < 3; ++fail_at) {
      const std::string dir = MakeTestDir("kill");
      BuildV1Directory(config, dir, 8, 0);

      auto plan = std::make_shared<FaultPlan>();
      plan->stage = stage;
      plan->fail_at = fail_at;
      PersistenceOptions options;
      options.directory = dir;
      options.fault_hook = MakeHook(plan);
      auto service =
          std::move(TrustService::Open(config, options)).value();
      plan->armed = true;
      int submitted = 0;
      Status failure = Status::OK();
      for (int i = 8; i < 16; ++i) {
        failure = service->ReportOutcome(CompatReport(i, 0));
        if (!failure.ok()) break;
        ++submitted;
      }
      ASSERT_FALSE(failure.ok()) << "the armed fault never fired";
      ASSERT_EQ(submitted, fail_at);
      service.reset();

      const bool crashed_op_survives =
          stage == PersistStage::kWalAfterAppend;
      const int durable = 8 + fail_at + (crashed_op_survives ? 1 : 0);
      const auto reference = ReferenceService(config, durable);
      PersistenceOptions clean;
      clean.directory = dir;
      auto recovered =
          std::move(TrustService::Open(config, clean)).value();
      EXPECT_EQ(ShardStates(*recovered), ShardStates(*reference))
          << "stage " << static_cast<int>(stage) << " fail_at "
          << fail_at;
      recovered.reset();
      std::filesystem::remove_all(dir);
    }
  }
}

// ------------------------------------------- tail classification --

TEST(WalFormatCompatTest, MixedWalTailClassificationIsExact) {
  // The scan rules the leader and the tailing follower share, exercised
  // on a WAL holding both formats: a frame-boundary cut is clean, a
  // mid-frame cut is torn (retryable), a payload bit flip is a CRC
  // corruption, and a valid-CRC frame whose payload opens with a byte no
  // codec version ever wrote is corruption too (caught by the version
  // dispatch BEFORE the checksum).
  const TrustServiceConfig config = MakeConfig(1);
  const std::string dir = MakeTestDir("classify");
  BuildV1Directory(config, dir, 6, 0);
  PersistenceOptions options;
  options.directory = dir;
  {
    auto service = std::move(TrustService::Open(config, options)).value();
    for (int i = 6; i < 12; ++i) {
      ASSERT_TRUE(service->ReportOutcome(CompatReport(i, 0)).ok());
    }
  }
  const std::string wal_path = ShardWalPath(dir, 0);
  const std::string bytes = ReadAll(wal_path);
  const WalContents clean = ReadWal(wal_path).value();
  ASSERT_EQ(clean.tail, WalTailKind::kClean);
  // 3 admin + 12 outcomes on the single shard.
  ASSERT_EQ(clean.entries.size(), 15u);
  const std::size_t last_frame =
      kFrameHeaderBytes + clean.entries.back().payload.size();

  // Mid-frame cut: torn, valid prefix = everything but the last frame.
  const std::string scratch = dir + "/scratch.wal";
  WriteRaw(scratch, std::string_view(bytes).substr(
                        0, bytes.size() - last_frame + 7));
  WalContents scanned = ReadWal(scratch).value();
  EXPECT_EQ(scanned.tail, WalTailKind::kTorn);
  EXPECT_EQ(scanned.entries.size(), 14u);
  EXPECT_EQ(scanned.valid_bytes, bytes.size() - last_frame);

  // Payload bit flip in the (binary) last frame: CRC corruption.
  std::string flipped = bytes;
  flipped[bytes.size() - last_frame + kFrameHeaderBytes + 3] ^= 0x20;
  WriteRaw(scratch, flipped);
  scanned = ReadWal(scratch).value();
  EXPECT_EQ(scanned.tail, WalTailKind::kCorrupt);
  EXPECT_NE(scanned.tail_error.find("CRC mismatch"), std::string::npos)
      << scanned.tail_error;
  EXPECT_EQ(scanned.entries.size(), 14u);

  // A complete frame with a VALID CRC whose payload starts with a byte
  // neither format ever wrote: rejected by the format dispatch.
  const std::string payload = "\xEE future-format frame";
  std::string frame;
  std::string seq_bytes;
  for (int b = 0; b < 8; ++b) {
    seq_bytes.push_back(static_cast<char>(
        ((clean.entries.back().seq + 1) >> (8 * b)) & 0xFF));
  }
  const std::uint32_t crc =
      Crc32cMask(Crc32c(payload, Crc32c(seq_bytes)));
  for (int b = 0; b < 4; ++b) {
    frame.push_back(
        static_cast<char>((payload.size() >> (8 * b)) & 0xFF));
  }
  for (int b = 0; b < 4; ++b) {
    frame.push_back(static_cast<char>((crc >> (8 * b)) & 0xFF));
  }
  frame += seq_bytes;
  frame += payload;
  WriteRaw(scratch, bytes);
  AppendRaw(scratch, frame);
  scanned = ReadWal(scratch).value();
  EXPECT_EQ(scanned.tail, WalTailKind::kCorrupt);
  EXPECT_NE(scanned.tail_error.find("unknown payload format byte 0xee"),
            std::string::npos)
      << scanned.tail_error;
  EXPECT_EQ(scanned.entries.size(), 15u);
  EXPECT_EQ(scanned.valid_bytes, bytes.size());
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------- follower --

TEST(WalFormatCompatTest, FollowerTailsMixedWalToByteIdenticalState) {
  // The replication acceptance criterion: a follower tails a WAL whose
  // prefix is v1 text and whose tail is binary into byte-identical
  // state, then classifies tail damage the same way the leader would —
  // torn waits, corruption poisons while reads keep serving.
  const TrustServiceConfig config = MakeConfig(3);
  const std::string dir = MakeTestDir("follower");
  BuildV1Directory(config, dir, 24, 0);
  PersistenceOptions options;
  options.directory = dir;
  {
    auto leader = std::move(TrustService::Open(config, options)).value();
    for (int i = 24; i < 40; ++i) {
      ASSERT_TRUE(leader->ReportOutcome(CompatReport(i, 0)).ok());
    }
  }

  ReplicaOptions replica_options;
  replica_options.directory = dir;
  auto replica =
      std::move(ReplicaService::Open(config, replica_options)).value();
  ASSERT_TRUE(replica->PollAll().ok());
  const auto reference = ReferenceService(config, 40);
  EXPECT_EQ(ShardStates(*replica), ShardStates(*reference));

  // A torn binary tail is the retryable kind: nothing applies, nothing
  // poisons.
  AppendRaw(ShardWalPath(dir, 0), "\x40\x00\x00\x00\xde\xad\xbe\xef");
  const auto torn_poll = replica->PollAll();
  ASSERT_TRUE(torn_poll.ok()) << torn_poll.status().ToString();
  EXPECT_EQ(torn_poll.value(), 0u);
  EXPECT_TRUE(replica->TailStatus().ok());

  // Complete-but-invalid bytes are final: the tailer poisons, the
  // replicated reads keep serving the last consistent state.
  AppendRaw(ShardWalPath(dir, 0), std::string(64, '\xff'));
  ASSERT_FALSE(replica->PollAll().ok());
  EXPECT_FALSE(replica->TailStatus().ok());
  EXPECT_EQ(ShardStates(*replica), ShardStates(*reference));
  ASSERT_TRUE(replica->PreEvaluate(17, 1001, 0).ok());

  replica.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace siot::service
