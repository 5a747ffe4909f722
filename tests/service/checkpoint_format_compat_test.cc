// Copyright 2026 The siot-trust Authors.
// Format-compat fixture matrix: four persistence directories COMMITTED
// to the repo under tests/service/compat_fixtures/ — pure v1 (text
// checkpoint + text WAL), mixed (v1 text checkpoint + binary WAL tail)
// and pure binary (v2 checkpoint + binary WAL), all three in the legacy
// single-file WAL layout, plus segmented (v2 checkpoint + numbered WAL
// segments, one of them a pre-checkpoint segment a crash kept from being
// unlinked) — each recovered by today's service and byte-compared
// against the committed per-shard serialized state. Unlike the sibling
// wal_format_compat_test, which rebuilds old-format directories with
// today's exported v1 encoders, these bytes were laid down once and
// frozen in git: if a codec change ever breaks decoding of deployed
// files, THIS suite fails even when the encoders drifted in lockstep
// with the decoders.
//
// Regeneration (only when the fixture script itself changes — never to
// paper over a decode break): run
//   ./tests/siot_service_checkpoint_format_compat_test
// with SIOT_REGENERATE_COMPAT_FIXTURES=1 in the environment, then commit
// the rewritten fixture directories.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

constexpr std::size_t kShards = 2;
constexpr int kOutcomes = 24;
constexpr int kCheckpointAfter = 12;

/// The committed flavors. `text_checkpoint`/`text_wal`/`legacy_wal`
/// describe what the fixture's bytes must look like — verified on every
/// run so a careless regeneration can't silently hollow the matrix out.
struct Flavor {
  const char* name;
  bool text_checkpoint;
  bool text_wal;
  /// One shard-<k>.wal per shard rather than numbered segments.
  bool legacy_wal;
};

constexpr Flavor kFlavors[] = {
    {"v1_text", true, true, true},
    {"v1_ckpt_binary_wal", true, false, true},
    {"binary", false, false, true},
    {"segmented", false, false, false},
};

std::string FixtureDir(const Flavor& flavor) {
  return std::string(SIOT_COMPAT_FIXTURE_DIR) + "/" + flavor.name;
}

std::string ExpectedPath(const std::string& dir, std::size_t shard) {
  return dir + "/expected-shard-" + std::to_string(shard) + ".txt";
}

TrustServiceConfig MakeConfig() {
  TrustServiceConfig config;
  config.shard_count = kShards;
  config.engine.beta = trust::ForgettingFactors::Uniform(0.2);
  config.engine.initial_estimates = {0.5, 0.5, 0.5, 0.5};
  return config;
}

/// Deterministic outcome i of the fixture script; doubles need every
/// mantissa bit so byte-identical recovery tests the codecs, not round
/// numbers.
OutcomeReport CompatReport(int i) {
  OutcomeReport report;
  report.trustor = static_cast<AgentId>(17 * i % 101);
  report.trustee = 1000 + static_cast<AgentId>(i % 7);
  report.task = 0;
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

template <typename Service>
std::vector<std::string> ShardStates(const Service& service) {
  std::vector<std::string> states;
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    states.push_back(
        trust::SerializeTrustEngineState(service.shard_engine(s)));
  }
  return states;
}

/// The fixture script applied to an unpersisted reference service — the
/// state every flavor must recover to.
std::vector<std::string> ReferenceStates() {
  TrustService reference(MakeConfig());
  EXPECT_EQ(reference.RegisterTask("sense", {0, 1}).value(), 0u);
  EXPECT_TRUE(
      reference.SetReverseThreshold(1001, trust::kNoTask, 0.7).ok());
  EXPECT_TRUE(reference.SetEnvironmentIndicator(2000, 0.9).ok());
  for (int i = 0; i < kOutcomes; ++i) {
    EXPECT_TRUE(reference.ReportOutcome(CompatReport(i)).ok());
  }
  return ShardStates(reference);
}

// ------------------------------------------------------ generation --

/// A directory in the layout services wrote before WAL segments:
/// manifest, the fixture script's ops encoded op by op (text v1 or
/// binary v2), a checkpoint of every shard in the same format after
/// `checkpoint_after` outcomes, and one shard-<k>.wal per shard holding
/// the frames past it — what checkpointing in place left behind.
void BuildLegacyDirectory(const std::string& dir, int outcomes,
                          int checkpoint_after, bool binary) {
  const TrustServiceConfig config = MakeConfig();
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
  const std::vector<std::string> admin =
      binary ? std::vector<std::string>{EncodeTaskOpBinary("sense", {0, 1}),
                                        EncodeThetaOpBinary(
                                            1001, trust::kNoTask, 0.7),
                                        EncodeEnvOpBinary(2000, 0.9)}
             : std::vector<std::string>{
                   EncodeTaskOp("sense", {0, 1}),
                   EncodeThetaOp(1001, trust::kNoTask, 0.7),
                   EncodeEnvOp(2000, 0.9)};
  for (const std::string& payload : admin) {
    for (std::size_t s = 0; s < shards.size(); ++s) log(s, payload);
  }
  for (int i = 0; i < outcomes; ++i) {
    const OutcomeReport r = CompatReport(i);
    log(ShardIndexForTrustor(r.trustor, config.shard_count),
        binary ? EncodeOutcomeOpBinary(r.trustor, r.trustee, r.task,
                                       r.outcome, r.trustor_was_abusive,
                                       r.intermediates)
               : EncodeOutcomeOp(r.trustor, r.trustee, r.task, r.outcome,
                                 r.trustor_was_abusive, r.intermediates));
    if (checkpoint_after > 0 && i + 1 == checkpoint_after) {
      for (std::size_t c = 0; c < shards.size(); ++c) {
        const LegacyShard& shard = shards[c];
        ASSERT_TRUE(WriteFileAtomic(
                        ShardCheckpointPath(dir, c),
                        binary ? EncodeCheckpointBinary(shard.last_seq,
                                                        *shard.engine, nullptr)
                               : EncodeCheckpointText(shard.last_seq,
                                                      *shard.engine))
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

/// Today's service end to end, checkpoint mid-script, where the
/// checkpoint of the last shard dies before unlinking the segment it
/// sealed: a restarted service appends the rest to the numbered segment
/// the checkpoint opened.
void BuildSegmentedDirectory(const std::string& dir) {
  const TrustServiceConfig config = MakeConfig();
  PersistenceOptions options;
  options.directory = dir;
  options.fault_hook = [](PersistStage stage, std::size_t shard) {
    return stage == PersistStage::kCheckpointBeforeUnlink &&
                   shard + 1 == kShards
               ? Status::IoError("simulated crash")
               : Status::OK();
  };
  {
    auto service = std::move(TrustService::Open(config, options)).value();
    ASSERT_EQ(service->RegisterTask("sense", {0, 1}).value(), 0u);
    ASSERT_TRUE(
        service->SetReverseThreshold(1001, trust::kNoTask, 0.7).ok());
    ASSERT_TRUE(service->SetEnvironmentIndicator(2000, 0.9).ok());
    for (int i = 0; i < kCheckpointAfter; ++i) {
      ASSERT_TRUE(service->ReportOutcome(CompatReport(i)).ok());
    }
    ASSERT_FALSE(service->Checkpoint().ok());
  }
  options.fault_hook = nullptr;
  auto service = std::move(TrustService::Open(config, options)).value();
  for (int i = kCheckpointAfter; i < kOutcomes; ++i) {
    ASSERT_TRUE(service->ReportOutcome(CompatReport(i)).ok());
  }
}

void GenerateFixture(const Flavor& flavor, const std::string& dir) {
  std::filesystem::remove_all(dir);
  const TrustServiceConfig config = MakeConfig();
  if (!flavor.legacy_wal) {
    BuildSegmentedDirectory(dir);
  } else if (flavor.text_wal) {
    // Pure v1: the whole script in the pre-binary spelling.
    BuildLegacyDirectory(dir, kOutcomes, kCheckpointAfter, /*binary=*/false);
  } else if (flavor.text_checkpoint) {
    // Mixed: a v1 deployment checkpointed (text), then upgraded — the
    // binary-codec service appends the rest to its legacy WAL, so the
    // WAL tail past the text checkpoint is binary frames.
    BuildLegacyDirectory(dir, kCheckpointAfter, kCheckpointAfter,
                         /*binary=*/false);
    PersistenceOptions options;
    options.directory = dir;
    auto service = std::move(TrustService::Open(config, options)).value();
    for (int i = kCheckpointAfter; i < kOutcomes; ++i) {
      ASSERT_TRUE(service->ReportOutcome(CompatReport(i)).ok());
    }
  } else {
    // Pure binary: recovery crosses a v2 checkpoint + binary WAL tail.
    BuildLegacyDirectory(dir, kOutcomes, kCheckpointAfter, /*binary=*/true);
  }
  const std::vector<std::string> expected = ReferenceStates();
  for (std::size_t s = 0; s < expected.size(); ++s) {
    ASSERT_TRUE(WriteFileAtomic(ExpectedPath(dir, s), expected[s]).ok());
  }
  // The liveness lock is a runtime artifact, not part of the format.
  std::filesystem::remove(dir + "/LOCK");
}

TEST(CheckpointFormatCompatTest, RegenerateFixtures) {
  if (std::getenv("SIOT_REGENERATE_COMPAT_FIXTURES") == nullptr) {
    GTEST_SKIP() << "set SIOT_REGENERATE_COMPAT_FIXTURES=1 to rewrite "
                    "the committed fixture directories";
  }
  for (const Flavor& flavor : kFlavors) {
    GenerateFixture(flavor, FixtureDir(flavor));
  }
}

// ---------------------------------------------------- verification --

/// The fixture's bytes must BE the flavor they claim — otherwise a
/// regeneration under changed defaults would quietly turn the matrix
/// into copies of the same format.
void VerifyFlavorShape(const Flavor& flavor, const std::string& dir) {
  bool any_wal_payload = false;
  bool any_leftover = false;
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::string ckpt =
        ReadFileToString(ShardCheckpointPath(dir, s)).value();
    ASSERT_FALSE(ckpt.empty());
    EXPECT_EQ(CheckpointFormat(ckpt), flavor.text_checkpoint
                                          ? kCheckpointFormatText
                                          : kCheckpointFormatBinary)
        << flavor.name << " shard " << s;
    std::uint64_t checkpoint_seq = 0;
    trust::TrustEngine scratch(MakeConfig().engine);
    ASSERT_TRUE(DecodeCheckpoint(ckpt, "fixture", &checkpoint_seq, &scratch)
                    .ok());
    const std::vector<WalSegment> segments = ListWalSegments(dir, s).value();
    ASSERT_FALSE(segments.empty()) << flavor.name << " shard " << s;
    if (flavor.legacy_wal) {
      // Exactly the single-file log.
      ASSERT_EQ(segments.size(), 1u) << flavor.name << " shard " << s;
      EXPECT_EQ(segments[0].path, ShardWalPath(dir, s)) << flavor.name;
    } else {
      // Numbered segments only, the newest opened by the checkpoint.
      EXPECT_NE(segments.front().first_seq, 0u) << flavor.name;
      EXPECT_EQ(segments.back().first_seq, checkpoint_seq + 1)
          << flavor.name << " shard " << s;
    }
    for (const WalSegment& segment : segments) {
      const WalContents wal = ReadWal(segment.path).value();
      ASSERT_EQ(wal.tail, WalTailKind::kClean) << segment.path;
      bool past_checkpoint = false;
      for (const WalEntry& entry : wal.entries) {
        any_wal_payload = true;
        past_checkpoint = past_checkpoint || entry.seq > checkpoint_seq;
        EXPECT_EQ(WalPayloadFormat(entry.payload),
                  flavor.text_wal ? kWalFormatText : kWalFormatBinary)
            << flavor.name << " shard " << s << " seq " << entry.seq;
      }
      any_leftover = any_leftover ||
                     (!wal.entries.empty() && !past_checkpoint);
    }
  }
  EXPECT_TRUE(any_wal_payload)
      << flavor.name << ": no WAL tail left to prove mixed recovery";
  EXPECT_EQ(any_leftover, !flavor.legacy_wal)
      << flavor.name << ": a segment wholly folded into its checkpoint";
}

TEST(CheckpointFormatCompatTest, CommittedFixturesRecoverByteIdentically) {
  const TrustServiceConfig config = MakeConfig();
  for (const Flavor& flavor : kFlavors) {
    const std::string src = FixtureDir(flavor);
    ASSERT_TRUE(std::filesystem::exists(src))
        << src << " missing — run the RegenerateFixtures test with "
        << "SIOT_REGENERATE_COMPAT_FIXTURES=1 and commit the result";
    VerifyFlavorShape(flavor, src);

    // The committed reference state, shard by shard.
    std::vector<std::string> expected;
    for (std::size_t s = 0; s < kShards; ++s) {
      const auto bytes = ReadFileToString(ExpectedPath(src, s));
      ASSERT_TRUE(bytes.ok()) << ExpectedPath(src, s);
      expected.push_back(bytes.value());
    }

    // Recover a scratch COPY (recovery takes the directory lock and the
    // committed tree must stay pristine under test).
    const std::string work = MakeTestDir(flavor.name);
    std::filesystem::copy(src, work,
                          std::filesystem::copy_options::recursive);
    {
      PersistenceOptions options;
      options.directory = work;
      auto service =
          std::move(TrustService::Open(config, options)).value();
      EXPECT_EQ(ShardStates(*service), expected) << flavor.name;
    }
    // The follower read path must land on the same bytes: checkpoint
    // restore + WAL tail catch-up, whatever the formats.
    {
      ReplicaOptions replica_options;
      replica_options.directory = work;
      auto replica =
          std::move(ReplicaService::Open(config, replica_options)).value();
      ASSERT_TRUE(replica->PollAll().ok()) << flavor.name;
      EXPECT_EQ(ShardStates(*replica), expected)
          << flavor.name << " (follower)";
    }
    std::filesystem::remove_all(work);
  }
}

TEST(CheckpointFormatCompatTest, FixturesAgreeWithEachOther) {
  // All four directories spell the SAME logical state; their committed
  // references must be byte-identical across flavors (and match a fresh
  // replay of the script).
  const std::vector<std::string> reference = ReferenceStates();
  for (const Flavor& flavor : kFlavors) {
    const std::string src = FixtureDir(flavor);
    if (!std::filesystem::exists(src)) GTEST_SKIP() << src << " missing";
    for (std::size_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(ReadFileToString(ExpectedPath(src, s)).value(),
                reference[s])
          << flavor.name << " shard " << s;
    }
  }
}

}  // namespace
}  // namespace siot::service
