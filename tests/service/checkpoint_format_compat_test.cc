// Copyright 2026 The siot-trust Authors.
// Format-compat fixture matrix: three persistence directories COMMITTED
// to the repo under tests/service/compat_fixtures/ — pure v1 (text
// checkpoint + text WAL), mixed (v1 text checkpoint + binary WAL tail),
// and pure binary (v2 checkpoint + binary WAL) — each recovered by
// today's service and byte-compared against the committed per-shard
// serialized state. Unlike the sibling wal_format_compat_test, which
// rebuilds old-format directories with today's exported v1 encoders,
// these bytes were laid down once and frozen in git: if a codec change
// ever breaks decoding of deployed files, THIS suite fails even when the
// encoders drifted in lockstep with the decoders.
//
// Regeneration (only when the fixture script itself changes — never to
// paper over a decode break):
//   SIOT_REGENERATE_COMPAT_FIXTURES=1 \
//     ./tests/siot_service_checkpoint_format_compat_test
// then commit the rewritten fixture directories.

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
#include "trust/trust_engine.h"
#include "trust/trust_store_io.h"

namespace siot::service {
namespace {

using trust::AgentId;
using trust::TaskId;

constexpr std::size_t kShards = 2;
constexpr int kOutcomes = 24;
constexpr int kCheckpointAfter = 12;

/// The three committed flavors. `text_checkpoint`/`text_wal` describe
/// what the fixture's bytes must look like — verified on every run so a
/// careless regeneration can't silently hollow the matrix out.
struct Flavor {
  const char* name;
  bool text_checkpoint;
  bool text_wal;
};

constexpr Flavor kFlavors[] = {
    {"v1_text", true, true},
    {"v1_ckpt_binary_wal", true, false},
    {"binary", false, false},
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

std::string MakeTestDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "siot_ckptcompat_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
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

/// Pure v1: manifest + text WAL payloads logged op by op through
/// ShardPersistence (the way the pre-binary service wrote), with a TEXT
/// checkpoint of every shard after `checkpoint_after` outcomes.
void BuildV1TextDirectory(const std::string& dir, int outcomes,
                          int checkpoint_after) {
  const TrustServiceConfig config = MakeConfig();
  PersistenceOptions options;
  options.directory = dir;
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  ASSERT_TRUE(WriteFileAtomic(ManifestPath(dir),
                              BuildServiceManifest(config.shard_count,
                                                   config))
                  .ok());
  std::vector<std::unique_ptr<trust::TrustEngine>> engines;
  std::vector<std::unique_ptr<ShardPersistence>> shards;
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    engines.push_back(std::make_unique<trust::TrustEngine>(config.engine));
    shards.push_back(std::make_unique<ShardPersistence>(&options, s));
    ASSERT_TRUE(shards[s]->Recover(engines[s].get()).ok());
  }
  const auto admin = [&](const std::string& payload) {
    for (std::size_t s = 0; s < shards.size(); ++s) {
      ASSERT_TRUE(shards[s]->Log({payload}, /*sync=*/false).ok());
      ASSERT_TRUE(ApplyWalOp(payload, engines[s].get()).ok());
    }
  };
  admin(EncodeTaskOp("sense", {0, 1}));
  admin(EncodeThetaOp(1001, trust::kNoTask, 0.7));
  admin(EncodeEnvOp(2000, 0.9));
  for (int i = 0; i < outcomes; ++i) {
    const OutcomeReport report = CompatReport(i);
    const std::size_t s =
        ShardIndexForTrustor(report.trustor, config.shard_count);
    const std::string payload =
        EncodeOutcomeOp(report.trustor, report.trustee, report.task,
                        report.outcome, report.trustor_was_abusive,
                        report.intermediates);
    ASSERT_TRUE(shards[s]->Log({payload}, /*sync=*/false).ok());
    ASSERT_TRUE(ApplyWalOp(payload, engines[s].get()).ok());
    if (checkpoint_after > 0 && i + 1 == checkpoint_after) {
      // The text checkpoint, written as ShardPersistence::Checkpoint
      // orders it: atomic replace, then WAL truncation.
      for (std::size_t c = 0; c < shards.size(); ++c) {
        ASSERT_TRUE(WriteFileAtomic(ShardCheckpointPath(dir, c),
                                    EncodeCheckpointText(
                                        shards[c]->last_seq(), *engines[c]))
                        .ok());
        std::filesystem::resize_file(ShardWalPath(dir, c), 0);
      }
    }
  }
}

void GenerateFixture(const Flavor& flavor, const std::string& dir) {
  std::filesystem::remove_all(dir);
  const TrustServiceConfig config = MakeConfig();
  if (flavor.text_wal) {
    // Pure v1: the whole script in the pre-binary spelling.
    BuildV1TextDirectory(dir, kOutcomes, kCheckpointAfter);
  } else if (flavor.text_checkpoint) {
    // Mixed: a v1 deployment checkpointed (text), then upgraded — the
    // binary-codec service appends the rest, so the WAL tail past the
    // text checkpoint is binary frames.
    BuildV1TextDirectory(dir, kCheckpointAfter, kCheckpointAfter);
    PersistenceOptions options;
    options.directory = dir;
    auto service = std::move(TrustService::Open(config, options)).value();
    for (int i = kCheckpointAfter; i < kOutcomes; ++i) {
      ASSERT_TRUE(service->ReportOutcome(CompatReport(i)).ok());
    }
  } else {
    // Pure binary: today's service end to end, checkpoint mid-script so
    // recovery crosses a v2 checkpoint + binary WAL tail.
    PersistenceOptions options;
    options.directory = dir;
    auto service = std::move(TrustService::Open(config, options)).value();
    ASSERT_EQ(service->RegisterTask("sense", {0, 1}).value(), 0u);
    ASSERT_TRUE(
        service->SetReverseThreshold(1001, trust::kNoTask, 0.7).ok());
    ASSERT_TRUE(service->SetEnvironmentIndicator(2000, 0.9).ok());
    for (int i = 0; i < kOutcomes; ++i) {
      ASSERT_TRUE(service->ReportOutcome(CompatReport(i)).ok());
      if (i + 1 == kCheckpointAfter) {
        ASSERT_TRUE(service->Checkpoint().ok());
      }
    }
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
/// into three copies of the same format.
void VerifyFlavorShape(const Flavor& flavor, const std::string& dir) {
  bool any_wal_payload = false;
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::string ckpt =
        ReadFileToString(ShardCheckpointPath(dir, s)).value();
    ASSERT_FALSE(ckpt.empty());
    EXPECT_EQ(CheckpointFormat(ckpt), flavor.text_checkpoint
                                          ? kCheckpointFormatText
                                          : kCheckpointFormatBinary)
        << flavor.name << " shard " << s;
    const WalContents wal = ReadWal(ShardWalPath(dir, s)).value();
    ASSERT_EQ(wal.tail, WalTailKind::kClean) << flavor.name;
    for (const WalEntry& entry : wal.entries) {
      any_wal_payload = true;
      EXPECT_EQ(WalPayloadFormat(entry.payload),
                flavor.text_wal ? kWalFormatText : kWalFormatBinary)
          << flavor.name << " shard " << s << " seq " << entry.seq;
    }
  }
  EXPECT_TRUE(any_wal_payload)
      << flavor.name << ": no WAL tail left to prove mixed recovery";
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
  // All three directories spell the SAME logical state; their committed
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
