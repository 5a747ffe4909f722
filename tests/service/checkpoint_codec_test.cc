// Copyright 2026 The siot-trust Authors.
// The versioned checkpoint codec's contract, proved at the byte level:
// both encoders round-trip an arbitrary engine to byte-identical text
// re-serialization (the comparison currency of recovery and
// followers), the first-byte dispatch keeps v1 text parseable
// forever, and — the durability half — EVERY possible truncation and
// EVERY possible single-bit flip of a v2 binary checkpoint is classified
// Corruption naming the damaged section, never a crash and never a
// silently wrong restore. The header CRC is load-bearing for that last
// claim: without it a flipped applied_seq would validate cleanly and
// skip or double-apply WAL frames on recovery.

#include "service/checkpoint_codec.h"

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/byte_codec.h"
#include "common/checksum.h"
#include "common/macros.h"
#include "common/rng.h"
#include "trust/trust_engine.h"
#include "trust/trust_store_io.h"

namespace siot::service {
namespace {

using trust::AgentId;
using trust::CharacteristicId;
using trust::TaskId;
using trust::TrustEngine;
using trust::TrustEngineConfig;

// Mirrors the encoder's layout constants; the layout tests below keep
// them honest against the implementation.
constexpr std::size_t kHeaderBytes = 1 + 7 + 8 + 4 + 4;
constexpr std::size_t kSectionHeaderBytes = 1 + 8 + 4;

TrustEngineConfig MakeConfig() {
  TrustEngineConfig config;
  config.beta = trust::ForgettingFactors::Uniform(0.25);
  config.initial_estimates = {0.5, 0.5, 0.5, 0.5};
  return config;
}

/// Arbitrary engine state from a seed. Every section is guaranteed
/// non-empty (the per-section corruption tests flip bytes inside each
/// body), weighted tasks hit the 1/3+1/3+1/3 != 1.0 no-renormalize case,
/// and the doubles need every mantissa bit.
TrustEngine MakeEngine(std::uint64_t seed) {
  Rng rng(seed);
  TrustEngine engine(MakeConfig());
  const std::size_t tasks = 1 + rng.NextBounded(4);
  for (std::size_t i = 0; i < tasks; ++i) {
    const std::string name =
        "task_" + std::to_string(seed) + "_" + std::to_string(i);
    if (i % 2 == 0) {
      SIOT_CHECK(engine.catalog()
                     .AddUniform(name,
                                 {static_cast<CharacteristicId>(i),
                                  static_cast<CharacteristicId>(i + 1),
                                  static_cast<CharacteristicId>(i + 2)})
                     .ok());
    } else {
      SIOT_CHECK(
          engine.catalog()
              .Add(name,
                   {{static_cast<CharacteristicId>(i),
                     rng.NextDouble() + 0.1},
                    {static_cast<CharacteristicId>(i + 3),
                     rng.NextDouble() + 0.1}})
              .ok());
    }
  }
  const std::size_t reports = 8 + rng.NextBounded(40);
  for (std::size_t i = 0; i < reports; ++i) {
    trust::DelegationOutcome outcome;
    outcome.success = rng.Bernoulli(0.6);
    outcome.gain = rng.NextDouble();
    outcome.damage = rng.NextDouble();
    outcome.cost = rng.NextDouble();
    engine.ReportOutcome(static_cast<AgentId>(rng.NextBounded(12)),
                         static_cast<AgentId>(rng.NextBounded(12)),
                         static_cast<TaskId>(rng.NextBounded(tasks)),
                         outcome, rng.Bernoulli(0.3));
  }
  const std::size_t thresholds = 1 + rng.NextBounded(5);
  for (std::size_t i = 0; i < thresholds; ++i) {
    engine.reverse_evaluator().SetThreshold(
        static_cast<AgentId>(rng.NextBounded(12)),
        rng.Bernoulli(0.5) ? trust::kNoTask
                           : static_cast<TaskId>(rng.NextBounded(tasks)),
        rng.NextDouble());
  }
  engine.reverse_evaluator().SetDefaultThreshold(rng.NextDouble());
  const std::size_t indicators = 1 + rng.NextBounded(5);
  for (std::size_t i = 0; i < indicators; ++i) {
    engine.environment().SetIndicator(
        static_cast<AgentId>(rng.NextBounded(12)),
        0.25 + 0.75 * rng.NextDouble());
  }
  engine.environment().SetDefaultIndicator(0.5 + 0.5 * rng.NextDouble());
  return engine;
}

std::string FlipBit(std::string_view bytes, std::size_t byte,
                    unsigned bit) {
  std::string flipped(bytes);
  flipped[byte] = static_cast<char>(
      static_cast<unsigned char>(flipped[byte]) ^ (1u << bit));
  return flipped;
}

// ----------------------------------------------------- round trips --

TEST(CheckpointCodecTest, BinaryRoundTripIsByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const TrustEngine original = MakeEngine(seed);
    const std::string reference =
        trust::SerializeTrustEngineState(original);
    std::vector<std::size_t> ends;
    const std::string bytes =
        EncodeCheckpointBinary(7000 + seed, original, &ends);
    EXPECT_EQ(CheckpointFormat(bytes), kCheckpointFormatBinary);
    ASSERT_EQ(ends.size(), kCheckpointSectionCount) << "seed " << seed;
    EXPECT_EQ(ends.back(), bytes.size());
    for (std::size_t i = 1; i < ends.size(); ++i) {
      EXPECT_GT(ends[i], ends[i - 1]);
    }

    TrustEngine loaded(MakeConfig());
    std::uint64_t applied_seq = 0;
    ASSERT_TRUE(
        DecodeCheckpoint(bytes, "ckpt", &applied_seq, &loaded).ok())
        << "seed " << seed;
    EXPECT_EQ(applied_seq, 7000 + seed);
    EXPECT_EQ(trust::SerializeTrustEngineState(loaded), reference)
        << "seed " << seed;

    // And the binary format is a fixed point: re-encoding the restored
    // engine reproduces the same bytes.
    EXPECT_EQ(EncodeCheckpointBinary(7000 + seed, loaded, nullptr), bytes)
        << "seed " << seed;
  }
}

TEST(CheckpointCodecTest, TextRoundTripIsByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const TrustEngine original = MakeEngine(seed);
    const std::string bytes = EncodeCheckpointText(42 + seed, original);
    EXPECT_EQ(CheckpointFormat(bytes), kCheckpointFormatText);
    TrustEngine loaded(MakeConfig());
    std::uint64_t applied_seq = 0;
    ASSERT_TRUE(
        DecodeCheckpoint(bytes, "ckpt", &applied_seq, &loaded).ok())
        << "seed " << seed;
    EXPECT_EQ(applied_seq, 42 + seed);
    EXPECT_EQ(trust::SerializeTrustEngineState(loaded),
              trust::SerializeTrustEngineState(original));
  }
}

TEST(CheckpointCodecTest, BothFormatsRestoreTheSameState) {
  const TrustEngine original = MakeEngine(99);
  TrustEngine from_text(MakeConfig());
  TrustEngine from_binary(MakeConfig());
  std::uint64_t seq = 0;
  ASSERT_TRUE(DecodeCheckpoint(EncodeCheckpointText(5, original), "t",
                               &seq, &from_text)
                  .ok());
  ASSERT_TRUE(
      DecodeCheckpoint(EncodeCheckpointBinary(5, original, nullptr), "b",
                       &seq, &from_binary)
          .ok());
  EXPECT_EQ(trust::SerializeTrustEngineState(from_text),
            trust::SerializeTrustEngineState(from_binary));
}

// The engine's tables iterate in an order that depends on their insertion
// history; a checkpoint must not. Two engines filled with the same state
// in opposite orders, and a third restored from one of them, encode the
// same bytes. The tables grow through many doublings on the way.
TEST(CheckpointCodecTest, EncodingIsIndependentOfInsertionOrder) {
  struct Entry {
    int kind;  // 0 record, 1 usage, 2 threshold, 3 indicator
    AgentId a;
    AgentId b;
    TaskId task;
    double value;
  };
  Rng rng(2718);
  std::vector<Entry> entries;
  for (AgentId a = 0; a < 60; ++a) {
    for (AgentId b = 0; b < 50; ++b) {
      const double value = rng.NextDouble();
      entries.push_back({0, a, b, static_cast<TaskId>((a + b) % 3), value});
      if ((a * b) % 4 == 0) entries.push_back({0, a, b, 3, value / 2});
      entries.push_back({1, b + 1000, a, 0, value});
    }
    entries.push_back({2, a, 0, a % 2 == 0 ? trust::kNoTask : a % 4, 0.25});
    entries.push_back({3, a * 7919u, 0, 0, 0.125 + rng.NextDouble() / 2});
  }
  entries.push_back({3, trust::kNoAgent - 1, 0, 0, 0.75});
  const auto fill = [](TrustEngine& engine, const auto& begin,
                       const auto& end) {
    SIOT_CHECK(engine.catalog().AddUniform("t0", {0}).ok());
    SIOT_CHECK(engine.catalog().AddUniform("t1", {1}).ok());
    SIOT_CHECK(engine.catalog().AddUniform("t2", {0, 1}).ok());
    SIOT_CHECK(engine.catalog().AddUniform("t3", {2}).ok());
    for (auto it = begin; it != end; ++it) {
      const Entry& e = *it;
      switch (e.kind) {
        case 0:
          engine.store().PutRecord(
              e.a, e.b, e.task,
              {{e.value, 1 - e.value, e.value / 3, 0.5}, e.a + e.b});
          break;
        case 1:
          engine.reverse_evaluator().RestoreHistory(
              e.a, e.b, {static_cast<std::size_t>(e.value * 100), e.b});
          break;
        case 2:
          engine.reverse_evaluator().SetThreshold(e.a, e.task, e.value);
          break;
        case 3:
          engine.environment().SetIndicator(e.a, e.value);
          break;
      }
    }
  };
  TrustEngine forward(MakeConfig());
  fill(forward, entries.begin(), entries.end());
  TrustEngine backward(MakeConfig());
  fill(backward, entries.rbegin(), entries.rend());
  ASSERT_GT(forward.store().size(), 3000u);

  const std::string bytes = EncodeCheckpointBinary(3, forward, nullptr);
  EXPECT_EQ(EncodeCheckpointBinary(3, backward, nullptr), bytes);
  TrustEngine restored(MakeConfig());
  std::uint64_t seq = 0;
  ASSERT_TRUE(DecodeCheckpoint(bytes, "ckpt", &seq, &restored).ok());
  EXPECT_EQ(EncodeCheckpointBinary(3, restored, nullptr), bytes);
  EXPECT_EQ(trust::SerializeTrustEngineState(backward),
            trust::SerializeTrustEngineState(forward));
}

// -------------------------------------------------------- misuse --

TEST(CheckpointCodecTest, RestoreRequiresAFreshEngine) {
  const TrustEngine original = MakeEngine(1);
  const std::string bytes = EncodeCheckpointBinary(1, original, nullptr);
  TrustEngine dirty(MakeConfig());
  ASSERT_TRUE(dirty.catalog().AddUniform("gps", {0}).ok());
  std::uint64_t seq = 0;
  EXPECT_EQ(DecodeCheckpoint(bytes, "ckpt", &seq, &dirty).code(),
            StatusCode::kFailedPrecondition);
  // Any table the restore fills must start empty: the engine's own
  // tables are its duplicate check.
  TrustEngine with_threshold(MakeConfig());
  with_threshold.reverse_evaluator().SetThreshold(1, trust::kNoTask, 0.5);
  EXPECT_EQ(DecodeCheckpoint(bytes, "ckpt", &seq, &with_threshold).code(),
            StatusCode::kFailedPrecondition);
  TrustEngine with_indicator(MakeConfig());
  with_indicator.environment().SetIndicator(1, 0.5);
  EXPECT_EQ(DecodeCheckpoint(bytes, "ckpt", &seq, &with_indicator).code(),
            StatusCode::kFailedPrecondition);
  TrustEngine with_usage(MakeConfig());
  with_usage.reverse_evaluator().RecordUsage(1, 2, false);
  EXPECT_EQ(DecodeCheckpoint(bytes, "ckpt", &seq, &with_usage).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(DecodeCheckpoint(bytes, "ckpt", &seq, nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointCodecTest, UnknownFormatsAreCorruption) {
  TrustEngine engine(MakeConfig());
  std::uint64_t seq = 0;
  const Status empty = DecodeCheckpoint("", "ckpt", &seq, &engine);
  EXPECT_TRUE(empty.code() == StatusCode::kCorruption);
  EXPECT_NE(empty.message().find("empty checkpoint file"),
            std::string::npos);
  // Neither 0x02 nor printable ASCII: no codec version ever wrote it.
  const Status unknown =
      DecodeCheckpoint("\xEE future format", "ckpt", &seq, &engine);
  EXPECT_TRUE(unknown.code() == StatusCode::kCorruption);
  EXPECT_NE(unknown.message().find("unknown format byte 0xee"),
            std::string::npos)
      << unknown.ToString();
}

// ---------------------------------------- corruption classification --

TEST(CheckpointCodecTest, SectionDamageNamesTheSection) {
  const TrustEngine original = MakeEngine(7);
  std::vector<std::size_t> ends;
  const std::string bytes = EncodeCheckpointBinary(9, original, &ends);
  ASSERT_EQ(ends.size(), kCheckpointSectionCount);
  const char* const names[] = {"catalog", "thresholds", "env", "usage",
                               "records"};
  std::size_t begin = kHeaderBytes;
  for (std::size_t s = 0; s < ends.size(); ++s) {
    const std::size_t body_begin = begin + kSectionHeaderBytes;
    ASSERT_LT(body_begin, ends[s]) << "section " << names[s]
                                   << " has an empty body";
    // A flip inside the body: the section's CRC catches it and the error
    // names the section.
    TrustEngine engine(MakeConfig());
    std::uint64_t seq = 0;
    const Status status = DecodeCheckpoint(
        FlipBit(bytes, body_begin, 0), "ckpt", &seq, &engine);
    EXPECT_TRUE(status.code() == StatusCode::kCorruption) << status.ToString();
    EXPECT_NE(status.message().find(names[s]), std::string::npos)
        << "section " << s << ": " << status.ToString();
    begin = ends[s];
  }
}

TEST(CheckpointCodecTest, AppliedSeqIsCrcProtected) {
  // The one field no section CRC covers: a silently flipped applied_seq
  // would make recovery skip or double-apply WAL frames. The header CRC
  // closes that hole.
  const TrustEngine original = MakeEngine(5);
  const std::string bytes = EncodeCheckpointBinary(1234, original, nullptr);
  for (std::size_t byte = 8; byte < 16; ++byte) {  // the u64 applied_seq
    TrustEngine engine(MakeConfig());
    std::uint64_t seq = 0;
    const Status status =
        DecodeCheckpoint(FlipBit(bytes, byte, 5), "ckpt", &seq, &engine);
    ASSERT_TRUE(status.code() == StatusCode::kCorruption) << status.ToString();
    EXPECT_NE(status.message().find("header CRC mismatch"),
              std::string::npos)
        << status.ToString();
  }
}

TEST(CheckpointCodecTest, TruncationAtEveryByteIsCorruptionNeverACrash) {
  // The torn-write sweep: every proper prefix of a v2 checkpoint — a
  // crash at any instant of a non-atomic write — must classify as
  // Corruption. Only the complete file restores.
  const TrustEngine original = MakeEngine(11);
  const std::string bytes = EncodeCheckpointBinary(77, original, nullptr);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    TrustEngine engine(MakeConfig());
    std::uint64_t seq = 0;
    const Status status = DecodeCheckpoint(
        std::string_view(bytes).substr(0, cut), "ckpt", &seq, &engine);
    EXPECT_TRUE(status.code() == StatusCode::kCorruption)
        << "cut at byte " << cut << ": " << status.ToString();
  }
  TrustEngine engine(MakeConfig());
  std::uint64_t seq = 0;
  EXPECT_TRUE(DecodeCheckpoint(bytes, "ckpt", &seq, &engine).ok());
}

TEST(CheckpointCodecTest, EverySingleBitFlipIsCorruption) {
  // With the header CRC in place every byte of the file sits under a
  // checksum, so ANY single-bit flip — 8 x file-size trials — must be
  // rejected. This is strictly stronger than "Corruption or clean
  // restore": no flip can survive.
  const TrustEngine original = MakeEngine(13);
  const std::string bytes = EncodeCheckpointBinary(55, original, nullptr);
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      TrustEngine engine(MakeConfig());
      std::uint64_t seq = 0;
      const Status status = DecodeCheckpoint(FlipBit(bytes, byte, bit),
                                             "ckpt", &seq, &engine);
      ASSERT_TRUE(status.code() == StatusCode::kCorruption)
          << "byte " << byte << " bit " << bit << ": "
          << status.ToString();
    }
  }
}

TEST(CheckpointCodecTest, RandomMultiBitDamageNeverCrashesOrLies) {
  // Satellite contract under arbitrary (multi-bit) damage: decode either
  // fails with Corruption or restores state byte-identical to the
  // original (flips can cancel each other out). Silent divergence and
  // crashes are the failure modes.
  const TrustEngine original = MakeEngine(17);
  const std::string reference = trust::SerializeTrustEngineState(original);
  const std::string bytes = EncodeCheckpointBinary(21, original, nullptr);
  Rng rng(2026);
  for (int trial = 0; trial < 400; ++trial) {
    std::string damaged = bytes;
    const std::size_t flips = 1 + rng.NextBounded(3);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t byte = rng.NextBounded(damaged.size());
      damaged[byte] = static_cast<char>(
          static_cast<unsigned char>(damaged[byte]) ^
          (1u << rng.NextBounded(8)));
    }
    TrustEngine engine(MakeConfig());
    std::uint64_t seq = 0;
    const Status status =
        DecodeCheckpoint(damaged, "ckpt", &seq, &engine);
    if (status.ok()) {
      EXPECT_EQ(damaged, bytes) << "a damaged file decoded";
      EXPECT_EQ(trust::SerializeTrustEngineState(engine), reference);
    } else {
      EXPECT_TRUE(status.code() == StatusCode::kCorruption) << status.ToString();
    }
  }
}

// ------------------------------------- semantic checks behind valid CRCs --

/// Section bodies of a small valid v2 checkpoint, in file order; a test
/// replaces one with a body that breaks a rule.
std::array<std::string, kCheckpointSectionCount> ValidBodies() {
  std::array<std::string, kCheckpointSectionCount> bodies;
  std::string& catalog = bodies[0];  // One task "gps" = {0: 1.0}.
  PutU32(&catalog, 1);
  PutU32(&catalog, 3);
  catalog += "gps";
  PutU16(&catalog, 1);
  catalog.push_back('\0');
  PutF64(&catalog, 1.0);
  PutF64(&bodies[1], 0.5);  // default θ, no entries
  PutU64(&bodies[1], 0);
  PutF64(&bodies[2], 1.0);  // default indicator, no entries
  PutU64(&bodies[2], 0);
  PutU64(&bodies[3], 0);
  PutU64(&bodies[4], 0);
  return bodies;
}

/// A v2 checkpoint whose header and section CRCs all verify, so only
/// the restore's semantic checks can refuse it.
std::string AssembleCheckpoint(
    const std::array<std::string, kCheckpointSectionCount>& bodies,
    std::uint64_t applied_seq = 1) {
  std::string out(1, static_cast<char>(kCheckpointFormatBinary));
  out += "siotckp";
  PutU64(&out, applied_seq);
  PutU32(&out, kCheckpointSectionCount);
  PutU32(&out, Crc32cMask(Crc32c(out)));
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    out.push_back(static_cast<char>(i + 1));
    PutU64(&out, bodies[i].size());
    PutU32(&out, Crc32cMask(Crc32c(bodies[i])));
    out += bodies[i];
  }
  return out;
}

std::string ThresholdsBody(double theta, std::size_t copies) {
  std::string body;
  PutF64(&body, 0.5);
  PutU64(&body, copies);
  for (std::size_t i = 0; i < copies; ++i) {
    PutU32(&body, 1);
    PutU32(&body, trust::kNoTask);
    PutF64(&body, theta);
  }
  return body;
}

std::string EnvBody(double default_indicator, double indicator,
                    std::size_t copies) {
  std::string body;
  PutF64(&body, default_indicator);
  PutU64(&body, copies);
  for (std::size_t i = 0; i < copies; ++i) {
    PutU32(&body, 1);
    PutF64(&body, indicator);
  }
  return body;
}

std::string UsageBody(std::size_t copies) {
  std::string body;
  PutU64(&body, copies);
  for (std::size_t i = 0; i < copies; ++i) {
    PutU32(&body, 1);
    PutU32(&body, 2);
    PutU64(&body, 3);
    PutU64(&body, 4);
  }
  return body;
}

std::string RecordsBody(std::size_t copies) {
  std::string body;
  PutU64(&body, copies);
  for (std::size_t i = 0; i < copies; ++i) {
    PutU32(&body, 1);
    PutU32(&body, 2);
    PutU32(&body, 0);
    for (int f = 0; f < 4; ++f) PutF64(&body, 0.5);
    PutU64(&body, 1);
  }
  return body;
}

/// One catalog task "t" with the given characteristics, weight 1 each.
std::string CatalogBody(const std::vector<std::uint8_t>& characteristics) {
  std::string body;
  PutU32(&body, 1);
  PutU32(&body, 1);
  body += "t";
  PutU16(&body, static_cast<std::uint16_t>(characteristics.size()));
  for (const std::uint8_t c : characteristics) {
    body.push_back(static_cast<char>(c));
    PutF64(&body, 1.0);
  }
  return body;
}

TEST(CheckpointCodecTest, CrcValidSemanticViolationsNameTheirSection) {
  // Section CRCs stop every bit flip before the semantic checks run, so
  // the checks are reached only by files assembled to break one rule
  // behind valid checksums.
  struct Case {
    const char* what;
    std::size_t section;  // index into the bodies, 0 = catalog
    std::string body;
    const char* reason;
  };
  const std::vector<Case> cases = {
      {"NaN theta", 1, ThresholdsBody(std::nan(""), 1), "NaN theta"},
      {"duplicate threshold", 1, ThresholdsBody(0.5, 2), "duplicate"},
      {"default indicator 0", 2, EnvBody(0.0, 0.5, 0), "outside (0, 1]"},
      {"agent indicator 1.5", 2, EnvBody(1.0, 1.5, 1), "outside (0, 1]"},
      {"duplicate indicator", 2, EnvBody(1.0, 0.5, 2), "duplicate"},
      {"duplicate usage", 3, UsageBody(2), "duplicate"},
      {"duplicate record", 4, RecordsBody(2), "duplicate"},
      {"characteristic 64", 0, CatalogBody({64}), "out of range"},
      {"characteristic 255", 0, CatalogBody({255}), "out of range"},
      {"task with no parts", 0, CatalogBody({}), "invalid task"},
      {"repeated characteristic", 0, CatalogBody({3, 3}), "invalid task"},
  };
  const char* const names[] = {"catalog", "thresholds", "env", "usage",
                               "records"};
  {
    // The valid neighbours of every case restore.
    auto bodies = ValidBodies();
    bodies[1] = ThresholdsBody(0.5, 1);
    bodies[2] = EnvBody(1.0, 1.0, 1);
    bodies[3] = UsageBody(1);
    bodies[4] = RecordsBody(1);
    TrustEngine engine(MakeConfig());
    std::uint64_t seq = 0;
    const Status status =
        DecodeCheckpoint(AssembleCheckpoint(bodies), "ckpt", &seq, &engine);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(engine.store().size(), 1u);
  }
  for (const Case& c : cases) {
    auto bodies = ValidBodies();
    bodies[c.section] = c.body;
    TrustEngine engine(MakeConfig());
    std::uint64_t seq = 0;
    const Status status =
        DecodeCheckpoint(AssembleCheckpoint(bodies), "ckpt", &seq, &engine);
    ASSERT_TRUE(status.code() == StatusCode::kCorruption)
        << c.what << ": " << status.ToString();
    EXPECT_NE(status.message().find(std::string(names[c.section]) +
                                    " section"),
              std::string::npos)
        << c.what << ": " << status.ToString();
    EXPECT_NE(status.message().find(c.reason), std::string::npos)
        << c.what << ": " << status.ToString();
  }
}

TEST(CheckpointCodecTest, LyingCountFieldIsRejectedUpFront) {
  // A records count far beyond what the section holds must be named as
  // such (not surface as a confusing bounds-check failure deep in entry
  // parsing — and certainly not size a 2^60-entry loop).
  const TrustEngine original = MakeEngine(19);
  std::vector<std::size_t> ends;
  std::string bytes = EncodeCheckpointBinary(1, original, &ends);
  // The records section body begins with its u64 count; saturate it.
  const std::size_t count_at = ends[3] + kSectionHeaderBytes;
  for (std::size_t b = 0; b < 8; ++b) {
    bytes[count_at + b] = static_cast<char>(0xFF);
  }
  TrustEngine engine(MakeConfig());
  std::uint64_t seq = 0;
  const Status status = DecodeCheckpoint(bytes, "ckpt", &seq, &engine);
  ASSERT_TRUE(status.code() == StatusCode::kCorruption) << status.ToString();
  // The CRC catches the rewrite first unless recomputed; this test's
  // point is the decoder never loops on the count, which the Corruption
  // (of either flavor) proves — but assert the message is at least
  // records-scoped.
  EXPECT_NE(status.message().find("records"), std::string::npos)
      << status.ToString();
}

TEST(CheckpointCodecTest, LyingCountBehindValidCrcSizesNoTable) {
  // Every count sizes its engine table before the first entry, so the
  // count must be refused against the section's bytes first: a 2^40
  // entry count behind valid CRCs is Corruption, not a huge reserve.
  for (std::size_t section = 1; section < kCheckpointSectionCount;
       ++section) {
    auto bodies = ValidBodies();
    std::string& body = bodies[section];
    const std::size_t count_at = section <= 2 ? 8 : 0;
    body.replace(count_at, 8, 8, '\0');
    body[count_at + 5] = 1;  // 2^40, little-endian
    body.append(64, '\0');
    TrustEngine engine(MakeConfig());
    std::uint64_t seq = 0;
    const Status status =
        DecodeCheckpoint(AssembleCheckpoint(bodies), "ckpt", &seq, &engine);
    ASSERT_TRUE(status.code() == StatusCode::kCorruption)
        << "section " << section << ": " << status.ToString();
    EXPECT_NE(status.message().find("exceeds"), std::string::npos)
        << status.ToString();
  }
}

// ------------------------------------------- layout, entry by entry --

/// An engine whose pairs hold 1–4 tasks, reported in random order, with
/// usage histories, thresholds and indicators: large enough that the
/// store's runs move while it fills.
TrustEngine MakeLargeEngine(std::uint64_t seed) {
  Rng rng(seed);
  TrustEngine engine(MakeConfig());
  const char* const names[] = {"t0", "t1", "t2", "t3"};
  for (CharacteristicId t = 0; t < 4; ++t) {
    SIOT_CHECK(engine.catalog().AddUniform(names[t], {t}).ok());
  }
  for (int i = 0; i < 3000; ++i) {
    trust::DelegationOutcome outcome;
    outcome.success = rng.Bernoulli(0.6);
    outcome.gain = rng.NextDouble();
    outcome.damage = rng.NextDouble();
    outcome.cost = rng.NextDouble();
    engine.ReportOutcome(static_cast<AgentId>(rng.NextBounded(40)),
                         static_cast<AgentId>(rng.NextBounded(40)),
                         static_cast<TaskId>(rng.NextBounded(4)), outcome,
                         rng.Bernoulli(0.3));
  }
  for (AgentId a = 0; a < 40; a += 3) {
    engine.reverse_evaluator().SetThreshold(
        a, a % 2 == 0 ? trust::kNoTask : a % 4, rng.NextDouble());
    engine.environment().SetIndicator(a * 101, 0.25 + rng.NextDouble() / 2);
  }
  return engine;
}

/// The v2 layout spelled one field at a time from the engine's sorted
/// exports, independently of the encoder's sizing and in-place writes.
std::string ReferenceEncode(std::uint64_t applied_seq,
                            const TrustEngine& engine) {
  std::array<std::string, kCheckpointSectionCount> bodies;
  const trust::TaskCatalog& catalog = engine.catalog();
  PutU32(&bodies[0], static_cast<std::uint32_t>(catalog.size()));
  for (TaskId id = 0; id < catalog.size(); ++id) {
    const trust::Task& task = catalog.Get(id);
    PutU32(&bodies[0], static_cast<std::uint32_t>(task.name().size()));
    bodies[0] += task.name();
    PutU16(&bodies[0], static_cast<std::uint16_t>(task.parts().size()));
    for (const trust::WeightedCharacteristic& part : task.parts()) {
      bodies[0].push_back(static_cast<char>(part.id));
      PutF64(&bodies[0], part.weight);
    }
  }
  const trust::ReverseEvaluator& reverse = engine.reverse_evaluator();
  PutF64(&bodies[1], reverse.default_threshold());
  PutU64(&bodies[1], reverse.AllThresholds().size());
  for (const trust::ThresholdEntry& entry : reverse.AllThresholds()) {
    PutU32(&bodies[1], entry.trustee);
    PutU32(&bodies[1], entry.task);
    PutF64(&bodies[1], entry.theta);
  }
  PutF64(&bodies[2], engine.environment().default_indicator());
  PutU64(&bodies[2], engine.environment().AllIndicators().size());
  for (const auto& [agent, indicator] :
       engine.environment().AllIndicators()) {
    PutU32(&bodies[2], agent);
    PutF64(&bodies[2], indicator);
  }
  PutU64(&bodies[3], reverse.AllHistories().size());
  for (const trust::UsageEntry& entry : reverse.AllHistories()) {
    PutU32(&bodies[3], entry.trustee);
    PutU32(&bodies[3], entry.trustor);
    PutU64(&bodies[3], entry.history.responsive_uses);
    PutU64(&bodies[3], entry.history.abusive_uses);
  }
  PutU64(&bodies[4], engine.store().size());
  for (const auto& [key, record] : engine.store().AllRecords()) {
    PutU32(&bodies[4], key.trustor);
    PutU32(&bodies[4], key.trustee);
    PutU32(&bodies[4], key.task);
    PutF64(&bodies[4], record.estimates.success_rate);
    PutF64(&bodies[4], record.estimates.gain);
    PutF64(&bodies[4], record.estimates.damage);
    PutF64(&bodies[4], record.estimates.cost);
    PutU64(&bodies[4], record.observations);
  }
  return AssembleCheckpoint(bodies, applied_seq);
}

TEST(CheckpointCodecTest, EncodingMatchesTheLayoutFieldByField) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const TrustEngine engine = MakeEngine(seed);
    EXPECT_EQ(EncodeCheckpointBinary(seed, engine, nullptr),
              ReferenceEncode(seed, engine))
        << "seed " << seed;
  }
  const TrustEngine large = MakeLargeEngine(5);
  ASSERT_GT(large.store().size(), large.store().pair_count());
  std::vector<std::size_t> ends;
  const std::string bytes = EncodeCheckpointBinary(1ull << 40, large, &ends);
  EXPECT_EQ(bytes, ReferenceEncode(1ull << 40, large));
  // Section ends match the reference's layout too.
  ASSERT_EQ(ends.size(), kCheckpointSectionCount);
  std::size_t at = kHeaderBytes;
  BinaryReader reader(std::string_view(bytes).substr(kHeaderBytes));
  for (std::size_t i = 0; i < kCheckpointSectionCount; ++i) {
    std::uint8_t id = 0;
    std::uint64_t body_len = 0;
    std::uint32_t crc = 0;
    std::string_view body;
    ASSERT_TRUE(reader.U8(&id) && reader.U64(&body_len) &&
                reader.U32(&crc) && reader.View(body_len, &body));
    at += kSectionHeaderBytes + body_len;
    EXPECT_EQ(ends[i], at) << "section " << i;
  }
}

TEST(CheckpointCodecTest, ShuffledRecordsSectionRestoresTheSameEngine) {
  // The decoder counts the records section's pair runs to size the pair
  // index. That count is only a hint: a records section whose CRC is
  // valid but whose entries are not pair-major sorted (no encoder writes
  // one) restores the same engine as the sorted section.
  const TrustEngine original = MakeLargeEngine(8);
  std::vector<std::size_t> ends;
  const std::string bytes = EncodeCheckpointBinary(17, original, &ends);
  std::array<std::string, kCheckpointSectionCount> bodies;
  std::size_t start = kHeaderBytes;
  for (std::size_t i = 0; i < kCheckpointSectionCount; ++i) {
    bodies[i] = bytes.substr(start + kSectionHeaderBytes,
                             ends[i] - start - kSectionHeaderBytes);
    start = ends[i];
  }
  ASSERT_EQ(AssembleCheckpoint(bodies, 17), bytes);

  constexpr std::size_t kEntryBytes = 4 + 4 + 4 + 4 * 8 + 8;
  std::string& records = bodies[4];
  const std::size_t count = (records.size() - 8) / kEntryBytes;
  ASSERT_EQ(count, original.store().size());
  Rng rng(81);
  for (std::size_t i = count; i > 1; --i) {
    const std::size_t j = rng.NextBounded(i);
    std::string a = records.substr(8 + (i - 1) * kEntryBytes, kEntryBytes);
    records.replace(8 + (i - 1) * kEntryBytes, kEntryBytes,
                    records.substr(8 + j * kEntryBytes, kEntryBytes));
    records.replace(8 + j * kEntryBytes, kEntryBytes, a);
  }
  const std::string shuffled = AssembleCheckpoint(bodies, 17);
  ASSERT_NE(shuffled, bytes);

  TrustEngine restored(MakeConfig());
  std::uint64_t seq = 0;
  const Status status = DecodeCheckpoint(shuffled, "ckpt", &seq, &restored);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(seq, 17u);
  EXPECT_EQ(restored.store().size(), original.store().size());
  EXPECT_EQ(restored.store().pair_count(), original.store().pair_count());
  EXPECT_EQ(trust::SerializeTrustEngineState(restored),
            trust::SerializeTrustEngineState(original));
  EXPECT_EQ(EncodeCheckpointBinary(17, restored, nullptr), bytes);
}

}  // namespace
}  // namespace siot::service
