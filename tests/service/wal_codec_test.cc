// Copyright 2026 The siot-trust Authors.
// Unit proof for the versioned WAL payload codec: exact round trips for
// both formats (binary doubles must survive bit for bit — recovery and
// MissingAdminOps compare by equality), format dispatch on the first
// payload byte, and rejection of every malformed payload of either
// format as Corruption rather than garbage state or a crash.

#include "service/wal_codec.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trust/trust_engine.h"
#include "trust/trust_store_io.h"

namespace siot::service {
namespace {

using trust::AgentId;
using trust::CharacteristicId;
using trust::DelegationOutcome;
using trust::TaskId;

std::uint64_t BitsOf(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Doubles whose decimal renderings are lossy or surprising — the bit
/// patterns binary encoding must preserve exactly.
std::vector<double> AwkwardDoubles() {
  return {0.0,
          -0.0,
          1.0 / 3.0,
          std::nextafter(1.0, 2.0),
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::min(),
          std::numeric_limits<double>::max(),
          0.1,
          6.02214076e23};
}

// ---------------------------------------------------- binary round trip --

TEST(WalCodecTest, BinaryOutcomeRoundTripsExactly) {
  for (const double awkward : AwkwardDoubles()) {
    DelegationOutcome outcome;
    outcome.success = true;
    outcome.gain = awkward;
    outcome.damage = 0.25;
    outcome.cost = -awkward;
    const std::vector<AgentId> intermediates = {7, 0, 4000000000u};
    const std::string payload = EncodeOutcomeOpBinary(
        3, 4000000001u, 2, outcome, /*trustor_was_abusive=*/true,
        intermediates);
    ASSERT_EQ(WalPayloadFormat(payload), kWalFormatBinary);
    const auto decoded = DecodeAnyVersion(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const WalOp& op = decoded.value();
    EXPECT_EQ(op.kind, WalOpKind::kOutcome);
    EXPECT_EQ(op.trustor, 3u);
    EXPECT_EQ(op.trustee, 4000000001u);
    EXPECT_EQ(op.task, 2u);
    EXPECT_TRUE(op.outcome.success);
    EXPECT_TRUE(op.trustor_was_abusive);
    EXPECT_EQ(op.intermediates, intermediates);
    // Bit-for-bit, not value-equal: -0.0 == 0.0 but their bits differ.
    EXPECT_EQ(BitsOf(op.outcome.gain), BitsOf(awkward));
    EXPECT_EQ(BitsOf(op.outcome.damage), BitsOf(0.25));
    EXPECT_EQ(BitsOf(op.outcome.cost), BitsOf(-awkward));
  }
}

TEST(WalCodecTest, BinaryTaskRoundTripsArbitraryNameBytes) {
  // Binary names are length-prefixed raw bytes: spaces, percent signs
  // (the v1 escape character), and non-ASCII all pass through unescaped.
  const std::string name = "lidar scan 100% \xc3\xa9\x01";
  const std::vector<CharacteristicId> characteristics = {0, 5, 63};
  const std::string payload = EncodeTaskOpBinary(name, characteristics);
  const auto decoded = DecodeAnyVersion(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().kind, WalOpKind::kTask);
  EXPECT_EQ(decoded.value().name, name);
  EXPECT_EQ(decoded.value().characteristics, characteristics);
}

TEST(WalCodecTest, BinaryThetaAndEnvRoundTrip) {
  for (const double awkward : AwkwardDoubles()) {
    const auto theta = DecodeAnyVersion(EncodeThetaOpBinary(9, 1, awkward));
    ASSERT_TRUE(theta.ok());
    EXPECT_EQ(theta.value().kind, WalOpKind::kTheta);
    EXPECT_EQ(theta.value().trustee, 9u);
    EXPECT_EQ(theta.value().task, 1u);
    EXPECT_EQ(BitsOf(theta.value().value), BitsOf(awkward));
  }
  // The kNoTask sentinel (a θ_y for ALL tasks) represents itself.
  const auto wildcard =
      DecodeAnyVersion(EncodeThetaOpBinary(9, trust::kNoTask, 0.5));
  ASSERT_TRUE(wildcard.ok());
  EXPECT_EQ(wildcard.value().task, trust::kNoTask);

  const auto env = DecodeAnyVersion(EncodeEnvOpBinary(12, 0.75));
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env.value().kind, WalOpKind::kEnv);
  EXPECT_EQ(env.value().trustor, 12u);
  EXPECT_EQ(BitsOf(env.value().value), BitsOf(0.75));
}

// ------------------------------------------------------ format dispatch --

TEST(WalCodecTest, FormatDispatchOnFirstByte) {
  EXPECT_EQ(WalPayloadFormat(EncodeEnvOpBinary(1, 0.5)), kWalFormatBinary);
  EXPECT_EQ(WalPayloadFormat(EncodeEnvOp(1, 0.5)), kWalFormatText);
  EXPECT_EQ(WalPayloadFormat("outcome 1 2 0 1 0.5 0 0.1 0 0"),
            kWalFormatText);

  EXPECT_TRUE(IsKnownWalFormatByte(kWalFormatBinary));
  EXPECT_TRUE(IsKnownWalFormatByte('o'));  // "outcome ..."
  EXPECT_TRUE(IsKnownWalFormatByte(' '));
  EXPECT_TRUE(IsKnownWalFormatByte('~'));
  EXPECT_FALSE(IsKnownWalFormatByte(0x00));
  EXPECT_FALSE(IsKnownWalFormatByte(0x01));  // v1's number, never a byte
  EXPECT_FALSE(IsKnownWalFormatByte(0x03));  // a future format
  EXPECT_FALSE(IsKnownWalFormatByte(0x1F));
  EXPECT_FALSE(IsKnownWalFormatByte(0x7F));
  EXPECT_FALSE(IsKnownWalFormatByte(0xFF));
}

TEST(WalCodecTest, TextAndBinaryEncodingsDecodeToTheSameOp) {
  DelegationOutcome outcome;
  outcome.success = false;
  outcome.gain = 0.125;
  outcome.damage = 1.0 / 3.0;
  outcome.cost = 0.5;
  const std::vector<AgentId> intermediates = {42};
  const auto text = DecodeAnyVersion(
      EncodeOutcomeOp(1, 2, 0, outcome, true, intermediates));
  const auto binary = DecodeAnyVersion(
      EncodeOutcomeOpBinary(1, 2, 0, outcome, true, intermediates));
  ASSERT_TRUE(text.ok());
  ASSERT_TRUE(binary.ok());
  EXPECT_EQ(text.value().trustor, binary.value().trustor);
  EXPECT_EQ(text.value().trustee, binary.value().trustee);
  EXPECT_EQ(text.value().task, binary.value().task);
  EXPECT_EQ(text.value().outcome.success, binary.value().outcome.success);
  EXPECT_EQ(BitsOf(text.value().outcome.gain),
            BitsOf(binary.value().outcome.gain));
  EXPECT_EQ(BitsOf(text.value().outcome.damage),
            BitsOf(binary.value().outcome.damage));
  EXPECT_EQ(BitsOf(text.value().outcome.cost),
            BitsOf(binary.value().outcome.cost));
  EXPECT_EQ(text.value().trustor_was_abusive,
            binary.value().trustor_was_abusive);
  EXPECT_EQ(text.value().intermediates, binary.value().intermediates);
}

// ----------------------------------------------------------- corruption --

TEST(WalCodecTest, EveryProperPrefixOfABinaryPayloadIsCorruption) {
  DelegationOutcome outcome;
  outcome.success = true;
  outcome.gain = 0.5;
  outcome.damage = 0.0;
  outcome.cost = 0.1;
  const std::vector<std::string> payloads = {
      EncodeOutcomeOpBinary(1, 2, 0, outcome, false, {7, 8}),
      EncodeTaskOpBinary("sense", {0, 1}),
      EncodeThetaOpBinary(3, trust::kNoTask, 0.8),
      EncodeEnvOpBinary(5, 0.5),
  };
  for (const std::string& payload : payloads) {
    ASSERT_TRUE(DecodeAnyVersion(payload).ok());
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      const auto decoded = DecodeAnyVersion(payload.substr(0, cut));
      EXPECT_FALSE(decoded.ok())
          << "prefix of " << cut << "/" << payload.size()
          << " bytes decoded";
      if (!decoded.ok()) {
        EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
      }
    }
  }
}

TEST(WalCodecTest, MalformedBinaryPayloadsAreCorruption) {
  DelegationOutcome outcome;
  outcome.success = true;
  outcome.gain = 0.5;
  outcome.damage = 0.0;
  outcome.cost = 0.1;
  const std::string valid =
      EncodeOutcomeOpBinary(1, 2, 0, outcome, false, {});

  // Unknown op kind behind a valid version byte.
  {
    std::string bad = valid;
    bad[1] = '\x09';
    EXPECT_EQ(DecodeAnyVersion(bad).status().code(),
              StatusCode::kCorruption);
  }
  // Undefined flag bits (offset 2 + three u32 ids = 14).
  {
    std::string bad = valid;
    bad[14] = '\x04';
    EXPECT_EQ(DecodeAnyVersion(bad).status().code(),
              StatusCode::kCorruption);
  }
  // Trailing garbage after a complete op.
  {
    EXPECT_EQ(DecodeAnyVersion(valid + std::string(3, '\x00'))
                  .status()
                  .code(),
              StatusCode::kCorruption);
  }
  // The sentinel agent id can never be a real trustor or trustee.
  {
    const auto decoded = DecodeAnyVersion(EncodeOutcomeOpBinary(
        trust::kNoAgent, 2, 0, outcome, false, {}));
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(DecodeAnyVersion(EncodeOutcomeOpBinary(1, trust::kNoAgent, 0,
                                                     outcome, false, {}))
                  .status()
                  .code(),
              StatusCode::kCorruption);
  }
  // Non-finite observations never pass the serving boundary; one in a
  // log means corruption.
  {
    DelegationOutcome poisoned = outcome;
    poisoned.gain = std::numeric_limits<double>::infinity();
    EXPECT_EQ(DecodeAnyVersion(
                  EncodeOutcomeOpBinary(1, 2, 0, poisoned, false, {}))
                  .status()
                  .code(),
              StatusCode::kCorruption);
  }
  // NaN θ defeats MissingAdminOps' exact-equality compare.
  EXPECT_EQ(DecodeAnyVersion(EncodeThetaOpBinary(1, 0, std::nan("")))
                .status()
                .code(),
            StatusCode::kCorruption);
  // Environment indicators live in (0, 1].
  EXPECT_EQ(DecodeAnyVersion(EncodeEnvOpBinary(1, 7.5)).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecodeAnyVersion(EncodeEnvOpBinary(1, 0.0)).status().code(),
            StatusCode::kCorruption);
  // Characteristic ids beyond the store's bit budget.
  EXPECT_EQ(DecodeAnyVersion(EncodeTaskOpBinary("bad", {64}))
                .status()
                .code(),
            StatusCode::kCorruption);
}

TEST(WalCodecTest, MalformedTextPayloadsAreCorruption) {
  // The text decoder checks only its own shape; the value rules it
  // shares with the binary decoder must still refuse each of these.
  const struct {
    const char* payload;
    const char* reason;
  } cases[] = {
      {"outcome 4294967295 1 0 1 0.5 0 0.1 0 0", "sentinel agent id"},
      {"outcome 0 4294967295 0 1 0.5 0 0.1 0 0", "sentinel agent id"},
      {"outcome 0 1 0 1 inf 0 0.1 0 0", "non-finite outcome value"},
      {"outcome 0 1 0 1 0.5 nan 0.1 0 0", "non-finite outcome value"},
      {"outcome 0 1 0 1 0.5 0 -inf 0 0", "non-finite outcome value"},
      {"theta 5 * nan", "NaN theta"},
      {"theta 5 2 nan", "NaN theta"},
      {"env 3 0", "outside (0, 1]"},
      {"env 3 1.5", "outside (0, 1]"},
      {"task gps 2 0 64", "characteristic 64 out of range"},
      // Wider than a characteristic's byte: refused before the narrowing
      // cast could read it as characteristic 44.
      {"task gps 1 300", "malformed characteristic '300'"},
  };
  for (const auto& c : cases) {
    const auto decoded = DecodeAnyVersion(c.payload);
    ASSERT_EQ(decoded.status().code(), StatusCode::kCorruption)
        << c.payload;
    EXPECT_NE(decoded.status().message().find(c.reason), std::string::npos)
        << decoded.status().ToString();
  }
  // Their valid neighbours decode.
  for (const char* payload :
       {"outcome 0 1 0 1 0.5 0 0.1 0 0", "theta 5 * 0.5", "env 3 1",
        "task gps 2 0 63"}) {
    EXPECT_TRUE(DecodeAnyVersion(payload).ok()) << payload;
  }
}

// ----------------------------------------------- cross-format identity --

TEST(WalCodecTest, TextAndBinaryReplayProduceIdenticalEngineState) {
  trust::TrustEngineConfig config;
  config.beta = trust::ForgettingFactors::Uniform(0.2);
  trust::TrustEngine text_engine(config);
  trust::TrustEngine binary_engine(config);

  DelegationOutcome outcome;
  outcome.success = true;
  outcome.gain = 1.0 / 3.0;
  outcome.damage = 0.1;
  outcome.cost = 0.25;

  ASSERT_TRUE(text_engine.catalog().AddUniform("sense", {0, 1}).ok());
  ASSERT_TRUE(binary_engine.catalog().AddUniform("sense", {0, 1}).ok());
  const std::vector<std::string> text_ops = {
      EncodeOutcomeOp(1, 2, 0, outcome, true, {7}),
      EncodeThetaOp(2, trust::kNoTask, 0.7),
      EncodeEnvOp(7, 0.9),
  };
  const std::vector<std::string> binary_ops = {
      EncodeOutcomeOpBinary(1, 2, 0, outcome, true, {7}),
      EncodeThetaOpBinary(2, trust::kNoTask, 0.7),
      EncodeEnvOpBinary(7, 0.9),
  };
  for (const std::string& op : text_ops) {
    const auto decoded = DecodeAnyVersion(op);
    ASSERT_TRUE(decoded.ok());
    if (decoded.value().kind == WalOpKind::kOutcome) {
      text_engine.ReportOutcome(decoded.value().trustor,
                                decoded.value().trustee,
                                decoded.value().task,
                                decoded.value().outcome,
                                decoded.value().trustor_was_abusive,
                                decoded.value().intermediates);
    } else if (decoded.value().kind == WalOpKind::kTheta) {
      text_engine.reverse_evaluator().SetThreshold(
          decoded.value().trustee, decoded.value().task,
          decoded.value().value);
    } else if (decoded.value().kind == WalOpKind::kEnv) {
      text_engine.environment().SetIndicator(decoded.value().trustor,
                                             decoded.value().value);
    }
  }
  for (const std::string& op : binary_ops) {
    const auto decoded = DecodeAnyVersion(op);
    ASSERT_TRUE(decoded.ok());
    if (decoded.value().kind == WalOpKind::kOutcome) {
      binary_engine.ReportOutcome(decoded.value().trustor,
                                  decoded.value().trustee,
                                  decoded.value().task,
                                  decoded.value().outcome,
                                  decoded.value().trustor_was_abusive,
                                  decoded.value().intermediates);
    } else if (decoded.value().kind == WalOpKind::kTheta) {
      binary_engine.reverse_evaluator().SetThreshold(
          decoded.value().trustee, decoded.value().task,
          decoded.value().value);
    } else if (decoded.value().kind == WalOpKind::kEnv) {
      binary_engine.environment().SetIndicator(decoded.value().trustor,
                                               decoded.value().value);
    }
  }
  EXPECT_EQ(trust::SerializeTrustEngineState(text_engine),
            trust::SerializeTrustEngineState(binary_engine));
}

}  // namespace
}  // namespace siot::service
