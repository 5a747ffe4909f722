// Copyright 2026 The siot-trust Authors.

#include "service/wal_codec.h"

#include "common/byte_codec.h"
#include "common/string_util.h"
#include "trust/trust_store_io.h"

namespace siot::service {

Status WalOpCorruption(std::string_view payload, const std::string& what) {
  return Status::Corruption(
      StrFormat("WAL op: %s in %s", what.c_str(),
                trust::CorruptionSnippet(payload).c_str()));
}

// ------------------------------------------------------- v1 encoders --

std::string EncodeOutcomeOp(
    trust::AgentId trustor, trust::AgentId trustee, trust::TaskId task,
    const trust::DelegationOutcome& outcome, bool trustor_was_abusive,
    const std::vector<trust::AgentId>& intermediates) {
  std::string op = StrFormat(
      "outcome %u %u %u %d %.17g %.17g %.17g %d %zu", trustor, trustee,
      task, outcome.success ? 1 : 0, outcome.gain, outcome.damage,
      outcome.cost, trustor_was_abusive ? 1 : 0, intermediates.size());
  for (const trust::AgentId agent : intermediates) {
    op += StrFormat(" %u", agent);
  }
  return op;
}

std::string EncodeTaskOp(
    const std::string& name,
    const std::vector<trust::CharacteristicId>& characteristics) {
  std::string op =
      StrFormat("task %s %zu", trust::EscapeNameToken(name).c_str(),
                characteristics.size());
  for (const trust::CharacteristicId c : characteristics) {
    op += StrFormat(" %u", c);
  }
  return op;
}

std::string EncodeThetaOp(trust::AgentId trustee, trust::TaskId task,
                          double theta) {
  if (task == trust::kNoTask) {
    return StrFormat("theta %u * %.17g", trustee, theta);
  }
  return StrFormat("theta %u %u %.17g", trustee, task, theta);
}

std::string EncodeEnvOp(trust::AgentId agent, double indicator) {
  return StrFormat("env %u %.17g", agent, indicator);
}

// ------------------------------------------------------- v2 encoders --

namespace {

std::string BinaryPrologue(WalOpKind kind) {
  std::string op;
  op.push_back(static_cast<char>(kWalFormatBinary));
  op.push_back(static_cast<char>(kind));
  return op;
}

}  // namespace

std::string EncodeOutcomeOpBinary(
    trust::AgentId trustor, trust::AgentId trustee, trust::TaskId task,
    const trust::DelegationOutcome& outcome, bool trustor_was_abusive,
    const std::vector<trust::AgentId>& intermediates) {
  std::string op = BinaryPrologue(WalOpKind::kOutcome);
  op.reserve(43 + 4 * intermediates.size());
  PutU32(&op, trustor);
  PutU32(&op, trustee);
  PutU32(&op, task);
  op.push_back(static_cast<char>((outcome.success ? 1 : 0) |
                                 (trustor_was_abusive ? 2 : 0)));
  PutF64(&op, outcome.gain);
  PutF64(&op, outcome.damage);
  PutF64(&op, outcome.cost);
  PutU32(&op, static_cast<std::uint32_t>(intermediates.size()));
  for (const trust::AgentId agent : intermediates) {
    PutU32(&op, agent);
  }
  return op;
}

std::string EncodeTaskOpBinary(
    const std::string& name,
    const std::vector<trust::CharacteristicId>& characteristics) {
  std::string op = BinaryPrologue(WalOpKind::kTask);
  PutU32(&op, static_cast<std::uint32_t>(name.size()));
  op += name;
  PutU16(&op, static_cast<std::uint16_t>(characteristics.size()));
  for (const trust::CharacteristicId c : characteristics) {
    op.push_back(static_cast<char>(c));
  }
  return op;
}

std::string EncodeThetaOpBinary(trust::AgentId trustee, trust::TaskId task,
                                double theta) {
  std::string op = BinaryPrologue(WalOpKind::kTheta);
  PutU32(&op, trustee);
  PutU32(&op, task);
  PutF64(&op, theta);
  return op;
}

std::string EncodeEnvOpBinary(trust::AgentId agent, double indicator) {
  std::string op = BinaryPrologue(WalOpKind::kEnv);
  PutU32(&op, agent);
  PutF64(&op, indicator);
  return op;
}

// -------------------------------------------------------- dispatching --

std::uint8_t WalPayloadFormat(std::string_view payload) {
  if (!payload.empty() &&
      static_cast<unsigned char>(payload[0]) == kWalFormatBinary) {
    return kWalFormatBinary;
  }
  return kWalFormatText;
}

bool IsKnownWalFormatByte(unsigned char first_byte) {
  // 0x02 opens a v2 binary payload; every v1 text op opens with a
  // printable-ASCII op word. Anything else is no format this codec (or
  // any prior one) ever wrote.
  return first_byte == kWalFormatBinary ||
         (first_byte >= 0x20 && first_byte <= 0x7E);
}

// ----------------------------------------------------- binary decoder --

namespace {

StatusOr<WalOp> DecodeBinaryOp(std::string_view payload) {
  BinaryReader reader(payload.substr(1));  // Past the version byte.
  WalOp op;
  std::uint8_t kind = 0;
  if (!reader.U8(&kind)) {
    return WalOpCorruption(payload, "binary op missing the kind byte");
  }
  switch (static_cast<WalOpKind>(kind)) {
    case WalOpKind::kOutcome: {
      op.kind = WalOpKind::kOutcome;
      std::uint8_t flags = 0;
      std::uint32_t count = 0;
      if (!reader.U32(&op.trustor) || !reader.U32(&op.trustee) ||
          !reader.U32(&op.task) || !reader.U8(&flags) ||
          !reader.F64(&op.outcome.gain) || !reader.F64(&op.outcome.damage) ||
          !reader.F64(&op.outcome.cost) || !reader.U32(&count)) {
        return WalOpCorruption(payload, "truncated binary outcome op");
      }
      if (flags & ~0x3u) {
        return WalOpCorruption(
            payload, StrFormat("unknown outcome flag bits 0x%02x", flags));
      }
      op.outcome.success = (flags & 1) != 0;
      op.trustor_was_abusive = (flags & 2) != 0;
      if (reader.remaining() != 4 * static_cast<std::size_t>(count)) {
        return WalOpCorruption(
            payload,
            StrFormat("intermediate count %u does not match %zu trailing "
                      "bytes",
                      count, reader.remaining()));
      }
      op.intermediates.resize(count);
      for (trust::AgentId& agent : op.intermediates) reader.U32(&agent);
      return op;
    }
    case WalOpKind::kTask: {
      op.kind = WalOpKind::kTask;
      std::uint32_t name_len = 0;
      if (!reader.U32(&name_len) || !reader.Bytes(name_len, &op.name)) {
        return WalOpCorruption(payload, "truncated binary task op");
      }
      std::uint16_t count = 0;
      if (!reader.U16(&count) ||
          reader.remaining() != static_cast<std::size_t>(count)) {
        return WalOpCorruption(
            payload, "characteristic count does not match trailing bytes");
      }
      op.characteristics.resize(count);
      for (trust::CharacteristicId& c : op.characteristics) reader.U8(&c);
      return op;
    }
    case WalOpKind::kTheta:
      op.kind = WalOpKind::kTheta;
      if (!reader.U32(&op.trustee) || !reader.U32(&op.task) ||
          !reader.F64(&op.value) || reader.remaining() != 0) {
        return WalOpCorruption(payload, "malformed binary theta op");
      }
      return op;
    case WalOpKind::kEnv:
      op.kind = WalOpKind::kEnv;
      if (!reader.U32(&op.trustor) || !reader.F64(&op.value) ||
          reader.remaining() != 0) {
        return WalOpCorruption(payload, "malformed binary env op");
      }
      return op;
  }
  return WalOpCorruption(payload,
                         StrFormat("unknown binary op kind %u", kind));
}

// ------------------------------------------------------- text decoder --

using trust::ParseDoubleField;
using trust::ParseUintField;

StatusOr<bool> OpFlag(std::string_view payload, const std::string& field,
                      const char* name) {
  if (field == "0") return false;
  if (field == "1") return true;
  return WalOpCorruption(payload, StrFormat("malformed %s '%s'", name,
                                            field.c_str()));
}

StatusOr<WalOp> DecodeTextOp(std::string_view payload) {
  const auto corrupt = [payload](const std::string& what) {
    return WalOpCorruption(payload, what);
  };
  const std::vector<std::string> fields = Split(Trim(payload), ' ');
  if (fields.empty() || fields[0].empty()) {
    return corrupt("empty op");
  }
  const std::string& word = fields[0];
  WalOp op;
  if (word == "outcome") {
    op.kind = WalOpKind::kOutcome;
    if (fields.size() < 10) {
      return corrupt(
          StrFormat("expected >= 10 fields, got %zu", fields.size()));
    }
    SIOT_ASSIGN_OR_RETURN(
        op.trustor, ParseUintField<trust::AgentId>(fields[1], "trustor",
                                                   corrupt));
    SIOT_ASSIGN_OR_RETURN(
        op.trustee, ParseUintField<trust::AgentId>(fields[2], "trustee",
                                                   corrupt));
    SIOT_ASSIGN_OR_RETURN(
        op.task, ParseUintField<trust::TaskId>(fields[3], "task", corrupt));
    SIOT_ASSIGN_OR_RETURN(op.outcome.success,
                          OpFlag(payload, fields[4], "success"));
    SIOT_ASSIGN_OR_RETURN(op.outcome.gain,
                          ParseDoubleField(fields[5], "gain", corrupt));
    SIOT_ASSIGN_OR_RETURN(op.outcome.damage,
                          ParseDoubleField(fields[6], "damage", corrupt));
    SIOT_ASSIGN_OR_RETURN(op.outcome.cost,
                          ParseDoubleField(fields[7], "cost", corrupt));
    SIOT_ASSIGN_OR_RETURN(op.trustor_was_abusive,
                          OpFlag(payload, fields[8], "abusive flag"));
    const auto count = ParseInt(fields[9]);
    if (!count.ok() || count.value() < 0 ||
        static_cast<std::size_t>(count.value()) != fields.size() - 10) {
      return corrupt(StrFormat("intermediate count '%s' does not match %zu "
                               "trailing fields",
                               fields[9].c_str(), fields.size() - 10));
    }
    op.intermediates.resize(fields.size() - 10);
    for (std::size_t i = 10; i < fields.size(); ++i) {
      SIOT_ASSIGN_OR_RETURN(
          op.intermediates[i - 10],
          ParseUintField<trust::AgentId>(fields[i], "intermediate",
                                         corrupt));
    }
    return op;
  }
  if (word == "task") {
    op.kind = WalOpKind::kTask;
    if (fields.size() < 3) {
      return corrupt("expected >= 3 fields");
    }
    const auto name = trust::UnescapeNameToken(fields[1]);
    if (!name.ok()) {
      return corrupt(
          StrFormat("malformed task name '%s'", fields[1].c_str()));
    }
    const auto count = ParseInt(fields[2]);
    if (!count.ok() || count.value() < 0 ||
        static_cast<std::size_t>(count.value()) != fields.size() - 3) {
      return corrupt(StrFormat("characteristic count '%s' does not match "
                               "%zu trailing fields",
                               fields[2].c_str(), fields.size() - 3));
    }
    op.name = name.value();
    op.characteristics.resize(fields.size() - 3);
    for (std::size_t i = 3; i < fields.size(); ++i) {
      SIOT_ASSIGN_OR_RETURN(op.characteristics[i - 3],
                            ParseUintField<trust::CharacteristicId>(
                                fields[i], "characteristic", corrupt));
    }
    return op;
  }
  if (word == "theta") {
    op.kind = WalOpKind::kTheta;
    if (fields.size() != 4) {
      return corrupt("expected 4 fields");
    }
    SIOT_ASSIGN_OR_RETURN(
        op.trustee, ParseUintField<trust::AgentId>(fields[1], "trustee",
                                                   corrupt));
    if (fields[2] != "*") {
      SIOT_ASSIGN_OR_RETURN(
          op.task, ParseUintField<trust::TaskId>(fields[2], "task", corrupt));
    }
    SIOT_ASSIGN_OR_RETURN(op.value,
                          ParseDoubleField(fields[3], "theta", corrupt));
    return op;
  }
  if (word == "env") {
    op.kind = WalOpKind::kEnv;
    if (fields.size() != 3) {
      return corrupt("expected 3 fields");
    }
    SIOT_ASSIGN_OR_RETURN(
        op.trustor,
        ParseUintField<trust::AgentId>(fields[1], "agent", corrupt));
    SIOT_ASSIGN_OR_RETURN(op.value,
                          ParseDoubleField(fields[2], "indicator", corrupt));
    return op;
  }
  return corrupt(StrFormat("unknown op '%s'", word.c_str()));
}

/// The model's value rules on a decoded op, whichever format spelled it:
/// the bare reason the op breaks one, or an empty string.
std::string OpViolation(const WalOp& op) {
  switch (op.kind) {
    case WalOpKind::kOutcome: {
      std::string why = trust::AgentViolation(op.trustor, op.trustee);
      return why.empty() ? trust::OutcomeViolation(op.outcome) : why;
    }
    case WalOpKind::kTask:
      for (const trust::CharacteristicId c : op.characteristics) {
        if (std::string why = trust::CharacteristicViolation(c);
            !why.empty()) {
          return why;
        }
      }
      return "";
    case WalOpKind::kTheta:
      return trust::ThetaViolation(op.value);
    case WalOpKind::kEnv:
      return trust::IndicatorViolation(op.value);
  }
  return "";
}

}  // namespace

StatusOr<WalOp> DecodeAnyVersion(std::string_view payload) {
  SIOT_ASSIGN_OR_RETURN(WalOp op, WalPayloadFormat(payload) == kWalFormatBinary
                                      ? DecodeBinaryOp(payload)
                                      : DecodeTextOp(payload));
  if (std::string why = OpViolation(op); !why.empty()) {
    return WalOpCorruption(payload, why);
  }
  return op;
}

}  // namespace siot::service
