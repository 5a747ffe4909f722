// Copyright 2026 The siot-trust Authors.
// Versioned WAL payload codec: the ONE place that knows how a logged
// trust-model mutation is spelled as bytes.
//
// Two payload formats share the frame layer (persistence.h keeps the
// [len][crc][seq] framing byte-identical across versions):
//
//   v1 (text)    single-line ops reusing the engine-state serialization
//                idioms (ids, %.17g doubles, percent-escaped names):
//                  outcome <trustor> <trustee> <task> <success> <gain>
//                          <damage> <cost> <abusive> <n> <intermediate>...
//                  task <name> <n_characteristics> <characteristic>...
//                  theta <trustee> <task|*> <value>
//                  env <agent> <indicator>
//                Every payload starts with a printable-ASCII op word, so
//                the first byte doubles as the format discriminator.
//   v2 (binary)  fixed little-endian fields (common/byte_codec.h)
//                behind a two-byte prologue [version 0x02][op kind];
//                doubles are raw IEEE-754 bit patterns (exact round trip
//                — recovery and MissingAdminOps compare replayed state by
//                equality, so the codec must never lose a bit), names are
//                length-prefixed raw bytes (no escaping), agent/task ids
//                are u32 with the kNoAgent/kNoTask sentinels representing
//                themselves. Op layouts (after the prologue):
//                  outcome  u32 trustor, u32 trustee, u32 task,
//                           u8 flags (bit0 success, bit1 abusive),
//                           f64 gain, f64 damage, f64 cost,
//                           u32 n, u32 intermediate × n
//                  task     u32 name_len, name bytes,
//                           u16 n, u8 characteristic × n
//                  theta    u32 trustee, u32 task, f64 theta
//                  env      u32 agent, f64 indicator
//
// DecodeAnyVersion dispatches on the first payload byte (0x02 = binary;
// printable ASCII = v1 text), so a WAL whose prefix predates the binary
// format — or a directory written entirely by a v1 service — replays
// with no migration step, frame by frame. Encoders for BOTH formats stay
// exported: the service writes v2, the mixed-version compatibility tests
// and benches write v1 deliberately.
//
// Decoding validates everything intrinsic to the payload and returns
// Corruption on any violation. Each format's decoder checks only its own
// shape (field counts, token syntax, flag bits, truncation); then one op
// check applies the model's value rules (sentinel ids, non-finite
// outcome values, NaN θ, indicators outside (0, 1], characteristics out
// of range), the functions in trust/trust_store_io.h that the checkpoint
// decoders share. Checks that need engine state (task registered in the
// catalog, duplicate task names) stay with ApplyWalOp in persistence.cc.

#ifndef SIOT_SERVICE_WAL_CODEC_H_
#define SIOT_SERVICE_WAL_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "trust/types.h"
#include "trust/update.h"

namespace siot::service {

/// WAL payload format versions. v2's leading byte is the version number
/// itself; v1 is implied by a printable-ASCII first byte (all v1 ops
/// start with a lowercase op word).
inline constexpr std::uint8_t kWalFormatText = 1;
inline constexpr std::uint8_t kWalFormatBinary = 2;

/// Binary op kind, the second prologue byte of a v2 payload.
enum class WalOpKind : std::uint8_t {
  kOutcome = 1,
  kTask = 2,
  kTheta = 3,
  kEnv = 4,
};

/// One decoded WAL op, format-independent. Which fields are meaningful
/// depends on `kind`; the rest keep their defaults.
struct WalOp {
  WalOpKind kind = WalOpKind::kOutcome;
  // kOutcome
  trust::AgentId trustor = trust::kNoAgent;
  trust::AgentId trustee = trust::kNoAgent;  ///< Also kTheta's trustee.
  trust::TaskId task = trust::kNoTask;       ///< Also kTheta's task.
  trust::DelegationOutcome outcome;
  bool trustor_was_abusive = false;
  std::vector<trust::AgentId> intermediates;
  // kTask
  std::string name;
  std::vector<trust::CharacteristicId> characteristics;
  // kTheta (threshold) / kEnv (indicator); kEnv's agent is `trustor`.
  double value = 0.0;
};

// ------------------------------------------------------- v1 encoders --

std::string EncodeOutcomeOp(trust::AgentId trustor, trust::AgentId trustee,
                            trust::TaskId task,
                            const trust::DelegationOutcome& outcome,
                            bool trustor_was_abusive,
                            const std::vector<trust::AgentId>& intermediates);
std::string EncodeTaskOp(
    const std::string& name,
    const std::vector<trust::CharacteristicId>& characteristics);
std::string EncodeThetaOp(trust::AgentId trustee, trust::TaskId task,
                          double theta);
std::string EncodeEnvOp(trust::AgentId agent, double indicator);

// ------------------------------------------------------- v2 encoders --

std::string EncodeOutcomeOpBinary(
    trust::AgentId trustor, trust::AgentId trustee, trust::TaskId task,
    const trust::DelegationOutcome& outcome, bool trustor_was_abusive,
    const std::vector<trust::AgentId>& intermediates);
std::string EncodeTaskOpBinary(
    const std::string& name,
    const std::vector<trust::CharacteristicId>& characteristics);
std::string EncodeThetaOpBinary(trust::AgentId trustee, trust::TaskId task,
                                double theta);
std::string EncodeEnvOpBinary(trust::AgentId agent, double indicator);

/// The format version `payload` claims (kWalFormatBinary for a leading
/// 0x02, kWalFormatText otherwise — text never needs a marker).
std::uint8_t WalPayloadFormat(std::string_view payload);

/// True when `first_byte` can begin a payload of ANY known format: the
/// binary version byte, or printable ASCII opening a v1 text op. The
/// frame decoder consults this BEFORE paying for the CRC, so a reader
/// can classify a frame from a future (or trashed) format as corrupt
/// without a checksum pass.
bool IsKnownWalFormatByte(unsigned char first_byte);

/// Decodes a payload of either format into a WalOp. Corruption on any
/// intrinsic violation; never inspects engine state.
StatusOr<WalOp> DecodeAnyVersion(std::string_view payload);

/// Corruption status naming the offending payload (snippet-escaped);
/// shared by the codec and ApplyWalOp's engine-dependent checks so every
/// op-level corruption reads the same.
Status WalOpCorruption(std::string_view payload, const std::string& what);

}  // namespace siot::service

#endif  // SIOT_SERVICE_WAL_CODEC_H_
