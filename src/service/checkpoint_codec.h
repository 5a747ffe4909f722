// Copyright 2026 The siot-trust Authors.
// Versioned checkpoint codec: the ONE place that knows how a shard's full
// engine state is spelled as a checkpoint file, mirroring the WAL codec's
// no-migration discipline (service/wal_codec.h).
//
// Two formats share the first-byte dispatch:
//
//   v1 (text)    the pre-binary layout, parsed forever:
//                  siot-checkpoint 1 <body_bytes> <masked-crc32c>\n
//                  applied_seq <N>\n
//                  <SerializeTrustEngineState body>
//                One whole-body CRC; the body is the canonical text
//                engine-state serialization (sorted sections, %.17g
//                doubles, %-escaped names). Its first byte is the 's' of
//                the magic — printable ASCII, so the dispatch byte is
//                free.
//   v2 (binary)  sectioned fixed little-endian layout:
//                  [0x02]["siotckp"][u64 applied_seq][u32 section_count]
//                  [u32 masked crc32c of the preceding 20 bytes]
//                then section_count sections, each
//                  [u8 section id][u64 body_len][u32 masked crc32c(body)]
//                  [body]
//                Section ids, in file order (a v2 file holds exactly
//                these five, ascending — anything else is a v3 and gets a
//                new format byte):
//                  1 catalog     u32 task_count; per task (id = dense
//                                index): u32 name_len, raw name bytes (no
//                                escaping), u16 part_count, then per part
//                                u8 characteristic + f64 weight. Weights
//                                are ALREADY-normalized raw IEEE-754 bits
//                                (TaskCatalog::Restore skips the
//                                renormalize divide — bit-exact round
//                                trip).
//                  2 thresholds  f64 default_theta; u64 count; per entry
//                                u32 trustee, u32 task (kNoTask
//                                represents itself), f64 theta.
//                  3 env         f64 default_indicator; u64 count; per
//                                entry u32 agent, f64 indicator.
//                  4 usage       u64 count; per entry u32 trustee,
//                                u32 trustor, u64 responsive, u64 abusive.
//                  5 records     u64 count; per entry (pair-major — the
//                                TrustStore's canonical AllRecords order)
//                                u32 trustor, u32 trustee, u32 task,
//                                f64 success/gain/damage/cost,
//                                u64 observations.
//                Every f64 is a raw bit pattern: recovery and followers
//                compare restored state by BYTE equality of the text
//                re-serialization, so the codec must never lose a bit.
//                Per-section lengths + CRCs mean a torn or
//                bit-flipped file is classified Corruption NAMING the
//                damaged section, never a crash or a silently wrong
//                restore.
//
// Decoding dispatches on the first byte (0x02 = binary; printable ASCII =
// v1 text), so a directory checkpointed before the binary format — or a
// mixed directory (text checkpoint + binary WAL tail, or vice versa) —
// recovers byte-identically with no migration step. Encoders for BOTH
// formats stay exported: the service writes v2, the compat fixtures and
// the restore benches write v1 deliberately.
//
// Both formats parse bytes only and restore through the one
// trust::StateRestorer (trust/trust_store_io.h) that the text parser
// uses too: it owns the fresh-engine precondition, the duplicate-entry
// checks and the model's value rules (NaN thresholds, indicators outside
// (0, 1]), so a corrupt-but-CRC-valid file can never trip an engine
// SIOT_CHECK or restore state the text serializer would not reproduce.

#ifndef SIOT_SERVICE_CHECKPOINT_CODEC_H_
#define SIOT_SERVICE_CHECKPOINT_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace siot::trust {
class TrustEngine;
}  // namespace siot::trust

namespace siot::service {

/// Checkpoint format versions. v2's leading byte is the version number
/// itself; v1 is implied by a printable-ASCII first byte (the 's' of its
/// "siot-checkpoint" magic).
inline constexpr std::uint8_t kCheckpointFormatText = 1;
inline constexpr std::uint8_t kCheckpointFormatBinary = 2;

/// v2 section ids, in file order.
enum class CheckpointSection : std::uint8_t {
  kCatalog = 1,
  kThresholds = 2,
  kEnv = 3,
  kUsage = 4,
  kRecords = 5,
};
inline constexpr std::size_t kCheckpointSectionCount = 5;

/// Encodes the v1 text checkpoint (header + applied_seq line +
/// SerializeTrustEngineState), byte-identical to what the pre-binary
/// service wrote.
std::string EncodeCheckpointText(std::uint64_t applied_seq,
                                 const trust::TrustEngine& engine);

/// Encodes the v2 sectioned binary checkpoint. When `section_ends` is
/// non-null it receives the byte offset of the END of each section (five
/// ascending offsets, the last = total size) — the checkpoint writer's
/// mid-section kill-points stand exactly on these boundaries.
std::string EncodeCheckpointBinary(std::uint64_t applied_seq,
                                   const trust::TrustEngine& engine,
                                   std::vector<std::size_t>* section_ends);

/// The format version `bytes` claims (kCheckpointFormatBinary for a
/// leading 0x02, kCheckpointFormatText otherwise).
std::uint8_t CheckpointFormat(std::string_view bytes);

/// Decodes a checkpoint of either format into `applied_seq` and a
/// freshly constructed `engine` (FailedPrecondition if the engine
/// already holds state). Corruption on any framing, checksum, or
/// semantic violation — never a crash, never a partial restore that a
/// later serialize would spell differently.
Status DecodeCheckpoint(std::string_view bytes, const std::string& path,
                        std::uint64_t* applied_seq,
                        trust::TrustEngine* engine);

}  // namespace siot::service

#endif  // SIOT_SERVICE_CHECKPOINT_CODEC_H_
