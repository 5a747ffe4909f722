// Copyright 2026 The siot-trust Authors.

#include "service/checkpoint_codec.h"

#include <utility>

#include "common/byte_codec.h"
#include "common/checksum.h"
#include "common/string_util.h"
#include "trust/trust_engine.h"
#include "trust/trust_store.h"
#include "trust/trust_store_io.h"
#include "trust/types.h"

namespace siot::service {

namespace {

constexpr char kCheckpointMagic[] = "siot-checkpoint";
/// v2 prologue after the format byte; with it, 8 bytes total.
constexpr char kBinaryMagic[] = "siotckp";
constexpr std::size_t kBinaryMagicBytes = 7;
/// [format byte][magic][u64 applied_seq][u32 section_count]
/// [u32 masked crc32c of the preceding 20 bytes]. The header CRC is what
/// keeps applied_seq honest — every other byte of the file sits under a
/// section CRC, and a silently flipped sequence number would skip or
/// double-apply WAL frames on recovery.
constexpr std::size_t kBinaryHeaderBytes = 1 + kBinaryMagicBytes + 8 + 4 + 4;
/// [u8 id][u64 body_len][u32 masked crc32c(body)].
constexpr std::size_t kSectionHeaderBytes = 1 + 8 + 4;

const char* SectionName(CheckpointSection id) {
  switch (id) {
    case CheckpointSection::kCatalog:
      return "catalog";
    case CheckpointSection::kThresholds:
      return "thresholds";
    case CheckpointSection::kEnv:
      return "env";
    case CheckpointSection::kUsage:
      return "usage";
    case CheckpointSection::kRecords:
      return "records";
  }
  return "unknown";
}

Status HeaderCorruption(const std::string& path, const std::string& what) {
  return Status::Corruption("checkpoint " + path + ": " + what);
}

Status SectionCorruption(const std::string& path, CheckpointSection id,
                         const std::string& what) {
  return Status::Corruption(StrFormat("checkpoint %s: %s section: %s",
                                      path.c_str(), SectionName(id),
                                      what.c_str()));
}

}  // namespace

// --------------------------------------------------------- v1 (text) --

std::string EncodeCheckpointText(std::uint64_t applied_seq,
                                 const trust::TrustEngine& engine) {
  const std::string body =
      StrFormat("applied_seq %llu\n",
                static_cast<unsigned long long>(applied_seq)) +
      trust::SerializeTrustEngineState(engine);
  return StrFormat("%s 1 %zu %u\n", kCheckpointMagic, body.size(),
                   Crc32cMask(Crc32c(body))) +
         body;
}

namespace {

/// Parses the v1 text layout: header line, whole-body CRC, applied_seq
/// line, then the text engine-state body.
Status DecodeCheckpointTextImpl(std::string_view bytes,
                                const std::string& path,
                                std::uint64_t* applied_seq,
                                trust::TrustEngine* engine) {
  const std::size_t newline = bytes.find('\n');
  if (newline == std::string_view::npos) {
    return HeaderCorruption(path, "missing header");
  }
  const std::vector<std::string> header =
      Split(std::string(bytes.substr(0, newline)), ' ');
  if (header.size() != 4 || header[0] != kCheckpointMagic ||
      header[1] != "1") {
    return HeaderCorruption(path, "bad header '" +
                                      std::string(bytes.substr(
                                          0, newline)) +
                                      "'");
  }
  const auto body_bytes = ParseInt(header[2]);
  const auto stored_crc = ParseInt(header[3]);
  if (!body_bytes.ok() || body_bytes.value() < 0 || !stored_crc.ok() ||
      stored_crc.value() < 0 || stored_crc.value() > 0xFFFFFFFFll) {
    return HeaderCorruption(path, "malformed header fields");
  }
  std::string_view body = bytes.substr(newline + 1);
  if (body.size() != static_cast<std::size_t>(body_bytes.value())) {
    return HeaderCorruption(
        path,
        StrFormat("body is %zu bytes, header says %lld (truncated?)",
                  body.size(),
                  static_cast<long long>(body_bytes.value())));
  }
  if (Crc32cMask(Crc32c(body)) !=
      static_cast<std::uint32_t>(stored_crc.value())) {
    return HeaderCorruption(path, "CRC mismatch (bit rot?)");
  }
  // The body's first line carries the last WAL sequence folded in.
  const std::size_t body_newline = body.find('\n');
  const std::vector<std::string> seq_fields = Split(
      std::string(body.substr(0, body_newline == std::string_view::npos
                                     ? body.size()
                                     : body_newline)),
      ' ');
  const auto seq = seq_fields.size() == 2 && seq_fields[0] == "applied_seq"
                       ? ParseInt(seq_fields[1])
                       : StatusOr<std::int64_t>(
                             Status::Corruption("missing applied_seq"));
  if (!seq.ok() || seq.value() < 0) {
    return HeaderCorruption(path, "missing applied_seq line");
  }
  *applied_seq = static_cast<std::uint64_t>(seq.value());
  return trust::DeserializeTrustEngineState(body.substr(body_newline + 1),
                                            engine);
}

}  // namespace

// ------------------------------------------------------- v2 (binary) --

std::string EncodeCheckpointBinary(
    std::uint64_t applied_seq, const trust::TrustEngine& engine,
    std::vector<std::size_t>* section_ends) {
  std::string out;
  out.push_back(static_cast<char>(kCheckpointFormatBinary));
  out.append(kBinaryMagic, kBinaryMagicBytes);
  PutU64(&out, applied_seq);
  PutU32(&out, static_cast<std::uint32_t>(kCheckpointSectionCount));
  PutU32(&out, Crc32cMask(Crc32c(out)));
  if (section_ends != nullptr) section_ends->clear();

  const auto append_section = [&](CheckpointSection id,
                                  const std::string& body) {
    out.push_back(static_cast<char>(id));
    PutU64(&out, body.size());
    PutU32(&out, Crc32cMask(Crc32c(body)));
    out += body;
    if (section_ends != nullptr) section_ends->push_back(out.size());
  };

  std::string body;
  // 1 catalog: dense task ids are implicit in the order.
  const trust::TaskCatalog& catalog = engine.catalog();
  PutU32(&body, static_cast<std::uint32_t>(catalog.size()));
  for (trust::TaskId id = 0; id < catalog.size(); ++id) {
    const trust::Task& task = catalog.Get(id);
    PutU32(&body, static_cast<std::uint32_t>(task.name().size()));
    body += task.name();
    PutU16(&body, static_cast<std::uint16_t>(task.parts().size()));
    for (const trust::WeightedCharacteristic& part : task.parts()) {
      body.push_back(static_cast<char>(part.id));
      PutF64(&body, part.weight);
    }
  }
  append_section(CheckpointSection::kCatalog, body);

  // 2 thresholds.
  body.clear();
  const trust::ReverseEvaluator& reverse = engine.reverse_evaluator();
  PutF64(&body, reverse.default_threshold());
  const auto thresholds = reverse.AllThresholds();
  PutU64(&body, thresholds.size());
  for (const trust::ThresholdEntry& entry : thresholds) {
    PutU32(&body, entry.trustee);
    PutU32(&body, entry.task);
    PutF64(&body, entry.theta);
  }
  append_section(CheckpointSection::kThresholds, body);

  // 3 env.
  body.clear();
  const trust::EnvironmentModel& environment = engine.environment();
  PutF64(&body, environment.default_indicator());
  const auto indicators = environment.AllIndicators();
  PutU64(&body, indicators.size());
  for (const auto& [agent, indicator] : indicators) {
    PutU32(&body, agent);
    PutF64(&body, indicator);
  }
  append_section(CheckpointSection::kEnv, body);

  // 4 usage.
  body.clear();
  const auto histories = reverse.AllHistories();
  PutU64(&body, histories.size());
  for (const trust::UsageEntry& entry : histories) {
    PutU32(&body, entry.trustee);
    PutU32(&body, entry.trustor);
    PutU64(&body, entry.history.responsive_uses);
    PutU64(&body, entry.history.abusive_uses);
  }
  append_section(CheckpointSection::kUsage, body);

  // 5 records, pair-major (AllRecords' canonical sort).
  body.clear();
  const auto records = engine.store().AllRecords();
  PutU64(&body, records.size());
  for (const auto& [key, record] : records) {
    PutU32(&body, key.trustor);
    PutU32(&body, key.trustee);
    PutU32(&body, key.task);
    PutF64(&body, record.estimates.success_rate);
    PutF64(&body, record.estimates.gain);
    PutF64(&body, record.estimates.damage);
    PutF64(&body, record.estimates.cost);
    PutU64(&body, record.observations);
  }
  append_section(CheckpointSection::kRecords, body);
  return out;
}

namespace {

// Per-entry byte sizes of the fixed-stride sections, used to reject a
// lying count field before it sizes a loop or a table (the bounds-checked
// reader would catch it too, but rejecting up front names the real
// problem, and a checked count can reserve the engine's table at once).
constexpr std::size_t kThresholdEntryBytes = 4 + 4 + 8;
constexpr std::size_t kEnvEntryBytes = 4 + 8;
constexpr std::size_t kUsageEntryBytes = 4 + 4 + 8 + 8;
constexpr std::size_t kRecordEntryBytes = 4 + 4 + 4 + 4 * 8 + 8;

/// Parses one CRC-checked section body and feeds its entries to
/// `restorer`, which applies the value rules and duplicate checks; this
/// function checks only the byte layout.
Status RestoreSection(CheckpointSection id, std::string_view body,
                      const std::string& path,
                      trust::StateRestorer* restorer) {
  const auto fail = [&](const std::string& what) {
    return SectionCorruption(path, id, what);
  };
  const auto refused = [&](const std::string& why) {
    return why.empty() ? Status::OK() : fail(why);
  };
  BinaryReader reader(body);
  // Every section but the catalog opens with a u64 entry count (after a
  // default value for thresholds and env).
  std::uint64_t count = 0;
  const auto read_count = [&](std::size_t entry_bytes) {
    if (!reader.U64(&count)) return fail("truncated section header");
    if (count > reader.remaining() / entry_bytes) {
      return fail(StrFormat("count %llu exceeds the %zu bytes the section "
                            "holds",
                            static_cast<unsigned long long>(count),
                            reader.remaining()));
    }
    return Status::OK();
  };
  switch (id) {
    case CheckpointSection::kCatalog: {
      std::uint32_t task_count = 0;
      if (!reader.U32(&task_count)) return fail("truncated task count");
      for (std::uint32_t t = 0; t < task_count; ++t) {
        std::uint32_t name_len = 0;
        std::string name;
        std::uint16_t part_count = 0;
        if (!reader.U32(&name_len) || !reader.Bytes(name_len, &name) ||
            !reader.U16(&part_count)) {
          return fail(StrFormat("truncated task %u of %u", t, task_count));
        }
        std::vector<trust::WeightedCharacteristic> parts(part_count);
        for (std::uint16_t p = 0; p < part_count; ++p) {
          if (!reader.U8(&parts[p].id) || !reader.F64(&parts[p].weight)) {
            return fail(StrFormat("truncated part %u of task %u", p, t));
          }
        }
        SIOT_RETURN_IF_ERROR(
            refused(restorer->NextTask(std::move(name), std::move(parts))));
      }
      break;
    }
    case CheckpointSection::kThresholds: {
      double default_theta = 0.0;
      if (!reader.F64(&default_theta)) {
        return fail("truncated section header");
      }
      SIOT_RETURN_IF_ERROR(read_count(kThresholdEntryBytes));
      restorer->DefaultTheta(default_theta);
      restorer->ReserveThresholds(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        std::uint32_t trustee = 0;
        std::uint32_t task = 0;
        double theta = 0.0;
        if (!reader.U32(&trustee) || !reader.U32(&task) ||
            !reader.F64(&theta)) {
          return fail("truncated entry");
        }
        SIOT_RETURN_IF_ERROR(
            refused(restorer->Threshold(trustee, task, theta)));
      }
      break;
    }
    case CheckpointSection::kEnv: {
      double default_indicator = 0.0;
      if (!reader.F64(&default_indicator)) {
        return fail("truncated section header");
      }
      SIOT_RETURN_IF_ERROR(read_count(kEnvEntryBytes));
      SIOT_RETURN_IF_ERROR(
          refused(restorer->DefaultIndicator(default_indicator)));
      restorer->ReserveIndicators(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        std::uint32_t agent = 0;
        double indicator = 0.0;
        if (!reader.U32(&agent) || !reader.F64(&indicator)) {
          return fail("truncated entry");
        }
        SIOT_RETURN_IF_ERROR(refused(restorer->Indicator(agent, indicator)));
      }
      break;
    }
    case CheckpointSection::kUsage: {
      SIOT_RETURN_IF_ERROR(read_count(kUsageEntryBytes));
      restorer->ReserveUsage(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        std::uint32_t trustee = 0;
        std::uint32_t trustor = 0;
        std::uint64_t responsive = 0;
        std::uint64_t abusive = 0;
        if (!reader.U32(&trustee) || !reader.U32(&trustor) ||
            !reader.U64(&responsive) || !reader.U64(&abusive)) {
          return fail("truncated entry");
        }
        SIOT_RETURN_IF_ERROR(refused(restorer->Usage(
            trustee, trustor,
            trust::UsageHistory{static_cast<std::size_t>(responsive),
                                static_cast<std::size_t>(abusive)})));
      }
      break;
    }
    case CheckpointSection::kRecords: {
      SIOT_RETURN_IF_ERROR(read_count(kRecordEntryBytes));
      restorer->ReserveRecords(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        trust::TrustKey key;
        trust::OutcomeEstimates e;
        std::uint64_t observations = 0;
        if (!reader.U32(&key.trustor) || !reader.U32(&key.trustee) ||
            !reader.U32(&key.task) || !reader.F64(&e.success_rate) ||
            !reader.F64(&e.gain) || !reader.F64(&e.damage) ||
            !reader.F64(&e.cost) || !reader.U64(&observations)) {
          return fail("truncated entry");
        }
        SIOT_RETURN_IF_ERROR(refused(restorer->Record(
            key,
            trust::TrustRecord{e, static_cast<std::size_t>(observations)})));
      }
      break;
    }
  }
  if (reader.remaining() != 0) {
    return fail(StrFormat("%zu trailing bytes", reader.remaining()));
  }
  return Status::OK();
}

/// Walks the v2 header and sections, CRC-validating every body before
/// its section decoder runs.
Status DecodeCheckpointBinaryImpl(std::string_view bytes,
                                  const std::string& path,
                                  std::uint64_t* applied_seq,
                                  trust::TrustEngine* engine) {
  SIOT_ASSIGN_OR_RETURN(trust::StateRestorer restorer,
                        trust::StateRestorer::ForEngine(engine));
  BinaryReader reader(bytes);
  std::uint8_t format = 0;
  std::string_view magic;
  std::uint32_t section_count = 0;
  std::uint32_t header_crc = 0;
  if (!reader.U8(&format) || !reader.View(kBinaryMagicBytes, &magic) ||
      !reader.U64(applied_seq) || !reader.U32(&section_count) ||
      !reader.U32(&header_crc)) {
    return HeaderCorruption(
        path, StrFormat("truncated binary header (%zu of %zu bytes)",
                        bytes.size(), kBinaryHeaderBytes));
  }
  if (magic != std::string_view(kBinaryMagic, kBinaryMagicBytes)) {
    return HeaderCorruption(path, "bad binary magic");
  }
  if (Crc32cMask(Crc32c(bytes.substr(0, kBinaryHeaderBytes - 4))) !=
      header_crc) {
    return HeaderCorruption(path, "header CRC mismatch (bit rot?)");
  }
  if (section_count != kCheckpointSectionCount) {
    // v2 holds exactly the five known sections; a different count is a
    // format this reader does not speak (or a flipped header byte).
    return HeaderCorruption(
        path, StrFormat("section count %u, expected %zu", section_count,
                        kCheckpointSectionCount));
  }
  for (std::size_t i = 0; i < kCheckpointSectionCount; ++i) {
    const auto expected = static_cast<CheckpointSection>(i + 1);
    std::uint8_t id = 0;
    std::uint64_t body_len = 0;
    std::uint32_t stored_crc = 0;
    if (!reader.U8(&id) || !reader.U64(&body_len) ||
        !reader.U32(&stored_crc)) {
      return SectionCorruption(path, expected,
                               "truncated section header");
    }
    if (id != static_cast<std::uint8_t>(expected)) {
      return SectionCorruption(
          path, expected,
          StrFormat("section id %u out of order (expected %u)", id,
                    static_cast<unsigned>(expected)));
    }
    std::string_view body;
    if (!reader.View(body_len, &body)) {
      return SectionCorruption(
          path, expected,
          StrFormat("declares %llu body bytes but only %zu remain "
                    "(torn checkpoint?)",
                    static_cast<unsigned long long>(body_len),
                    reader.remaining()));
    }
    if (Crc32cMask(Crc32c(body)) != stored_crc) {
      return SectionCorruption(path, expected, "CRC mismatch (bit rot?)");
    }
    SIOT_RETURN_IF_ERROR(RestoreSection(expected, body, path, &restorer));
  }
  if (reader.remaining() != 0) {
    return HeaderCorruption(
        path, StrFormat("%zu trailing bytes past the last section",
                        reader.remaining()));
  }
  return Status::OK();
}

}  // namespace

// ----------------------------------------------------------- dispatch --

std::uint8_t CheckpointFormat(std::string_view bytes) {
  return !bytes.empty() && static_cast<unsigned char>(bytes.front()) ==
                               kCheckpointFormatBinary
             ? kCheckpointFormatBinary
             : kCheckpointFormatText;
}

Status DecodeCheckpoint(std::string_view bytes, const std::string& path,
                        std::uint64_t* applied_seq,
                        trust::TrustEngine* engine) {
  if (bytes.empty()) {
    return HeaderCorruption(path, "empty checkpoint file");
  }
  if (CheckpointFormat(bytes) == kCheckpointFormatBinary) {
    return DecodeCheckpointBinaryImpl(bytes, path, applied_seq, engine);
  }
  const auto first = static_cast<unsigned char>(bytes.front());
  if (first < 0x20 || first >= 0x7F) {
    // Neither the binary version byte nor printable ASCII opening the v1
    // text magic: a format this reader does not speak, or a flipped
    // first byte.
    return HeaderCorruption(
        path, StrFormat("unknown format byte 0x%02x", first));
  }
  return DecodeCheckpointTextImpl(bytes, path, applied_seq, engine);
}

}  // namespace siot::service
