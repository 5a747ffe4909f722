// Copyright 2026 The siot-trust Authors.

#include "service/checkpoint_codec.h"

#include <cstring>
#include <span>
#include <utility>

#include "common/byte_codec.h"
#include "common/checksum.h"
#include "common/macros.h"
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

// Per-entry byte sizes of the fixed-stride sections. The encoder sizes
// its output from them; the decoder rejects a lying count field before
// it sizes a loop or a table (the bounds-checked reader would catch it
// too, but rejecting up front names the real problem, and a checked
// count can reserve the engine's table at once).
constexpr std::size_t kThresholdEntryBytes = 4 + 4 + 8;
constexpr std::size_t kEnvEntryBytes = 4 + 8;
constexpr std::size_t kUsageEntryBytes = 4 + 4 + 8 + 8;
constexpr std::size_t kRecordEntryBytes = 4 + 4 + 4 + 4 * 8 + 8;

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
  const trust::TaskCatalog& catalog = engine.catalog();
  const trust::ReverseEvaluator& reverse = engine.reverse_evaluator();
  const trust::EnvironmentModel& environment = engine.environment();
  const trust::TrustStore& store = engine.store();
  const auto thresholds = reverse.AllThresholds();
  const auto indicators = environment.AllIndicators();

  // Every body's size follows from the table sizes, so the whole file is
  // sized once and each field is written in place.
  std::size_t catalog_bytes = 4;
  for (trust::TaskId id = 0; id < catalog.size(); ++id) {
    const trust::Task& task = catalog.Get(id);
    catalog_bytes += 4 + task.name().size() + 2 + task.parts().size() * (1 + 8);
  }
  const std::size_t body_bytes[kCheckpointSectionCount] = {
      catalog_bytes,
      8 + 8 + thresholds.size() * kThresholdEntryBytes,
      8 + 8 + indicators.size() * kEnvEntryBytes,
      8 + reverse.history_count() * kUsageEntryBytes,
      8 + store.size() * kRecordEntryBytes,
  };
  std::size_t total = kBinaryHeaderBytes;
  for (const std::size_t bytes : body_bytes) {
    total += kSectionHeaderBytes + bytes;
  }
  std::string out(total, '\0');
  FixedWriter writer(out.data());
  writer.U8(kCheckpointFormatBinary);
  writer.Bytes(std::string_view(kBinaryMagic, kBinaryMagicBytes));
  writer.U64(applied_seq);
  writer.U32(static_cast<std::uint32_t>(kCheckpointSectionCount));
  writer.U32(Crc32cMask(
      Crc32c(std::string_view(out.data(), kBinaryHeaderBytes - 4))));
  if (section_ends != nullptr) section_ends->clear();

  // Writes a section header, then `write_body`'s body, then the body's
  // CRC into the header.
  const auto section = [&](CheckpointSection id, const auto& write_body) {
    const std::size_t bytes = body_bytes[static_cast<std::size_t>(id) - 1];
    writer.U8(static_cast<std::uint8_t>(id));
    writer.U64(bytes);
    char* const crc = writer.position();
    writer.U32(0);
    char* const body = writer.position();
    write_body();
    SIOT_CHECK(writer.position() == body + bytes);
    FixedWriter(crc).U32(Crc32cMask(Crc32c(std::string_view(body, bytes))));
    if (section_ends != nullptr) {
      section_ends->push_back(
          static_cast<std::size_t>(writer.position() - out.data()));
    }
  };

  // 1 catalog: dense task ids are implicit in the order.
  section(CheckpointSection::kCatalog, [&] {
    writer.U32(static_cast<std::uint32_t>(catalog.size()));
    for (trust::TaskId id = 0; id < catalog.size(); ++id) {
      const trust::Task& task = catalog.Get(id);
      writer.U32(static_cast<std::uint32_t>(task.name().size()));
      writer.Bytes(task.name());
      writer.U16(static_cast<std::uint16_t>(task.parts().size()));
      for (const trust::WeightedCharacteristic& part : task.parts()) {
        writer.U8(static_cast<std::uint8_t>(part.id));
        writer.F64(part.weight);
      }
    }
  });

  // 2 thresholds.
  section(CheckpointSection::kThresholds, [&] {
    writer.F64(reverse.default_threshold());
    writer.U64(thresholds.size());
    for (const trust::ThresholdEntry& entry : thresholds) {
      writer.U32(entry.trustee);
      writer.U32(entry.task);
      writer.F64(entry.theta);
    }
  });

  // 3 env.
  section(CheckpointSection::kEnv, [&] {
    writer.F64(environment.default_indicator());
    writer.U64(indicators.size());
    for (const auto& [agent, indicator] : indicators) {
      writer.U32(agent);
      writer.F64(indicator);
    }
  });

  // 4 usage.
  section(CheckpointSection::kUsage, [&] {
    writer.U64(reverse.history_count());
    reverse.ForEachHistorySorted([&](trust::AgentId trustee,
                                     trust::AgentId trustor,
                                     const trust::UsageHistory& history) {
      writer.U32(trustee);
      writer.U32(trustor);
      writer.U64(history.responsive_uses);
      writer.U64(history.abusive_uses);
    });
  });

  // 5 records, pair-major (AllRecords' canonical order).
  section(CheckpointSection::kRecords, [&] {
    writer.U64(store.size());
    store.ForEachPairSorted(
        [&](trust::AgentId trustor, trust::AgentId trustee,
            std::span<const trust::PairTaskRecord> records) {
          for (const trust::PairTaskRecord& entry : records) {
            const trust::TrustRecord& record = entry.record;
            writer.U32(trustor);
            writer.U32(trustee);
            writer.U32(entry.task);
            writer.F64(record.estimates.success_rate);
            writer.F64(record.estimates.gain);
            writer.F64(record.estimates.damage);
            writer.F64(record.estimates.cost);
            writer.U64(record.observations);
          }
        });
  });
  return out;
}

namespace {

/// Number of runs of equal (trustor, trustee) among the `count` entries
/// of a records section body (after its count field): the pair count
/// when the section is sorted pair-major, as the encoder writes it, and
/// an upper bound on it otherwise.
std::size_t PairRuns(std::string_view entries, std::uint64_t count) {
  std::size_t runs = 0;
  std::uint64_t previous = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    // trustor and trustee are the first 8 bytes of an entry.
    std::uint64_t pair = 0;
    std::memcpy(&pair, entries.data() + i * kRecordEntryBytes, sizeof(pair));
    if (i == 0 || pair != previous) ++runs;
    previous = pair;
  }
  return runs;
}

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
      restorer->ReserveRecords(PairRuns(body.substr(8), count), count);
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
