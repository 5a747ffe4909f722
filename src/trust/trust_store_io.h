// Copyright 2026 The siot-trust Authors.
// TrustEngine state persistence. Social IoT devices reboot and re-join;
// their accumulated trust state must survive, so an engine's dynamic
// state serializes to a line-oriented text format (the v1 text
// checkpoint a service shard stores):
//
//   task <id> <name> <m> <characteristic>:<weight> ...
//   default_theta <theta>
//   threshold <trustee> <task|*> <theta>
//   default_env <indicator>
//   env <agent> <indicator>
//   usage <trustee> <trustor> <responsive> <abusive>
//   record <trustor> <trustee> <task> <S> <G> <D> <C> <observations>
//
// '#' starts a comment. Task names are percent-escaped (space, '%', '#',
// control bytes), so every line splits on single spaces. Parsing is
// strict: malformed lines are errors, not silently skipped — a half-loaded
// trust state is worse than none — and every Corruption message carries
// the line number, byte offset, and a snippet of the offending line so a
// bad record inside a multi-megabyte checkpoint is findable.
//
// Serialization is canonical (every section sorted), so equal states
// produce identical bytes, and serialize → deserialize → serialize is a
// byte-level fixed point — the restart tests compare state by comparing
// these strings.
//
// This header is also the storage rulebook every decoder shares, text
// or binary, WAL or checkpoint: the model's value rules, the text-field
// parsers, and the StateRestorer all state restores go through.

#ifndef SIOT_TRUST_TRUST_STORE_IO_H_
#define SIOT_TRUST_TRUST_STORE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"
#include "trust/mutual.h"
#include "trust/task.h"
#include "trust/trust_store.h"
#include "trust/update.h"

namespace siot::trust {

class TrustEngine;

/// Quotes up to 60 chars of `text` for a Corruption message
/// ("'record 1 2 ...'"), the one snippet format every parser shares.
std::string CorruptionSnippet(std::string_view text);

// ------------------------------------------------------- value rules --
// The model's rules for logged and restored state, one function each,
// shared by every storage decoder (text and binary WAL ops, text and
// binary checkpoints). Each returns the bare reason a value breaks its
// rule, or an empty string when it holds; the caller wraps the reason in
// its own context (payload snippet, line and offset, or section name).

/// θ is not NaN. The serving boundary rejects NaN thresholds: NaN != NaN
/// would defeat MissingAdminOps' exact-equality compare and re-log the
/// op on every restart.
std::string ThetaViolation(double theta);

/// An Eq. 29 environment indicator lies in (0, 1]; EnvironmentModel
/// SIOT_CHECKs it.
std::string IndicatorViolation(double indicator);

/// A characteristic is below kMaxCharacteristics (task masks are 64-bit
/// words). It takes a wide value so no narrowing cast can hide a
/// violation; see ParseUintField.
std::string CharacteristicViolation(std::uint64_t characteristic);

/// Neither trustor nor trustee is the kNoAgent sentinel.
std::string AgentViolation(AgentId trustor, AgentId trustee);

/// An outcome's gain, damage and cost are finite: the serving boundary
/// never logs a non-finite observation, and applying one would poison
/// the estimates.
std::string OutcomeViolation(const DelegationOutcome& outcome);

// ------------------------------------------------ text-field parsers --
// Shared by the text WAL-op parser and the text engine-state parser.
// `corruption(what)` wraps the bare reason in the caller's context and
// returns the Corruption status.

/// A decimal field that `T` holds exactly: an id, count or
/// characteristic. A value outside `T`'s range is malformed, so no later
/// narrowing cast can turn characteristic 300 into 44.
template <typename T, typename Corruption>
StatusOr<T> ParseUintField(const std::string& field, const char* name,
                           const Corruption& corruption) {
  const auto parsed = ParseInt(field);
  if (!parsed.ok() || !std::in_range<T>(parsed.value())) {
    return corruption(
        StrFormat("malformed %s '%s'", name, field.c_str()));
  }
  return static_cast<T>(parsed.value());
}

template <typename Corruption>
StatusOr<double> ParseDoubleField(const std::string& field,
                                  const char* name,
                                  const Corruption& corruption) {
  const auto parsed = ParseDouble(field);
  if (!parsed.ok()) {
    return corruption(
        StrFormat("malformed %s '%s'", name, field.c_str()));
  }
  return parsed.value();
}

// ------------------------------------------------------ state restore --

/// Restores serialized engine state entry by entry: the one path every
/// state format takes into an engine. The text parser and the v2
/// checkpoint sections feed it parsed entries; it applies the value rules
/// above, refuses an entry whose key it already restored (canonical
/// serialization never repeats one, so a repeat means a truncated or
/// concatenated file), and never lets a bad value reach an engine
/// SIOT_CHECK. The fresh engine itself is the duplicate check: an entry
/// that does not grow its table repeats a key, so a restore keeps no
/// second copy of any section's keys. Each entry method applies the
/// entry and returns an empty string, or returns the bare reason it
/// refused it; the parser wraps that in its own context.
class StateRestorer {
 public:
  /// InvalidArgument for a null engine; FailedPrecondition unless it is
  /// freshly constructed (no tasks, records, thresholds, indicators or
  /// usage histories) — merging two states is never meaningful.
  static StatusOr<StateRestorer> ForEngine(TrustEngine* engine);

  /// Adds the next task with the weights as stored (Restore, not Add:
  /// renormalizing would perturb them, 1/3 + 1/3 + 1/3 != 1.0). The
  /// catalog refuses a characteristic out of range itself.
  std::string NextTask(std::string name,
                       std::vector<WeightedCharacteristic> parts);
  void DefaultTheta(double theta);
  std::string Threshold(AgentId trustee, TaskId task, double theta);
  std::string DefaultIndicator(double indicator);
  std::string Indicator(AgentId agent, double indicator);
  std::string Usage(AgentId trustee, AgentId trustor,
                    const UsageHistory& history);
  std::string Record(const TrustKey& key, const TrustRecord& record);

  // Table sizing for a section that states its entry count up front. The
  // caller has checked `count` against the bytes the section holds, so a
  // lying count cannot size a huge table.
  void ReserveThresholds(std::size_t count);
  void ReserveIndicators(std::size_t count);
  void ReserveUsage(std::size_t count);
  /// `records` records in at most `pairs` distinct pairs.
  void ReserveRecords(std::size_t pairs, std::size_t records);

 private:
  explicit StateRestorer(TrustEngine* engine) : engine_(engine) {}

  TrustEngine* engine_;
};

/// Serializes every record (sorted by key, so output is canonical): the
/// `record` lines of the engine-state format.
std::string SerializeTrustStore(const TrustStore& store);

/// Percent-escapes a name token (space, '%', '#', control bytes) so it
/// occupies exactly one space-separated field in a serialized line.
std::string EscapeNameToken(std::string_view raw);

/// Inverse of EscapeNameToken; Corruption on a malformed escape.
StatusOr<std::string> UnescapeNameToken(std::string_view token);

/// Serializes everything in an engine that must survive a restart: the
/// task catalog, reverse-evaluation thresholds and usage histories,
/// environment indicators, and the trust store. Engine CONFIGURATION
/// (forgetting factors, strategy, normalization, ...) is construction-time
/// state and is NOT serialized — the caller recreates the engine with the
/// same config and restores the dynamic state into it.
std::string SerializeTrustEngineState(const TrustEngine& engine);

/// Restores state serialized by SerializeTrustEngineState into a freshly
/// constructed engine (FailedPrecondition if the engine already holds any
/// state; see StateRestorer::ForEngine).
/// Round trip is exact: serializing the restored engine reproduces the
/// input byte for byte.
Status DeserializeTrustEngineState(std::string_view text,
                                   TrustEngine* engine);

}  // namespace siot::trust

#endif  // SIOT_TRUST_TRUST_STORE_IO_H_
