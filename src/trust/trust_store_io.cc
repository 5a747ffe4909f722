// Copyright 2026 The siot-trust Authors.

#include "trust/trust_store_io.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/string_util.h"
#include "trust/trust_engine.h"

namespace siot::trust {

namespace {

// ------------------------------------------------------ error context --
// Every parse error names the line, the byte offset of that line in the
// input, and a snippet of the offending text: a bad record in a multi-MB
// checkpoint must be findable with dd/sed, not by bisection.

struct LineContext {
  const char* label = "";
  std::size_t line_no = 0;
  std::size_t offset = 0;  ///< Byte offset of the line start in the input.
  std::string_view raw;    ///< The whole line as it appears in the input.
};

Status CorruptionAt(const LineContext& ctx, const std::string& what) {
  return Status::Corruption(StrFormat(
      "%s line %zu at byte offset %zu: %s in %s", ctx.label, ctx.line_no,
      ctx.offset, what.c_str(), CorruptionSnippet(ctx.raw).c_str()));
}

/// Splits `text` into lines, strips comments and blanks, and invokes
/// `fn(ctx, fields)` for every content line.
template <typename Fn>
Status ScanLines(std::string_view text, const char* label, const Fn& fn) {
  std::size_t line_no = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i != text.size() && text[i] != '\n') continue;
    ++line_no;
    const LineContext ctx{label, line_no, start,
                          text.substr(start, i - start)};
    start = i + 1;
    std::string_view line = ctx.raw;
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;
    SIOT_RETURN_IF_ERROR(fn(ctx, Split(line, ' ')));
  }
  return Status::OK();
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

}  // namespace

// ---------------------------------------------------------- escaping --
// Task names may contain spaces, '#', '%', or control bytes; they are
// percent-escaped so every serialized line splits on single spaces.

std::string EscapeNameToken(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char ch : raw) {
    const auto c = static_cast<unsigned char>(ch);
    if (c <= 0x20 || c == '%' || c == '#' || c == 0x7F) {
      out += StrFormat("%%%02X", c);
    } else {
      out += ch;
    }
  }
  return out;
}

std::string CorruptionSnippet(std::string_view text) {
  constexpr std::size_t kSnippetLimit = 60;
  std::string out = "'";
  out.append(text.substr(0, kSnippetLimit));
  out += text.size() > kSnippetLimit ? "...'" : "'";
  return out;
}

StatusOr<std::string> UnescapeNameToken(std::string_view token) {
  std::string out;
  out.reserve(token.size());
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      out += token[i];
      continue;
    }
    if (i + 2 >= token.size()) {
      return Status::Corruption("truncated %-escape in token");
    }
    const int hi = HexValue(token[i + 1]);
    const int lo = HexValue(token[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::Corruption("invalid %-escape in token");
    }
    out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return out;
}

// -------------------------------------------------------- value rules --

std::string ThetaViolation(double theta) {
  return std::isnan(theta) ? "NaN theta" : "";
}

std::string IndicatorViolation(double indicator) {
  if (indicator > 0.0 && indicator <= 1.0) return "";
  return StrFormat("indicator %g outside (0, 1]", indicator);
}

std::string CharacteristicViolation(std::uint64_t characteristic) {
  if (characteristic < kMaxCharacteristics) return "";
  return StrFormat("characteristic %llu out of range",
                   static_cast<unsigned long long>(characteristic));
}

std::string AgentViolation(AgentId trustor, AgentId trustee) {
  return trustor == kNoAgent || trustee == kNoAgent ? "sentinel agent id"
                                                    : "";
}

std::string OutcomeViolation(const DelegationOutcome& outcome) {
  for (const double value : {outcome.gain, outcome.damage, outcome.cost}) {
    if (!std::isfinite(value)) return "non-finite outcome value";
  }
  return "";
}

// ------------------------------------------------------ state restore --

StatusOr<StateRestorer> StateRestorer::ForEngine(TrustEngine* engine) {
  if (engine == nullptr) {
    return Status::InvalidArgument("null engine");
  }
  // Fresh means every table is empty: each entry method then reads a key
  // the engine already holds as one this restore repeated.
  const ReverseEvaluator& reverse = engine->reverse_evaluator();
  if (engine->catalog().size() != 0 || engine->store().size() != 0 ||
      reverse.threshold_count() != 0 || reverse.history_count() != 0 ||
      engine->environment().indicator_count() != 0) {
    return Status::FailedPrecondition(
        "engine state restore requires a freshly constructed engine");
  }
  return StateRestorer(engine);
}

std::string StateRestorer::NextTask(
    std::string name, std::vector<WeightedCharacteristic> parts) {
  const auto added =
      engine_->catalog().Restore(std::move(name), std::move(parts));
  return added.ok() ? "" : "invalid task: " + added.status().message();
}

void StateRestorer::DefaultTheta(double theta) {
  engine_->reverse_evaluator().SetDefaultThreshold(theta);
}

std::string StateRestorer::Threshold(AgentId trustee, TaskId task,
                                     double theta) {
  if (std::string why = ThetaViolation(theta); !why.empty()) return why;
  ReverseEvaluator& reverse = engine_->reverse_evaluator();
  const std::size_t before = reverse.threshold_count();
  reverse.SetThreshold(trustee, task, theta);
  if (reverse.threshold_count() == before) {
    return StrFormat("duplicate threshold for trustee %u task %u", trustee,
                     task);
  }
  return "";
}

std::string StateRestorer::DefaultIndicator(double indicator) {
  if (std::string why = IndicatorViolation(indicator); !why.empty()) {
    return "default " + why;
  }
  engine_->environment().SetDefaultIndicator(indicator);
  return "";
}

std::string StateRestorer::Indicator(AgentId agent, double indicator) {
  if (std::string why = IndicatorViolation(indicator); !why.empty()) {
    return why;
  }
  EnvironmentModel& environment = engine_->environment();
  const std::size_t before = environment.indicator_count();
  environment.SetIndicator(agent, indicator);
  if (environment.indicator_count() == before) {
    return StrFormat("duplicate indicator for agent %u", agent);
  }
  return "";
}

std::string StateRestorer::Usage(AgentId trustee, AgentId trustor,
                                 const UsageHistory& history) {
  ReverseEvaluator& reverse = engine_->reverse_evaluator();
  const std::size_t before = reverse.history_count();
  reverse.RestoreHistory(trustee, trustor, history);
  if (reverse.history_count() == before) {
    return StrFormat("duplicate usage history for trustee %u trustor %u",
                     trustee, trustor);
  }
  return "";
}

std::string StateRestorer::Record(const TrustKey& key,
                                  const TrustRecord& record) {
  TrustStore& store = engine_->store();
  const std::size_t before = store.size();
  store.PutRecord(key.trustor, key.trustee, key.task, record);
  if (store.size() == before) {
    return StrFormat("duplicate record for (%u, %u, %u)", key.trustor,
                     key.trustee, key.task);
  }
  return "";
}

// ForEngine saw every engine table empty, so `count` is the final size.
void StateRestorer::ReserveThresholds(std::size_t count) {
  engine_->reverse_evaluator().ReserveThresholds(count);
}

void StateRestorer::ReserveIndicators(std::size_t count) {
  engine_->environment().ReserveIndicators(count);
}

void StateRestorer::ReserveUsage(std::size_t count) {
  engine_->reverse_evaluator().ReserveHistories(count);
}

void StateRestorer::ReserveRecords(std::size_t count) {
  engine_->store().ReservePairs(count);
}

namespace {

/// Corruption at `ctx` when the restorer refused an entry.
Status Refused(const LineContext& ctx, const std::string& why) {
  return why.empty() ? Status::OK() : CorruptionAt(ctx, why);
}

/// Parses one `record` line and restores it.
Status ParseRecordLine(const LineContext& ctx,
                       const std::vector<std::string>& fields,
                       StateRestorer* restorer) {
  if (fields.size() != 9) {
    return CorruptionAt(
        ctx, StrFormat("expected 9 fields, got %zu", fields.size()));
  }
  const auto corrupt = [&ctx](const std::string& what) {
    return CorruptionAt(ctx, what);
  };
  TrustKey key;
  TrustRecord record;
  OutcomeEstimates& e = record.estimates;
  SIOT_ASSIGN_OR_RETURN(key.trustor,
                        ParseUintField<AgentId>(fields[1], "trustor", corrupt));
  SIOT_ASSIGN_OR_RETURN(key.trustee,
                        ParseUintField<AgentId>(fields[2], "trustee", corrupt));
  SIOT_ASSIGN_OR_RETURN(key.task,
                        ParseUintField<TaskId>(fields[3], "task", corrupt));
  SIOT_ASSIGN_OR_RETURN(
      e.success_rate, ParseDoubleField(fields[4], "success rate", corrupt));
  SIOT_ASSIGN_OR_RETURN(e.gain, ParseDoubleField(fields[5], "gain", corrupt));
  SIOT_ASSIGN_OR_RETURN(e.damage,
                        ParseDoubleField(fields[6], "damage", corrupt));
  SIOT_ASSIGN_OR_RETURN(e.cost, ParseDoubleField(fields[7], "cost", corrupt));
  SIOT_ASSIGN_OR_RETURN(record.observations,
                        ParseUintField<std::size_t>(
                            fields[8], "observation count", corrupt));
  return Refused(ctx, restorer->Record(key, record));
}

}  // namespace

std::string SerializeTrustStore(const TrustStore& store) {
  std::string out = StrFormat("# siot trust store: %zu records\n",
                              store.size());
  for (const auto& [key, record] : store.AllRecords()) {
    out += StrFormat("record %u %u %u %.17g %.17g %.17g %.17g %zu\n",
                     key.trustor, key.trustee, key.task,
                     record.estimates.success_rate, record.estimates.gain,
                     record.estimates.damage, record.estimates.cost,
                     record.observations);
  }
  return out;
}

// ------------------------------------------------- engine-state format --

std::string SerializeTrustEngineState(const TrustEngine& engine) {
  std::string out = "# siot engine state\n";
  for (TaskId id = 0; id < engine.catalog().size(); ++id) {
    const Task& task = engine.catalog().Get(id);
    out += StrFormat("task %u %s %zu", id,
                     EscapeNameToken(task.name()).c_str(),
                     task.parts().size());
    for (const WeightedCharacteristic& part : task.parts()) {
      out += StrFormat(" %u:%.17g", part.id, part.weight);
    }
    out += "\n";
  }
  const ReverseEvaluator& reverse = engine.reverse_evaluator();
  out += StrFormat("default_theta %.17g\n", reverse.default_threshold());
  for (const ThresholdEntry& entry : reverse.AllThresholds()) {
    if (entry.task == kNoTask) {
      out += StrFormat("threshold %u * %.17g\n", entry.trustee,
                       entry.theta);
    } else {
      out += StrFormat("threshold %u %u %.17g\n", entry.trustee,
                       entry.task, entry.theta);
    }
  }
  const EnvironmentModel& environment = engine.environment();
  out += StrFormat("default_env %.17g\n", environment.default_indicator());
  for (const auto& [agent, indicator] : environment.AllIndicators()) {
    out += StrFormat("env %u %.17g\n", agent, indicator);
  }
  for (const UsageEntry& entry : reverse.AllHistories()) {
    out += StrFormat("usage %u %u %zu %zu\n", entry.trustee, entry.trustor,
                     entry.history.responsive_uses,
                     entry.history.abusive_uses);
  }
  out += SerializeTrustStore(engine.store());
  return out;
}

Status DeserializeTrustEngineState(std::string_view text,
                                   TrustEngine* engine) {
  SIOT_ASSIGN_OR_RETURN(StateRestorer restorer,
                        StateRestorer::ForEngine(engine));
  return ScanLines(
      text, "engine state",
      [&](const LineContext& ctx, const std::vector<std::string>& fields) {
        const auto corrupt = [&ctx](const std::string& what) {
          return CorruptionAt(ctx, what);
        };
        const auto expect_fields = [&](std::size_t n) {
          return fields.size() == n
                     ? Status::OK()
                     : CorruptionAt(ctx, StrFormat("expected %zu fields", n));
        };
        const std::string& directive = fields[0];
        if (directive == "record") {
          return ParseRecordLine(ctx, fields, &restorer);
        }
        if (directive == "task") {
          if (fields.size() < 4) {
            return CorruptionAt(
                ctx, StrFormat("expected >= 4 fields, got %zu",
                               fields.size()));
          }
          SIOT_ASSIGN_OR_RETURN(
              const TaskId id,
              ParseUintField<TaskId>(fields[1], "task id", corrupt));
          if (id != engine->catalog().size()) {
            return CorruptionAt(
                ctx, StrFormat("task id %u out of order (next is %zu)", id,
                               engine->catalog().size()));
          }
          auto name = UnescapeNameToken(fields[2]);
          if (!name.ok()) {
            return CorruptionAt(ctx, StrFormat("malformed task name '%s'",
                                               fields[2].c_str()));
          }
          const auto part_count = ParseInt(fields[3]);
          if (!part_count.ok() || part_count.value() < 0 ||
              static_cast<std::size_t>(part_count.value()) !=
                  fields.size() - 4) {
            return CorruptionAt(
                ctx, StrFormat("characteristic count '%s' does not match "
                               "%zu part fields",
                               fields[3].c_str(), fields.size() - 4));
          }
          std::vector<WeightedCharacteristic> parts(fields.size() - 4);
          for (std::size_t i = 4; i < fields.size(); ++i) {
            const std::size_t colon = fields[i].find(':');
            if (colon == std::string::npos) {
              return CorruptionAt(
                  ctx, StrFormat("malformed part '%s' (want c:w)",
                                 fields[i].c_str()));
            }
            SIOT_ASSIGN_OR_RETURN(
                parts[i - 4].id,
                ParseUintField<CharacteristicId>(
                    fields[i].substr(0, colon), "characteristic", corrupt));
            SIOT_ASSIGN_OR_RETURN(
                parts[i - 4].weight,
                ParseDoubleField(fields[i].substr(colon + 1), "weight",
                                 corrupt));
          }
          return Refused(ctx, restorer.NextTask(std::move(name).value(),
                                                std::move(parts)));
        }
        if (directive == "default_theta") {
          SIOT_RETURN_IF_ERROR(expect_fields(2));
          SIOT_ASSIGN_OR_RETURN(
              const double theta,
              ParseDoubleField(fields[1], "default theta", corrupt));
          restorer.DefaultTheta(theta);
          return Status::OK();
        }
        if (directive == "threshold") {
          SIOT_RETURN_IF_ERROR(expect_fields(4));
          SIOT_ASSIGN_OR_RETURN(
              const AgentId trustee,
              ParseUintField<AgentId>(fields[1], "trustee", corrupt));
          TaskId task = kNoTask;
          if (fields[2] != "*") {
            SIOT_ASSIGN_OR_RETURN(
                task, ParseUintField<TaskId>(fields[2], "task", corrupt));
          }
          SIOT_ASSIGN_OR_RETURN(const double theta,
                                ParseDoubleField(fields[3], "theta", corrupt));
          return Refused(ctx, restorer.Threshold(trustee, task, theta));
        }
        if (directive == "default_env") {
          SIOT_RETURN_IF_ERROR(expect_fields(2));
          SIOT_ASSIGN_OR_RETURN(
              const double indicator,
              ParseDoubleField(fields[1], "default indicator", corrupt));
          return Refused(ctx, restorer.DefaultIndicator(indicator));
        }
        if (directive == "env") {
          SIOT_RETURN_IF_ERROR(expect_fields(3));
          SIOT_ASSIGN_OR_RETURN(
              const AgentId agent,
              ParseUintField<AgentId>(fields[1], "agent", corrupt));
          SIOT_ASSIGN_OR_RETURN(
              const double indicator,
              ParseDoubleField(fields[2], "indicator", corrupt));
          return Refused(ctx, restorer.Indicator(agent, indicator));
        }
        if (directive == "usage") {
          SIOT_RETURN_IF_ERROR(expect_fields(5));
          SIOT_ASSIGN_OR_RETURN(
              const AgentId trustee,
              ParseUintField<AgentId>(fields[1], "trustee", corrupt));
          SIOT_ASSIGN_OR_RETURN(
              const AgentId trustor,
              ParseUintField<AgentId>(fields[2], "trustor", corrupt));
          UsageHistory history;
          SIOT_ASSIGN_OR_RETURN(history.responsive_uses,
                                ParseUintField<std::size_t>(
                                    fields[3], "responsive count", corrupt));
          SIOT_ASSIGN_OR_RETURN(history.abusive_uses,
                                ParseUintField<std::size_t>(
                                    fields[4], "abusive count", corrupt));
          return Refused(ctx, restorer.Usage(trustee, trustor, history));
        }
        return CorruptionAt(
            ctx, StrFormat("unknown directive '%s'", directive.c_str()));
      });
}

}  // namespace siot::trust
