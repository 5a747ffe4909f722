// Copyright 2026 The siot-trust Authors.

#include "common/config.h"

#include <fstream>
#include <sstream>

#include "common/macros.h"
#include "common/string_util.h"

namespace siot {

namespace {

Status ParseLine(std::string_view line, Config* config) {
  const std::size_t hash = line.find('#');
  if (hash != std::string_view::npos) line = line.substr(0, hash);
  line = Trim(line);
  if (line.empty()) return Status::OK();
  const std::size_t eq = line.find('=');
  if (eq == std::string_view::npos) {
    return Status::InvalidArgument("config line missing '=': '" +
                                   std::string(line) + "'");
  }
  const std::string key(Trim(line.substr(0, eq)));
  const std::string value(Trim(line.substr(eq + 1)));
  if (key.empty()) {
    return Status::InvalidArgument("config line with empty key: '" +
                                   std::string(line) + "'");
  }
  config->Set(key, value);
  return Status::OK();
}

}  // namespace

StatusOr<Config> Config::FromString(std::string_view text) {
  Config config;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '\n') {
      SIOT_RETURN_IF_ERROR(ParseLine(text.substr(start, i - start), &config));
      start = i + 1;
    }
  }
  return config;
}

StatusOr<Config> Config::FromFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::IoError("cannot open config file: " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return FromString(buffer.str());
}

StatusOr<Config> Config::FromArgs(int argc, const char* const* argv) {
  Config config;
  for (int i = 0; i < argc; ++i) {
    SIOT_RETURN_IF_ERROR(ParseLine(argv[i], &config));
  }
  return config;
}

void Config::Set(const std::string& key, std::string value) {
  values_[key] = std::move(value);
}

bool Config::Has(const std::string& key) const {
  return values_.contains(key);
}

StatusOr<std::string> Config::GetString(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return Status::NotFound("missing config key: " + key);
  }
  return it->second;
}

StatusOr<std::int64_t> Config::GetInt(const std::string& key) const {
  SIOT_ASSIGN_OR_RETURN(const std::string text, GetString(key));
  auto parsed = ParseInt(text);
  if (!parsed.ok()) {
    return Status::InvalidArgument("config key '" + key +
                                   "': " + parsed.status().message());
  }
  return parsed.value();
}

StatusOr<double> Config::GetDouble(const std::string& key) const {
  SIOT_ASSIGN_OR_RETURN(const std::string text, GetString(key));
  auto parsed = ParseDouble(text);
  if (!parsed.ok()) {
    return Status::InvalidArgument("config key '" + key +
                                   "': " + parsed.status().message());
  }
  return parsed.value();
}

StatusOr<bool> Config::GetBool(const std::string& key) const {
  SIOT_ASSIGN_OR_RETURN(const std::string text, GetString(key));
  const std::string lower = ToLower(text);
  if (lower == "true" || lower == "1" || lower == "yes" || lower == "on") {
    return true;
  }
  if (lower == "false" || lower == "0" || lower == "no" || lower == "off") {
    return false;
  }
  return Status::InvalidArgument("config key '" + key +
                                 "': not a bool: '" + text + "'");
}

std::string Config::GetStringOr(const std::string& key,
                                std::string fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? std::move(fallback) : it->second;
}

std::int64_t Config::GetIntOr(const std::string& key,
                              std::int64_t fallback) const {
  if (!Has(key)) return fallback;
  auto v = GetInt(key);
  SIOT_CHECK_MSG(v.ok(), "%s", v.status().ToString().c_str());
  return v.value();
}

double Config::GetDoubleOr(const std::string& key, double fallback) const {
  if (!Has(key)) return fallback;
  auto v = GetDouble(key);
  SIOT_CHECK_MSG(v.ok(), "%s", v.status().ToString().c_str());
  return v.value();
}

bool Config::GetBoolOr(const std::string& key, bool fallback) const {
  if (!Has(key)) return fallback;
  auto v = GetBool(key);
  SIOT_CHECK_MSG(v.ok(), "%s", v.status().ToString().c_str());
  return v.value();
}

}  // namespace siot
