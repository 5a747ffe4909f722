// Copyright 2026 The siot-trust Authors.
// Flat key=value configuration used to parameterize simulation scenarios
// from files or command lines. Parsing is strict: a typo in a numeric field
// is an error, not a silently-ignored default.

#ifndef SIOT_COMMON_CONFIG_H_
#define SIOT_COMMON_CONFIG_H_

#include <map>
#include <string>
#include <string_view>

#include "common/status.h"

namespace siot {

/// Ordered string->string map with typed, validated accessors.
class Config {
 public:
  Config() = default;

  /// Parses "key = value" lines. '#' starts a comment; blank lines are
  /// skipped. Later duplicate keys override earlier ones.
  static StatusOr<Config> FromString(std::string_view text);

  /// Parses a file in the FromString format.
  static StatusOr<Config> FromFile(const std::string& path);

  /// Parses "key=value" tokens, e.g. from argv.
  static StatusOr<Config> FromArgs(int argc, const char* const* argv);

  void Set(const std::string& key, std::string value);
  bool Has(const std::string& key) const;
  std::size_t size() const { return values_.size(); }

  /// Typed getters: error if the key is missing or the value malformed.
  StatusOr<std::string> GetString(const std::string& key) const;
  StatusOr<std::int64_t> GetInt(const std::string& key) const;
  StatusOr<double> GetDouble(const std::string& key) const;
  StatusOr<bool> GetBool(const std::string& key) const;

  /// Defaulted getters: fall back when the key is missing, but still error
  /// (via SIOT_CHECK) if the key is present and malformed — silent fallback
  /// on a typo would corrupt an experiment.
  std::string GetStringOr(const std::string& key, std::string fallback) const;
  std::int64_t GetIntOr(const std::string& key, std::int64_t fallback) const;
  double GetDoubleOr(const std::string& key, double fallback) const;
  bool GetBoolOr(const std::string& key, bool fallback) const;

  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace siot

#endif  // SIOT_COMMON_CONFIG_H_
