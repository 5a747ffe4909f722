// Copyright 2026 The siot-trust Authors.
// Small string helpers shared across the library (no locale dependence).

#ifndef SIOT_COMMON_STRING_UTIL_H_
#define SIOT_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace siot {

/// Splits on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view text, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view text);

std::string ToLower(std::string_view text);

/// Parses a decimal integer; errors on trailing garbage or overflow.
StatusOr<std::int64_t> ParseInt(std::string_view text);

/// Parses a double; errors on trailing garbage.
StatusOr<double> ParseDouble(std::string_view text);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats `value` with `decimals` digits after the point.
std::string FormatDouble(double value, int decimals);

/// Formats a rate in [0,1] as a percent string, e.g. 0.5789 -> "57.89%".
std::string FormatPercent(double rate, int decimals = 2);

}  // namespace siot

#endif  // SIOT_COMMON_STRING_UTIL_H_
