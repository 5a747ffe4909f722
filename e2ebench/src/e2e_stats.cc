// Copyright 2026 The siot-trust Authors.

#include "e2e_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace siot::e2e {

namespace {

/// 1-based nearest rank of percentile q over n samples.
std::size_t Rank(std::size_t n, double q) {
  const double exact = q * static_cast<double>(n);
  // Guard the ceil against binary fractions landing a hair above an
  // integer (0.99 * 1000 = 990.0000000000001).
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double NearestRank(std::span<const double> sorted, double q) {
  return sorted[Rank(sorted.size(), q) - 1];
}

std::size_t SamplesBeyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - Rank(n, q);
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary summary;
  summary.count = samples.size();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  summary.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
                 static_cast<double>(samples.size());
  summary.p50 = NearestRank(samples, 0.50);
  if (SamplesBeyond(samples.size(), 0.99) >= kMinSamplesBeyondTail) {
    summary.p99 = NearestRank(samples, 0.99);
  }
  return summary;
}

std::string DescribeLatency(const LatencySummary& summary,
                            const std::string& unit) {
  char buffer[160];
  if (summary.p99.has_value()) {
    std::snprintf(buffer, sizeof(buffer), "p50 %.1f %s, p99 %.1f %s (n=%zu)",
                  summary.p50, unit.c_str(), *summary.p99, unit.c_str(),
                  summary.count);
  } else {
    std::snprintf(buffer, sizeof(buffer),
                  "p50 %.1f %s, p99 n/a (n=%zu; needs >= 1000)", summary.p50,
                  unit.c_str(), summary.count);
  }
  return buffer;
}

double Residual(double e2e_mean, std::span<const LayerTerm> terms) {
  double layers = 0.0;
  for (const LayerTerm& term : terms) layers += term.mean * term.calls_per_op;
  return e2e_mean - layers;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

}  // namespace siot::e2e
