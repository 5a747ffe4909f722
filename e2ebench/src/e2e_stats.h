// Copyright 2026 The siot-trust Authors.
// Measurement arithmetic of the end-to-end benchmark: latency summaries
// that only report a tail percentile the sample supports, the residual
// arithmetic of the traced run, and number formatting for the result
// line. Kept apart from the workloads so the self-test can pin it.

#ifndef SIOT_E2EBENCH_E2E_STATS_H_
#define SIOT_E2EBENCH_E2E_STATS_H_

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace siot::e2e {

/// Samples a percentile must leave beyond it before it is reported.
inline constexpr std::size_t kMinSamplesBeyondTail = 10;

/// Nearest-rank percentile `q` in [0, 1] of ascending `sorted` (the
/// smallest sample with at least q·n samples at or below it). Requires a
/// non-empty input.
double NearestRank(std::span<const double> sorted, double q);

/// Samples strictly beyond the nearest-rank percentile `q` of `n` samples.
std::size_t SamplesBeyond(std::size_t n, double q);

/// Median and p99 of one latency series. `p99` is empty unless at least
/// kMinSamplesBeyondTail samples lie beyond it (n >= 1000).
struct LatencySummary {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  std::optional<double> p99;
};

/// Summarizes `samples` (any order; copied and sorted). An empty series
/// has count 0 and no percentiles worth printing.
LatencySummary Summarize(std::vector<double> samples);

/// "p50 12.3 us, p99 45.6 us (n=1234)", or "p99 n/a (n=87; needs >= 1000)".
std::string DescribeLatency(const LatencySummary& summary,
                            const std::string& unit);

/// One layer call an end-to-end call comprises: its mean time and how many
/// times one end-to-end call makes it.
struct LayerTerm {
  double mean = 0.0;
  double calls_per_op = 1.0;
};

/// Traced-run residual: the mean end-to-end call time minus the time of
/// the layer calls it comprises (Σ mean × calls_per_op). What is left is
/// the serving layer's own share — routing, validation, lock and flush
/// waits. May be negative when the layer replay ran slower than the live
/// call (e.g. a colder cache); reported as measured.
double Residual(double e2e_mean, std::span<const LayerTerm> terms);

/// Shortest decimal text that reads back as exactly `value`.
std::string FormatNumber(double value);

}  // namespace siot::e2e

#endif  // SIOT_E2EBENCH_E2E_STATS_H_
