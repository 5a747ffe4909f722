// Copyright 2026 The siot-trust Authors.
// Streaming statistics and time-series accumulators used by the
// simulation metrics collectors and the benchmark reproduction harness.

#ifndef SIOT_COMMON_STATS_H_
#define SIOT_COMMON_STATS_H_

#include <cstddef>
#include <vector>

#include "common/macros.h"

namespace siot {

/// Accumulates aligned series over repeated runs and exposes per-index means
/// (used for "averaged over N independent simulation runs" figures).
class SeriesAverager {
 public:
  /// Adds one run's series; all runs must have equal length.
  void AddRun(const std::vector<double>& series);
  std::size_t runs() const { return runs_; }
  std::size_t length() const { return sums_.size(); }
  /// Per-index mean across runs.
  std::vector<double> Mean() const;
  /// Per-index sample standard deviation across runs.
  std::vector<double> Stddev() const;

 private:
  std::size_t runs_ = 0;
  std::vector<double> sums_;
  std::vector<double> sq_sums_;
};

/// Exponential moving average with forgetting factor beta in [0,1]:
///   new = beta * old + (1 - beta) * sample      (paper Eqs. 19–22).
/// `beta = 0` forgets instantly; `beta = 1` never updates.
class ExponentialAverage {
 public:
  explicit ExponentialAverage(double beta, double initial = 0.0);

  /// Applies one update step and returns the new value.
  double Update(double sample);
  double value() const { return value_; }
  double beta() const { return beta_; }
  std::size_t updates() const { return updates_; }
  void Reset(double value) {
    value_ = value;
    updates_ = 0;
  }

 private:
  double beta_;
  double value_;
  std::size_t updates_ = 0;
};

}  // namespace siot

#endif  // SIOT_COMMON_STATS_H_
