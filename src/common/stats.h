// Copyright 2026 The siot-trust Authors.
// Streaming statistics and time-series accumulators used by the
// simulation metrics collectors and the benchmark reproduction harness.

#ifndef SIOT_COMMON_STATS_H_
#define SIOT_COMMON_STATS_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "common/macros.h"

namespace siot {

/// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
class RunningStat {
 public:
  void Add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    sum_ += x;
  }

  /// Merges another accumulator into this one (parallel Welford).
  void Merge(const RunningStat& other);

  std::size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Population variance; 0 with fewer than 2 samples.
  double variance() const {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
  }
  /// Unbiased sample variance; 0 with fewer than 2 samples.
  double sample_variance() const {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
  }
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Ratio counter for success/failure style rates.
class RateCounter {
 public:
  void AddHit() { ++hits_; ++total_; }
  void AddMiss() { ++total_; }
  void Add(bool hit) { hit ? AddHit() : AddMiss(); }

  std::size_t hits() const { return hits_; }
  std::size_t total() const { return total_; }
  /// hits/total; 0 when empty.
  double rate() const {
    return total_ == 0 ? 0.0
                       : static_cast<double>(hits_) /
                             static_cast<double>(total_);
  }

 private:
  std::size_t hits_ = 0;
  std::size_t total_ = 0;
};

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
