// Copyright 2026 The siot-trust Authors.

#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace siot {

void SeriesAverager::AddRun(const std::vector<double>& series) {
  if (runs_ == 0) {
    sums_.assign(series.size(), 0.0);
    sq_sums_.assign(series.size(), 0.0);
  }
  SIOT_CHECK_MSG(series.size() == sums_.size(),
                 "series length %zu != expected %zu", series.size(),
                 sums_.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    sums_[i] += series[i];
    sq_sums_[i] += series[i] * series[i];
  }
  ++runs_;
}

std::vector<double> SeriesAverager::Mean() const {
  std::vector<double> out(sums_.size(), 0.0);
  if (runs_ == 0) return out;
  for (std::size_t i = 0; i < sums_.size(); ++i) {
    out[i] = sums_[i] / static_cast<double>(runs_);
  }
  return out;
}

std::vector<double> SeriesAverager::Stddev() const {
  std::vector<double> out(sums_.size(), 0.0);
  if (runs_ < 2) return out;
  const double n = static_cast<double>(runs_);
  for (std::size_t i = 0; i < sums_.size(); ++i) {
    const double mean = sums_[i] / n;
    const double var =
        std::max(0.0, (sq_sums_[i] - n * mean * mean) / (n - 1.0));
    out[i] = std::sqrt(var);
  }
  return out;
}

ExponentialAverage::ExponentialAverage(double beta, double initial)
    : beta_(beta), value_(initial) {
  SIOT_CHECK_MSG(beta >= 0.0 && beta <= 1.0, "beta=%f outside [0,1]", beta);
}

double ExponentialAverage::Update(double sample) {
  value_ = beta_ * value_ + (1.0 - beta_) * sample;
  ++updates_;
  return value_;
}

}  // namespace siot
