// Copyright 2026 The siot-trust Authors.

#include "common/rng.h"

#include <cmath>
#include <numbers>

namespace siot {

double Rng::Gaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box–Muller: two uniforms -> two independent standard normals.
  double u1 = NextDouble();
  while (u1 <= 0.0) u1 = NextDouble();  // avoid log(0)
  const double u2 = NextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = radius * std::sin(theta);
  have_cached_gaussian_ = true;
  return radius * std::cos(theta);
}

std::vector<std::size_t> Rng::SampleWithoutReplacement(std::size_t n,
                                                       std::size_t k) {
  SIOT_CHECK(k <= n);
  // Partial Fisher–Yates over an index vector: O(n) memory, O(n + k) time.
  std::vector<std::size_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) indices[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(NextBounded(n - i));
    using std::swap;
    swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

}  // namespace siot
