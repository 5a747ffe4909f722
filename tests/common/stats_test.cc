// Copyright 2026 The siot-trust Authors.

#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace siot {
namespace {

TEST(SeriesAveragerTest, MeanAcrossRuns) {
  SeriesAverager avg;
  avg.AddRun({1.0, 2.0, 3.0});
  avg.AddRun({3.0, 4.0, 5.0});
  EXPECT_EQ(avg.runs(), 2u);
  const auto mean = avg.Mean();
  ASSERT_EQ(mean.size(), 3u);
  EXPECT_DOUBLE_EQ(mean[0], 2.0);
  EXPECT_DOUBLE_EQ(mean[1], 3.0);
  EXPECT_DOUBLE_EQ(mean[2], 4.0);
}

TEST(SeriesAveragerTest, StddevAcrossRuns) {
  SeriesAverager avg;
  avg.AddRun({0.0});
  avg.AddRun({2.0});
  const auto sd = avg.Stddev();
  ASSERT_EQ(sd.size(), 1u);
  EXPECT_NEAR(sd[0], std::sqrt(2.0), 1e-12);
}

TEST(SeriesAveragerTest, MismatchedLengthDies) {
  SeriesAverager avg;
  avg.AddRun({1.0, 2.0});
  EXPECT_DEATH(avg.AddRun({1.0}), "SIOT_CHECK failed");
}

TEST(ExponentialAverageTest, PaperUpdateRule) {
  // Eq. (19): new = beta * old + (1 - beta) * sample, beta = 0.1.
  ExponentialAverage e(0.1, 1.0);
  e.Update(0.0);
  EXPECT_NEAR(e.value(), 0.1, 1e-12);
  e.Update(1.0);
  EXPECT_NEAR(e.value(), 0.1 * 0.1 + 0.9, 1e-12);
}

TEST(ExponentialAverageTest, BetaOneNeverChanges) {
  ExponentialAverage e(1.0, 0.7);
  for (int i = 0; i < 10; ++i) e.Update(0.0);
  EXPECT_DOUBLE_EQ(e.value(), 0.7);
}

TEST(ExponentialAverageTest, BetaZeroTracksSample) {
  ExponentialAverage e(0.0, 0.7);
  e.Update(0.25);
  EXPECT_DOUBLE_EQ(e.value(), 0.25);
}

TEST(ExponentialAverageTest, ConvergesToConstantInput) {
  ExponentialAverage e(0.9, 0.0);
  for (int i = 0; i < 500; ++i) e.Update(0.8);
  EXPECT_NEAR(e.value(), 0.8, 1e-6);
  EXPECT_EQ(e.updates(), 500u);
}

TEST(ExponentialAverageTest, InvalidBetaDies) {
  EXPECT_DEATH(ExponentialAverage(-0.1), "SIOT_CHECK failed");
  EXPECT_DEATH(ExponentialAverage(1.1), "SIOT_CHECK failed");
}

}  // namespace
}  // namespace siot
