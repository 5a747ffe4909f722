// Copyright 2026 The siot-trust Authors.

#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace siot {
namespace {

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStatTest, SingleValue) {
  RunningStat s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
  EXPECT_EQ(s.sum(), 5.0);
}

TEST(RunningStatTest, KnownMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStatTest, SampleVarianceUsesNMinusOne) {
  RunningStat s;
  for (double x : {1.0, 2.0, 3.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 1.0);
  EXPECT_NEAR(s.variance(), 2.0 / 3.0, 1e-12);
}

TEST(RunningStatTest, MergeMatchesSequential) {
  RunningStat a, b, all;
  const std::vector<double> xs = {1.5, -2.0, 3.25, 7.0, 0.0, -1.0, 4.5};
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i < 3 ? a : b).Add(xs[i]);
    all.Add(xs[i]);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStatTest, MergeWithEmpty) {
  RunningStat a, empty;
  a.Add(3.0);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  RunningStat b;
  b.Merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.mean(), 3.0);
}

TEST(RateCounterTest, Basics) {
  RateCounter c;
  EXPECT_EQ(c.rate(), 0.0);
  c.AddHit();
  c.AddMiss();
  c.AddMiss();
  c.Add(true);
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.total(), 4u);
  EXPECT_DOUBLE_EQ(c.rate(), 0.5);
}

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
