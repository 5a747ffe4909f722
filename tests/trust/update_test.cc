// Copyright 2026 The siot-trust Authors.

#include "trust/update.h"

#include <gtest/gtest.h>

namespace siot::trust {
namespace {

TEST(NormalizerTest, UnitRangeEndpoints) {
  Normalizer n(NormalizationRange::kUnit, 1.0);
  // Raw profit range is [-2, 1] for value_bound 1.
  EXPECT_DOUBLE_EQ(n(-2.0), 0.0);
  EXPECT_DOUBLE_EQ(n(1.0), 1.0);
  EXPECT_DOUBLE_EQ(n(-0.5), 0.5);
}

TEST(NormalizerTest, SignedRangeEndpoints) {
  Normalizer n(NormalizationRange::kSigned, 1.0);
  EXPECT_DOUBLE_EQ(n(-2.0), -1.0);
  EXPECT_DOUBLE_EQ(n(1.0), 1.0);
  EXPECT_DOUBLE_EQ(n(-0.5), 0.0);
}

TEST(NormalizerTest, ClampsOutOfRange) {
  Normalizer n(NormalizationRange::kUnit, 1.0);
  EXPECT_DOUBLE_EQ(n(5.0), 1.0);
  EXPECT_DOUBLE_EQ(n(-5.0), 0.0);
}

TEST(NormalizerTest, ValueBoundScalesRange) {
  Normalizer n(NormalizationRange::kUnit, 10.0);
  EXPECT_DOUBLE_EQ(n(-20.0), 0.0);
  EXPECT_DOUBLE_EQ(n(10.0), 1.0);
}

TEST(NormalizerTest, InvalidBoundDies) {
  EXPECT_DEATH(Normalizer(NormalizationRange::kUnit, 0.0),
               "SIOT_CHECK failed");
}

TEST(ExpectedNetProfitTest, Formula) {
  // Ŝ·Ĝ − (1−Ŝ)·D̂ − Ĉ.
  OutcomeEstimates e{0.8, 1.0, 0.5, 0.2};
  EXPECT_NEAR(ExpectedNetProfit(e), 0.8 * 1.0 - 0.2 * 0.5 - 0.2, 1e-12);
}

TEST(ExpectedNetProfitTest, PerfectAndWorst) {
  EXPECT_DOUBLE_EQ(ExpectedNetProfit({1.0, 1.0, 1.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(ExpectedNetProfit({0.0, 1.0, 1.0, 1.0}), -2.0);
}

TEST(TrustworthinessTest, Eq18MonotoneInSuccessRate) {
  Normalizer n(NormalizationRange::kUnit, 1.0);
  OutcomeEstimates low{0.2, 0.8, 0.5, 0.1};
  OutcomeEstimates high{0.9, 0.8, 0.5, 0.1};
  EXPECT_LT(TrustworthinessFromEstimates(low, n),
            TrustworthinessFromEstimates(high, n));
}

TEST(TrustworthinessTest, Eq18DecreasesWithDamageAndCost) {
  Normalizer n(NormalizationRange::kUnit, 1.0);
  OutcomeEstimates base{0.5, 0.8, 0.2, 0.1};
  OutcomeEstimates damaged = base;
  damaged.damage = 0.9;
  OutcomeEstimates costly = base;
  costly.cost = 0.8;
  EXPECT_GT(TrustworthinessFromEstimates(base, n),
            TrustworthinessFromEstimates(damaged, n));
  EXPECT_GT(TrustworthinessFromEstimates(base, n),
            TrustworthinessFromEstimates(costly, n));
}

TEST(UpdateEstimatesTest, Eqs19To22FailureStep) {
  OutcomeEstimates prev{1.0, 0.5, 0.5, 0.5};
  DelegationOutcome outcome{/*success=*/false, /*gain=*/0.0,
                            /*damage=*/0.8, /*cost=*/0.3};
  const auto next =
      UpdateEstimates(prev, outcome, ForgettingFactors::Uniform(0.1));
  EXPECT_NEAR(next.success_rate, 0.1 * 1.0 + 0.9 * 0.0, 1e-12);
  // Ĝ is conditional on success: no update on a failure.
  EXPECT_DOUBLE_EQ(next.gain, 0.5);
  EXPECT_NEAR(next.damage, 0.1 * 0.5 + 0.9 * 0.8, 1e-12);
  EXPECT_NEAR(next.cost, 0.1 * 0.5 + 0.9 * 0.3, 1e-12);
}

TEST(UpdateEstimatesTest, Eqs19To22SuccessStep) {
  OutcomeEstimates prev{0.0, 0.5, 0.5, 0.5};
  DelegationOutcome outcome{/*success=*/true, /*gain=*/0.9,
                            /*damage=*/0.0, /*cost=*/0.3};
  const auto next =
      UpdateEstimates(prev, outcome, ForgettingFactors::Uniform(0.1));
  EXPECT_NEAR(next.success_rate, 0.9, 1e-12);
  EXPECT_NEAR(next.gain, 0.1 * 0.5 + 0.9 * 0.9, 1e-12);
  // D̂ is conditional on failure: no update on a success.
  EXPECT_DOUBLE_EQ(next.damage, 0.5);
  EXPECT_NEAR(next.cost, 0.1 * 0.5 + 0.9 * 0.3, 1e-12);
}

TEST(UpdateEstimatesTest, PerQuantityBetas) {
  // The paper notes β can differ in the four updating equations.
  OutcomeEstimates prev{1.0, 1.0, 1.0, 1.0};
  DelegationOutcome outcome{true, 0.0, 0.0, 0.0};
  ForgettingFactors beta{0.0, 0.5, 0.9, 1.0};
  const auto next = UpdateEstimates(prev, outcome, beta);
  EXPECT_DOUBLE_EQ(next.success_rate, 1.0);  // sample is success=1
  EXPECT_DOUBLE_EQ(next.gain, 0.5);
  EXPECT_DOUBLE_EQ(next.damage, 1.0);  // success: damage untouched
  EXPECT_DOUBLE_EQ(next.cost, 1.0);
}

TEST(UpdateEstimatesTest, ConvergesToStationaryBehavior) {
  OutcomeEstimates est{0.0, 0.0, 0.0, 0.0};
  const ForgettingFactors beta = ForgettingFactors::Uniform(0.1);
  for (int i = 0; i < 200; ++i) {
    est = UpdateEstimates(est, {true, 0.7, 0.0, 0.3}, beta);
  }
  EXPECT_NEAR(est.success_rate, 1.0, 1e-6);
  EXPECT_NEAR(est.gain, 0.7, 1e-6);
  EXPECT_NEAR(est.damage, 0.0, 1e-6);
  EXPECT_NEAR(est.cost, 0.3, 1e-6);
}

TEST(UpdateEstimatesTest, ConditionalEstimatesAreUnbiased) {
  // Alternate success/failure: Ĝ tracks gain-given-success and D̂ tracks
  // damage-given-failure, so the Eq. 23 profit estimate is unbiased.
  OutcomeEstimates est{0.5, 0.0, 0.0, 0.0};
  const ForgettingFactors beta = ForgettingFactors::Uniform(0.9);
  for (int i = 0; i < 2000; ++i) {
    const bool success = (i % 2 == 0);
    est = UpdateEstimates(
        est, {success, success ? 0.8 : 0.0, success ? 0.0 : 0.6, 0.2},
        beta);
  }
  EXPECT_NEAR(est.success_rate, 0.5, 0.06);
  EXPECT_NEAR(est.gain, 0.8, 1e-6);
  EXPECT_NEAR(est.damage, 0.6, 1e-6);
  EXPECT_NEAR(est.cost, 0.2, 1e-6);
  EXPECT_NEAR(ExpectedNetProfit(est), 0.5 * 0.8 - 0.5 * 0.6 - 0.2, 0.05);
}

TEST(UpdateEstimatesTest, InvalidBetaDies) {
  EXPECT_DEATH(UpdateEstimates({}, {}, ForgettingFactors::Uniform(1.5)),
               "SIOT_CHECK failed");
}

TEST(SelectBestCandidateTest, MaxSuccessRateIgnoresProfit) {
  // First strategy of Fig. 13: highest Ŝ wins even if its profit is worse.
  std::vector<OutcomeEstimates> candidates = {
      {0.9, 0.1, 0.9, 0.5},  // high Ŝ, bad economics
      {0.6, 1.0, 0.0, 0.0},  // better profit
  };
  EXPECT_EQ(SelectBestCandidate(candidates,
                                SelectionStrategy::kMaxSuccessRate)
                .value(),
            0u);
  EXPECT_EQ(
      SelectBestCandidate(candidates, SelectionStrategy::kMaxNetProfit)
          .value(),
      1u);
}

TEST(SelectBestCandidateTest, EmptyIsNotFound) {
  EXPECT_TRUE(SelectBestCandidate({}, SelectionStrategy::kMaxNetProfit)
                  .status()
                  .IsNotFound());
}

TEST(SelectBestCandidateTest, TieKeepsEarliest) {
  std::vector<OutcomeEstimates> candidates = {
      {0.5, 0.5, 0.5, 0.5},
      {0.5, 0.5, 0.5, 0.5},
  };
  EXPECT_EQ(SelectBestCandidate(candidates,
                                SelectionStrategy::kMaxNetProfit)
                .value(),
            0u);
}

TEST(EstimatesFromTrustworthinessTest, RoundTripsThroughEq18) {
  for (const NormalizationRange range :
       {NormalizationRange::kUnit, NormalizationRange::kSigned}) {
    for (const double bound : {1.0, 10.0}) {
      const Normalizer n(range, bound);
      const double lo = range == NormalizationRange::kSigned ? -1.0 : 0.0;
      for (double t = lo; t <= 1.0; t += 0.125) {
        const OutcomeEstimates e = EstimatesFromTrustworthiness(t, n);
        EXPECT_NEAR(TrustworthinessFromEstimates(e, n), t, 1e-12)
            << "range " << static_cast<int>(range) << " bound " << bound;
        EXPECT_GE(e.success_rate, 0.0);
        EXPECT_LE(e.success_rate, 1.0);
        EXPECT_LE(e.gain, bound);
        EXPECT_LE(e.damage, bound);
        EXPECT_GE(e.cost, 0.0);
        EXPECT_LE(e.cost, bound);
      }
    }
  }
}

TEST(EstimatesFromTrustworthinessTest, MonotoneUnderBothStrategies) {
  // Both selection strategies must rank synthesized candidates by their
  // source trustworthiness, or inferred candidates would be mis-ordered.
  const Normalizer n(NormalizationRange::kUnit, 1.0);
  const OutcomeEstimates low = EstimatesFromTrustworthiness(0.3, n);
  const OutcomeEstimates high = EstimatesFromTrustworthiness(0.7, n);
  EXPECT_LT(low.success_rate, high.success_rate);
  EXPECT_LT(ExpectedNetProfit(low), ExpectedNetProfit(high));
}

TEST(ShouldDelegateTest, Eq24StrictComparison) {
  OutcomeEstimates self{0.8, 0.5, 0.2, 0.1};
  OutcomeEstimates better = self;
  better.gain = 0.9;
  OutcomeEstimates equal = self;
  EXPECT_TRUE(ShouldDelegate(better, self));
  // Equal profit: keep the task (no strict improvement).
  EXPECT_FALSE(ShouldDelegate(equal, self));
  OutcomeEstimates worse = self;
  worse.cost = 0.9;
  EXPECT_FALSE(ShouldDelegate(worse, self));
}

}  // namespace
}  // namespace siot::trust
