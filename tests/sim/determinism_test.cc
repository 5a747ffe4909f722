// Copyright 2026 The siot-trust Authors.
// The load-bearing guarantee of the parallel §5 drivers: every experiment
// run through ParallelFor produces bit-identical results at 1, 2, and 8
// threads. Each experiment runs on a reduced workload; every numeric
// output field must match the serial run exactly.

#include <vector>

#include <gtest/gtest.h>

#include "sim/delegation_results_experiment.h"
#include "sim/mutuality_experiment.h"
#include "sim/transitivity_experiment.h"

namespace siot::sim {
namespace {

const graph::SocialDataset& Facebook() {
  static const graph::SocialDataset dataset =
      graph::LoadDataset(graph::SocialNetwork::kFacebook);
  return dataset;
}

void ExpectSameTally(const DelegationTally& a, const DelegationTally& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.unavailable, b.unavailable);
  EXPECT_EQ(a.abusive_uses, b.abusive_uses);
  EXPECT_EQ(a.total_uses, b.total_uses);
}

TEST(ParallelForDeterminismTest, TransitivityBitIdentical) {
  TransitivityConfig config;
  config.world.characteristic_count = 4;
  config.requests_per_trustor = 2;
  config.max_hops = 3;
  config.seed = 11;
  config.threads = 1;
  const TransitivityResult serial =
      RunTransitivityExperiment(Facebook(), config);
  for (const std::size_t threads : {2ul, 8ul}) {
    config.threads = threads;
    const TransitivityResult parallel =
        RunTransitivityExperiment(Facebook(), config);
    ASSERT_EQ(parallel.methods.size(), serial.methods.size());
    for (std::size_t m = 0; m < serial.methods.size(); ++m) {
      const auto& a = serial.methods[m];
      const auto& b = parallel.methods[m];
      EXPECT_EQ(a.method, b.method);
      ExpectSameTally(a.tally, b.tally);
      EXPECT_EQ(a.avg_potential_trustees, b.avg_potential_trustees);
      EXPECT_EQ(a.inquired_per_trustor, b.inquired_per_trustor);
    }
  }
}

TEST(ParallelForDeterminismTest, MutualityBitIdentical) {
  MutualityConfig config;
  config.requests_per_trustor = 3;
  config.warmup_uses = 5;
  config.seed = 12;
  config.threads = 1;
  const MutualityResult serial = RunMutualityExperiment(Facebook(), config);
  for (const std::size_t threads : {2ul, 8ul}) {
    config.threads = threads;
    const MutualityResult parallel =
        RunMutualityExperiment(Facebook(), config);
    ASSERT_EQ(parallel.points.size(), serial.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
      EXPECT_EQ(parallel.points[i].theta, serial.points[i].theta);
      ExpectSameTally(parallel.points[i].tally, serial.points[i].tally);
    }
  }
}

TEST(ParallelForDeterminismTest, DelegationBitIdentical) {
  DelegationResultsConfig config;
  config.iterations = 120;
  config.seed = 13;
  config.threads = 1;
  const DelegationResultsOutcome serial =
      RunDelegationResultsExperiment(Facebook(), config);
  for (const std::size_t threads : {2ul, 8ul}) {
    config.threads = threads;
    const DelegationResultsOutcome parallel =
        RunDelegationResultsExperiment(Facebook(), config);
    ASSERT_EQ(parallel.strategies.size(), serial.strategies.size());
    for (std::size_t s = 0; s < serial.strategies.size(); ++s) {
      const auto& a = serial.strategies[s];
      const auto& b = parallel.strategies[s];
      EXPECT_EQ(a.strategy, b.strategy);
      EXPECT_EQ(a.iteration, b.iteration);
      // Bit-identical: merged in trustor order, so even the floating-point
      // summation order matches the serial run.
      EXPECT_EQ(a.mean_profit, b.mean_profit);
      EXPECT_EQ(a.final_profit, b.final_profit);
    }
  }
}

}  // namespace
}  // namespace siot::sim
