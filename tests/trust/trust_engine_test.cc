// Copyright 2026 The siot-trust Authors.

#include "trust/trust_engine.h"

#include <gtest/gtest.h>

namespace siot::trust {
namespace {

class TrustEngineTest : public ::testing::Test {
 protected:
  TrustEngineTest() : engine_(MakeConfig()) {
    gps_ = engine_.catalog().AddUniform("gps", {0}).value();
    image_ = engine_.catalog().AddUniform("image", {1}).value();
    traffic_ = engine_.catalog().AddUniform("traffic", {0, 1}).value();
  }

  static TrustEngineConfig MakeConfig() {
    TrustEngineConfig config;
    config.beta = ForgettingFactors::Uniform(0.1);
    config.initial_estimates = {0.5, 0.5, 0.5, 0.5};
    return config;
  }

  TrustEngine engine_;
  TaskId gps_, image_, traffic_;
};

TEST_F(TrustEngineTest, PreEvaluateFallsBackToInitialEstimates) {
  const double initial = TrustworthinessFromEstimates(
      engine_.config().initial_estimates, engine_.normalizer());
  EXPECT_DOUBLE_EQ(engine_.PreEvaluate(0, 1, gps_), initial);
}

TEST_F(TrustEngineTest, PreEvaluateUsesDirectRecord) {
  engine_.store().Put(0, 1, gps_, {1.0, 1.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(engine_.PreEvaluate(0, 1, gps_), 1.0);
}

TEST_F(TrustEngineTest, PreEvaluateInfersFromAnalogousTasks) {
  // No direct 'traffic' record, but gps+image records cover it (Eq. 4).
  engine_.store().Put(0, 1, gps_, {1.0, 1.0, 0.0, 0.0});    // tw 1.0
  engine_.store().Put(0, 1, image_, {0.0, 0.0, 1.0, 1.0});  // tw 0.0
  EXPECT_DOUBLE_EQ(engine_.PreEvaluate(0, 1, traffic_), 0.5);
}

TEST_F(TrustEngineTest, ReportOutcomeUpdatesTrustorEstimates) {
  for (int i = 0; i < 50; ++i) {
    engine_.ReportOutcome(0, 1, gps_, {true, 0.8, 0.0, 0.1});
  }
  const auto record = engine_.store().Find(0, 1, gps_);
  ASSERT_TRUE(record.has_value());
  EXPECT_GT(record->estimates.success_rate, 0.95);
  EXPECT_NEAR(record->estimates.gain, 0.8, 0.01);
  EXPECT_EQ(record->observations, 50u);
}

TEST_F(TrustEngineTest, ReportOutcomeMatchesStoreRecordOutcome) {
  // ReportOutcome delegates to TrustStore::RecordOutcome — both paths must
  // produce the same record, including the environment-aware one.
  const DelegationOutcome outcome{true, 0.8, 0.0, 0.1};
  TrustEngineConfig plain = MakeConfig();
  plain.environment_aware = false;
  TrustEngine plain_engine(plain);
  const TaskId task = plain_engine.catalog().AddUniform("t", {0}).value();
  plain_engine.ReportOutcome(0, 1, task, outcome);
  TrustStore expected;
  expected.SetDefaultEstimates(plain.initial_estimates);
  expected.RecordOutcome(0, 1, task, outcome, plain.beta);
  EXPECT_EQ(plain_engine.store().Find(0, 1, task)->estimates,
            expected.Find(0, 1, task)->estimates);

  engine_.environment().SetIndicator(0, 0.5);
  engine_.ReportOutcome(0, 1, gps_, outcome);
  TrustStore env_expected;
  env_expected.SetDefaultEstimates(engine_.config().initial_estimates);
  env_expected.RecordOutcome(0, 1, gps_, outcome, engine_.config().beta,
                             /*aggregate_env=*/0.5);
  EXPECT_EQ(engine_.store().Find(0, 1, gps_)->estimates,
            env_expected.Find(0, 1, gps_)->estimates);
  EXPECT_EQ(engine_.store().Find(0, 1, gps_)->observations, 1u);
}

TEST_F(TrustEngineTest, ReportOutcomeChainsIntermediateEnvironments) {
  // A hostile relay between trustor and trustee joins the Eq. 29 chain
  // aggregate (kMin), so the observation is de-biased exactly as if one of
  // the endpoints sat in that environment.
  const DelegationOutcome outcome{true, 0.8, 0.0, 0.1};
  engine_.environment().SetIndicator(5, 0.25);  // hostile intermediate
  engine_.ReportOutcome(0, 1, gps_, outcome, /*trustor_was_abusive=*/false,
                        /*intermediates=*/{5});
  TrustStore expected;
  expected.SetDefaultEstimates(engine_.config().initial_estimates);
  expected.RecordOutcome(0, 1, gps_, outcome, engine_.config().beta,
                         /*aggregate_env=*/0.25);
  EXPECT_EQ(engine_.store().Find(0, 1, gps_)->estimates,
            expected.Find(0, 1, gps_)->estimates);

  // A benign intermediate (indicator 1.0) changes nothing vs the direct
  // chain {trustor, trustee}.
  TrustEngine direct(MakeConfig());
  TrustEngine relayed(MakeConfig());
  const TaskId t1 = direct.catalog().AddUniform("t", {0}).value();
  const TaskId t2 = relayed.catalog().AddUniform("t", {0}).value();
  direct.ReportOutcome(0, 1, t1, outcome);
  relayed.ReportOutcome(0, 1, t2, outcome, false, /*intermediates=*/{9});
  EXPECT_EQ(direct.store().Find(0, 1, t1)->estimates,
            relayed.store().Find(0, 1, t2)->estimates);
}

TEST_F(TrustEngineTest, ReportOutcomeFeedsReverseEvaluator) {
  engine_.ReportOutcome(0, 1, gps_, {true, 0.5, 0.0, 0.1},
                        /*trustor_was_abusive=*/true);
  engine_.ReportOutcome(0, 1, gps_, {true, 0.5, 0.0, 0.1},
                        /*trustor_was_abusive=*/false);
  const UsageHistory* history =
      engine_.reverse_evaluator().FindHistory(/*trustee=*/1, /*trustor=*/0);
  ASSERT_NE(history, nullptr);
  EXPECT_EQ(history->abusive_uses, 1u);
  EXPECT_EQ(history->responsive_uses, 1u);
}

TEST_F(TrustEngineTest, RequestDelegationPicksBestTrustee) {
  engine_.store().Put(0, 1, gps_, {0.9, 0.9, 0.1, 0.1});
  engine_.store().Put(0, 2, gps_, {0.6, 0.6, 0.3, 0.3});
  const auto result = engine_.RequestDelegation(0, gps_, {1, 2});
  EXPECT_EQ(result.trustee, 1u);
  EXPECT_FALSE(result.unavailable);
}

TEST_F(TrustEngineTest, RequestDelegationHonorsReverseEvaluation) {
  engine_.store().Put(0, 1, gps_, {0.9, 0.9, 0.1, 0.1});
  engine_.store().Put(0, 2, gps_, {0.6, 0.6, 0.3, 0.3});
  // Trustee 1 has seen only abusive behavior from trustor 0.
  engine_.reverse_evaluator().SetThreshold(1, kNoTask, 0.6);
  for (int i = 0; i < 10; ++i) {
    engine_.reverse_evaluator().RecordUsage(1, 0, /*abusive=*/true);
  }
  const auto result = engine_.RequestDelegation(0, gps_, {1, 2});
  EXPECT_EQ(result.trustee, 2u);
  EXPECT_EQ(result.refusals, (std::vector<AgentId>{1}));
}

TEST_F(TrustEngineTest, RequestDelegationUnavailableWhenAllRefuse) {
  engine_.reverse_evaluator().SetDefaultThreshold(0.99);
  const auto result = engine_.RequestDelegation(0, gps_, {1, 2});
  EXPECT_TRUE(result.unavailable);
  EXPECT_FALSE(result.no_candidates);
  EXPECT_EQ(result.trustee, kNoAgent);
  EXPECT_EQ(result.refusals.size(), 2u);
}

TEST_F(TrustEngineTest, RequestDelegationDistinguishesEmptyCandidates) {
  // Nobody to ask is not the same condition as everybody refusing.
  const auto empty = engine_.RequestDelegation(0, gps_, {});
  EXPECT_TRUE(empty.no_candidates);
  EXPECT_FALSE(empty.unavailable);
  EXPECT_EQ(empty.trustee, kNoAgent);
  EXPECT_TRUE(empty.refusals.empty());
}

TEST_F(TrustEngineTest, RequestDelegationTieBreaksByAgentIdNotInputOrder) {
  // All candidates share the first-contact estimates, so every strategy
  // score ties; the winner must be the lowest agent id no matter how the
  // caller ordered the list (Fig. 2 determinism).
  const auto forward = engine_.RequestDelegation(0, gps_, {5, 2, 9});
  const auto reversed = engine_.RequestDelegation(0, gps_, {9, 2, 5});
  EXPECT_EQ(forward.trustee, 2u);
  EXPECT_EQ(reversed.trustee, 2u);
}

TEST_F(TrustEngineTest, RequestDelegationEmptyCandidatesWithSelfExecutes) {
  // Nobody to ask, but the trustor supplied self-estimates: it keeps the
  // task itself, and the result still reports the empty candidate list.
  const OutcomeEstimates self{0.8, 0.9, 0.1, 0.1};
  const auto result = engine_.RequestDelegation(0, gps_, {}, self);
  EXPECT_TRUE(result.no_candidates);
  EXPECT_TRUE(result.self_execution);
  EXPECT_FALSE(result.unavailable);
  EXPECT_EQ(result.trustee, 0u);
  EXPECT_NEAR(result.expected_profit, ExpectedNetProfit(self), 1e-12);
}

TEST_F(TrustEngineTest, RequestDelegationSkipsSelf) {
  // A candidate list holding only the trustor is an empty list.
  engine_.store().Put(0, 0, gps_, {1.0, 1.0, 0.0, 0.0});
  const auto result = engine_.RequestDelegation(0, gps_, {0});
  EXPECT_TRUE(result.no_candidates);
  EXPECT_FALSE(result.unavailable);
}

// The §4.4 ranking bug this PR fixes: the configured strategy must drive
// candidate order. Trustee 1 succeeds most often but with terrible
// economics; trustee 2 succeeds less often but profitably. The strategies
// MUST disagree on this store.
TEST_F(TrustEngineTest, SelectionStrategyChangesChosenTrustee) {
  const OutcomeEstimates reliable_but_poor{0.9, 0.1, 0.9, 0.05};
  const OutcomeEstimates risky_but_profitable{0.6, 1.0, 0.1, 0.05};
  ASSERT_GT(reliable_but_poor.success_rate,
            risky_but_profitable.success_rate);
  ASSERT_LT(ExpectedNetProfit(reliable_but_poor),
            ExpectedNetProfit(risky_but_profitable));

  TrustEngineConfig profit_config = MakeConfig();
  profit_config.strategy = SelectionStrategy::kMaxNetProfit;
  TrustEngineConfig success_config = MakeConfig();
  success_config.strategy = SelectionStrategy::kMaxSuccessRate;
  TrustEngine profit_engine(profit_config);
  TrustEngine success_engine(success_config);
  for (TrustEngine* engine : {&profit_engine, &success_engine}) {
    const TaskId task = engine->catalog().AddUniform("gps", {0}).value();
    engine->store().Put(0, 1, task, reliable_but_poor);
    engine->store().Put(0, 2, task, risky_but_profitable);
    EXPECT_EQ(task, gps_);
  }

  const auto by_profit = profit_engine.RequestDelegation(0, gps_, {1, 2});
  const auto by_success = success_engine.RequestDelegation(0, gps_, {1, 2});
  EXPECT_EQ(by_profit.trustee, 2u);
  EXPECT_EQ(by_success.trustee, 1u);
  EXPECT_NE(by_profit.trustee, by_success.trustee);
  EXPECT_NEAR(by_profit.expected_profit,
              ExpectedNetProfit(risky_but_profitable), 1e-12);
}

TEST_F(TrustEngineTest, RequestDelegationEq24PrefersSelfWhenBetter) {
  engine_.store().Put(0, 1, gps_, {0.5, 0.5, 0.5, 0.5});
  const OutcomeEstimates self{0.9, 1.0, 0.0, 0.0};
  const auto result = engine_.RequestDelegation(0, gps_, {1}, self);
  EXPECT_TRUE(result.self_execution);
  EXPECT_EQ(result.trustee, 0u);
  EXPECT_FALSE(result.unavailable);
  EXPECT_NEAR(result.expected_profit, ExpectedNetProfit(self), 1e-12);
}

TEST_F(TrustEngineTest, RequestDelegationEq24DelegatesWhenCandidateBetter) {
  engine_.store().Put(0, 1, gps_, {0.9, 1.0, 0.0, 0.0});
  const OutcomeEstimates self{0.5, 0.5, 0.5, 0.5};
  const auto result = engine_.RequestDelegation(0, gps_, {1}, self);
  EXPECT_FALSE(result.self_execution);
  EXPECT_EQ(result.trustee, 1u);
}

TEST_F(TrustEngineTest, RequestDelegationEqualProfitPrefersSelf) {
  // Eq. 24 requires STRICTLY more profit to take the risk of delegation,
  // so a willing candidate that only ties self-execution is not asked.
  const OutcomeEstimates same{0.5, 0.5, 0.5, 0.5};
  engine_.store().Put(0, 1, gps_, same);
  const auto result = engine_.RequestDelegation(0, gps_, {1}, same);
  EXPECT_TRUE(result.self_execution);
  EXPECT_EQ(result.trustee, 0u);
  EXPECT_TRUE(result.refusals.empty());
}

TEST_F(TrustEngineTest, RequestDelegationFallsBackToSelfAfterRefusals) {
  // The only candidate worth delegating to refuses; the next-best does not
  // beat self-execution (Eq. 24 re-applies after every refusal), so the
  // trustor keeps the task instead of settling for a worse deal.
  engine_.store().Put(0, 1, gps_, {0.9, 1.0, 0.0, 0.0});  // beats self
  engine_.store().Put(0, 2, gps_, {0.4, 0.4, 0.5, 0.3});  // does not
  const OutcomeEstimates self{0.7, 0.8, 0.1, 0.1};
  engine_.reverse_evaluator().SetThreshold(1, kNoTask, 0.9);  // 1 refuses
  const auto result = engine_.RequestDelegation(0, gps_, {1, 2}, self);
  EXPECT_TRUE(result.self_execution);
  EXPECT_EQ(result.trustee, 0u);
  EXPECT_EQ(result.refusals, (std::vector<AgentId>{1}));
}

TEST_F(TrustEngineTest, RequestDelegationSelfExecutesWhenAllRefuse) {
  engine_.reverse_evaluator().SetDefaultThreshold(0.99);
  const OutcomeEstimates self{0.1, 0.1, 0.9, 0.4};  // poor, but only option
  const auto result = engine_.RequestDelegation(0, gps_, {1, 2}, self);
  EXPECT_TRUE(result.unavailable);  // every candidate refused...
  EXPECT_TRUE(result.self_execution);  // ...so the trustor executes.
  EXPECT_EQ(result.trustee, 0u);
  EXPECT_EQ(result.refusals.size(), 2u);
}

TEST_F(TrustEngineTest, RequestDelegationRanksInferredCandidates) {
  // Candidate 2 has no direct 'traffic' record; its Eq. 4 inference from
  // gps+image experience must still enter the ranking as full estimates.
  engine_.store().Put(0, 1, traffic_, {0.5, 0.5, 0.5, 0.5});   // tw 0.5
  engine_.store().Put(0, 2, gps_, {1.0, 1.0, 0.0, 0.0});       // tw 1.0
  engine_.store().Put(0, 2, image_, {1.0, 1.0, 0.0, 0.0});     // tw 1.0
  const auto result = engine_.RequestDelegation(0, traffic_, {1, 2});
  EXPECT_EQ(result.trustee, 2u);
  EXPECT_DOUBLE_EQ(result.trustworthiness, 1.0);
}

TEST_F(TrustEngineTest, EstimateOutcomesPrecedence) {
  // Direct record wins; else inference-synthesized estimates whose Eq. 18
  // trustworthiness equals the inferred value; else initial estimates.
  EXPECT_EQ(engine_.EstimateOutcomes(0, 1, gps_),
            engine_.config().initial_estimates);
  engine_.store().Put(0, 1, gps_, {1.0, 1.0, 0.0, 0.0});
  EXPECT_EQ(engine_.EstimateOutcomes(0, 1, gps_),
            (OutcomeEstimates{1.0, 1.0, 0.0, 0.0}));
  const OutcomeEstimates inferred = engine_.EstimateOutcomes(0, 1, image_);
  EXPECT_EQ(inferred, (OutcomeEstimates{0.5, 0.5, 0.5, 0.5}));  // initial
  engine_.store().Put(0, 1, image_, {0.0, 0.0, 1.0, 1.0});
  const OutcomeEstimates synthesized =
      engine_.EstimateOutcomes(0, 1, traffic_);
  EXPECT_DOUBLE_EQ(
      TrustworthinessFromEstimates(synthesized, engine_.normalizer()),
      engine_.PreEvaluate(0, 1, traffic_));
}

TEST_F(TrustEngineTest, EnvironmentAwarePostEvaluation) {
  // Hostile environment at the trustee: failures are forgiven (de-biased
  // sample = 0 either way, but successes count extra; over many rounds the
  // estimate tracks intrinsic competence, not observed rate). Note Eq. 19
  // puts weight (1−β) on the new sample, so a long-memory average needs a
  // β close to 1.
  TrustEngineConfig slow = MakeConfig();
  slow.beta = ForgettingFactors::Uniform(0.9);
  TrustEngine env_engine(slow);
  env_engine.environment().SetIndicator(1, 0.5);
  TrustEngineConfig plain_config = slow;
  plain_config.environment_aware = false;
  TrustEngine plain_engine(plain_config);
  const TaskId task =
      env_engine.catalog().AddUniform("gps", {0}).value();
  const TaskId task2 =
      plain_engine.catalog().AddUniform("gps", {0}).value();
  // Alternate success/failure (observed rate 0.5 under env 0.5 ->
  // intrinsic 1.0).
  for (int i = 0; i < 400; ++i) {
    const bool success = (i % 2 == 0);
    env_engine.ReportOutcome(0, 1, task, {success, 0.0, 0.0, 0.0});
    plain_engine.ReportOutcome(0, 1, task2, {success, 0.0, 0.0, 0.0});
  }
  const double env_aware =
      env_engine.store().Find(0, 1, task)->estimates.success_rate;
  const double not_aware =
      plain_engine.store().Find(0, 1, task2)->estimates.success_rate;
  EXPECT_NEAR(env_aware, 1.0, 0.15);
  EXPECT_NEAR(not_aware, 0.5, 0.1);
}

TEST_F(TrustEngineTest, DirectTrustworthinessOnlyFromRecords) {
  EXPECT_FALSE(engine_.DirectTrustworthiness(0, 1, gps_).has_value());
  engine_.store().Put(0, 1, gps_, {1.0, 1.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(engine_.DirectTrustworthiness(0, 1, gps_).value(), 1.0);
}

// End-to-end: repeated abusive use of a trustee's resources eventually
// locks the abuser out once the trustee sets a meaningful threshold.
TEST_F(TrustEngineTest, AbuserEventuallyLockedOut) {
  engine_.reverse_evaluator().SetDefaultThreshold(0.4);
  engine_.store().Put(0, 1, gps_, {0.9, 0.9, 0.1, 0.1});
  bool locked_out = false;
  for (int round = 0; round < 20 && !locked_out; ++round) {
    const auto result = engine_.RequestDelegation(0, gps_, {1});
    if (result.unavailable) {
      locked_out = true;
      break;
    }
    engine_.ReportOutcome(0, 1, gps_, {true, 0.5, 0.0, 0.1},
                          /*trustor_was_abusive=*/true);
  }
  EXPECT_TRUE(locked_out);
}

}  // namespace
}  // namespace siot::trust
