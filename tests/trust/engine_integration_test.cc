// Copyright 2026 The siot-trust Authors.
// Integration: the TrustEngine facade driving many delegation rounds over
// a real social-graph population, checking system-level invariants — the
// kind of full loop an adopting application would run.

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.h"
#include "graph/datasets.h"
#include "sim/agent.h"
#include "trust/trust_engine.h"
#include "trust/trust_store_io.h"

namespace siot::trust {
namespace {

class EngineIntegrationTest : public ::testing::Test {
 protected:
  EngineIntegrationTest()
      : dataset_(graph::LoadDataset(graph::SocialNetwork::kTwitter)),
        rng_(99) {
    TrustEngineConfig config;
    config.beta = ForgettingFactors::Uniform(0.8);
    config.default_theta = 0.35;
    engine_ = std::make_unique<TrustEngine>(config);
    task_ = engine_->catalog().AddUniform("sense", {0, 1}).value();
    population_ = sim::BuildPopulation(dataset_.graph, {}, rng_);
    // Hidden behavior: competence per trustee, legitimacy per trustor.
    for (const AgentId y : population_.trustees) {
      competence_[y] = rng_.NextDouble();
    }
    for (const AgentId x : population_.trustors) {
      legitimacy_[x] = rng_.NextDouble();
    }
  }

  /// Runs one full round for every trustor; returns realized mean profit.
  double RunRound() {
    double profit_sum = 0.0;
    std::size_t served = 0;
    for (const AgentId x : population_.trustors) {
      std::vector<AgentId> candidates;
      for (const graph::NodeId y : dataset_.graph.Neighbors(x)) {
        if (population_.IsTrustee(y)) candidates.push_back(y);
      }
      if (candidates.empty()) continue;
      const auto decision = engine_->RequestDelegation(x, task_, candidates);
      if (decision.unavailable) continue;
      const bool success = rng_.Bernoulli(competence_[decision.trustee]);
      const bool abusive = !rng_.Bernoulli(legitimacy_[x]);
      DelegationOutcome outcome;
      outcome.success = success;
      outcome.gain = success ? 0.8 : 0.0;
      outcome.damage = success ? 0.0 : 0.4;
      outcome.cost = 0.1;
      engine_->ReportOutcome(x, decision.trustee, task_, outcome, abusive);
      profit_sum += success ? 0.7 : -0.5;
      ++served;
    }
    return served == 0 ? 0.0 : profit_sum / static_cast<double>(served);
  }

  graph::SocialDataset dataset_;
  Rng rng_;
  std::unique_ptr<TrustEngine> engine_;
  TaskId task_ = kNoTask;
  sim::Population population_;
  std::unordered_map<AgentId, double> competence_;
  std::unordered_map<AgentId, double> legitimacy_;
};

TEST_F(EngineIntegrationTest, LearningImprovesRealizedProfit) {
  double early = 0.0, late = 0.0;
  for (int round = 0; round < 40; ++round) {
    const double profit = RunRound();
    if (round < 5) early += profit / 5.0;
    if (round >= 35) late += profit / 5.0;
  }
  // Selection sharpens as estimates converge to the hidden competences.
  EXPECT_GT(late, early);
}

TEST_F(EngineIntegrationTest, EstimatesConvergeTowardCompetence) {
  for (int round = 0; round < 60; ++round) RunRound();
  // For pairs with many observations, Ŝ approaches the hidden competence.
  std::size_t checked = 0;
  for (const auto& [key, record] : engine_->store().AllRecords()) {
    if (record.observations < 30) continue;
    EXPECT_NEAR(record.estimates.success_rate, competence_[key.trustee],
                0.35)
        << "trustee " << key.trustee;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(EngineIntegrationTest, AbusiveTrustorsAccumulateRefusals) {
  for (int round = 0; round < 40; ++round) RunRound();
  // Find the most/least legitimate trustors with trustee neighbors and
  // compare how the reverse evaluations treat them.
  double worst_legitimacy = 2.0, best_legitimacy = -1.0;
  AgentId worst = kNoAgent, best = kNoAgent;
  for (const AgentId x : population_.trustors) {
    bool has_candidates = false;
    for (const graph::NodeId y : dataset_.graph.Neighbors(x)) {
      if (population_.IsTrustee(y)) has_candidates = true;
    }
    if (!has_candidates) continue;
    if (legitimacy_[x] < worst_legitimacy) {
      worst_legitimacy = legitimacy_[x];
      worst = x;
    }
    if (legitimacy_[x] > best_legitimacy) {
      best_legitimacy = legitimacy_[x];
      best = x;
    }
  }
  ASSERT_NE(worst, kNoAgent);
  ASSERT_NE(best, kNoAgent);
  // Average reverse trustworthiness across that trustor's trustees.
  auto mean_reverse = [&](AgentId x) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const graph::NodeId y : dataset_.graph.Neighbors(x)) {
      if (!population_.IsTrustee(y)) continue;
      sum += engine_->reverse_evaluator().ReverseTrustworthiness(y, x);
      ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  EXPECT_GT(mean_reverse(best), mean_reverse(worst));
}

TEST_F(EngineIntegrationTest, StateSurvivesSerializationRoundTrip) {
  for (int round = 0; round < 20; ++round) RunRound();
  const std::string blob = SerializeTrustEngineState(*engine_);
  TrustEngine reloaded(engine_->config());
  ASSERT_TRUE(DeserializeTrustEngineState(blob, &reloaded).ok());
  EXPECT_EQ(SerializeTrustEngineState(reloaded), blob);
  EXPECT_EQ(reloaded.store().size(), engine_->store().size());
}

}  // namespace
}  // namespace siot::trust
