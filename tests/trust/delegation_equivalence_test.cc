// Copyright 2026 The siot-trust Authors.
// Equivalence of the engine's estimate chain and delegation walk with
// straightforward reference versions kept here: the chain as a direct
// lookup (TrustStore::Find), then Eq. 4 over a gathered experience
// vector, then the first-contact estimates; the walk as a sort by agent
// id followed by a stable sort by strategy score. The engine runs one
// store probe, one allocation-free Eq. 4 kernel and one sort; every
// double it produces must match the references bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "trust/inference.h"
#include "trust/trust_engine.h"

namespace siot::trust {
namespace {

// ------------------------------------------------------ references --

/// Eq. 4, summed parts outer and experiences inner.
PartialInference RefPartialInfer(
    const TaskCatalog& catalog, const Task& target,
    const std::vector<TaskExperience>& experiences) {
  PartialInference out;
  out.per_characteristic.assign(target.parts().size(), 0.0);
  double covered_weight = 0.0;
  double combined = 0.0;
  for (std::size_t i = 0; i < target.parts().size(); ++i) {
    const auto& part = target.parts()[i];
    double weight_sum = 0.0;
    double weighted_tw = 0.0;
    for (const TaskExperience& exp : experiences) {
      const double w = catalog.Get(exp.task).WeightOf(part.id);
      if (w <= 0.0) continue;
      weight_sum += w;
      weighted_tw += w * exp.trustworthiness;
    }
    if (weight_sum > 0.0) {
      const double estimate = weighted_tw / weight_sum;
      out.per_characteristic[i] = estimate;
      out.covered |= 1ull << part.id;
      covered_weight += part.weight;
      combined += part.weight * estimate;
    }
  }
  out.complete = target.CoveredBy(out.covered);
  out.trustworthiness =
      covered_weight > 0.0 ? combined / covered_weight : 0.0;
  return out;
}

std::vector<TaskExperience> RefGather(const TrustStore& store,
                                      const Normalizer& normalizer,
                                      AgentId trustor, AgentId trustee) {
  std::vector<TaskExperience> experiences;
  for (const PairTaskRecord& entry : store.PairRecords(trustor, trustee)) {
    experiences.push_back(
        {entry.task,
         TrustworthinessFromEstimates(entry.record.estimates, normalizer)});
  }
  return experiences;
}

std::optional<double> RefInferFromStore(const TrustEngine& engine,
                                        AgentId trustor, AgentId trustee,
                                        TaskId task) {
  const PartialInference partial = RefPartialInfer(
      engine.catalog(), engine.catalog().Get(task),
      RefGather(engine.store(), engine.normalizer(), trustor, trustee));
  if (!partial.complete) return std::nullopt;
  return partial.trustworthiness;
}

OutcomeEstimates RefEstimateOutcomes(const TrustEngine& engine,
                                     AgentId trustor, AgentId trustee,
                                     TaskId task) {
  if (const auto direct = engine.store().Find(trustor, trustee, task)) {
    return direct->estimates;
  }
  if (const auto inferred = RefInferFromStore(engine, trustor, trustee, task)) {
    return EstimatesFromTrustworthiness(*inferred, engine.normalizer());
  }
  return engine.config().initial_estimates;
}

DelegationRequestResult RefRequestDelegation(
    const TrustEngine& engine, AgentId trustor, TaskId task,
    const std::vector<AgentId>& candidates,
    const std::optional<OutcomeEstimates>& self_estimates) {
  const Normalizer& normalizer = engine.normalizer();
  DelegationRequestResult result;
  const auto self_execute = [&] {
    result.trustee = trustor;
    result.self_execution = true;
    result.trustworthiness =
        TrustworthinessFromEstimates(*self_estimates, normalizer);
    result.expected_profit = ExpectedNetProfit(*self_estimates);
  };
  std::vector<std::pair<AgentId, OutcomeEstimates>> evaluations;
  for (AgentId candidate : candidates) {
    if (candidate == trustor) continue;
    evaluations.emplace_back(
        candidate, RefEstimateOutcomes(engine, trustor, candidate, task));
  }
  std::sort(evaluations.begin(), evaluations.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (evaluations.empty()) {
    result.no_candidates = true;
    if (self_estimates.has_value()) self_execute();
    return result;
  }
  std::vector<std::size_t> order(evaluations.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const SelectionStrategy strategy = engine.config().strategy;
  const auto score = [&](std::size_t i) {
    return strategy == SelectionStrategy::kMaxSuccessRate
               ? evaluations[i].second.success_rate
               : ExpectedNetProfit(evaluations[i].second);
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return score(a) > score(b);
                   });
  for (const std::size_t index : order) {
    const auto& [agent, estimates] = evaluations[index];
    if (self_estimates.has_value() &&
        !ShouldDelegate(estimates, *self_estimates)) {
      self_execute();
      return result;
    }
    if (engine.reverse_evaluator().AcceptsDelegation(agent, trustor, task)) {
      result.trustee = agent;
      result.trustworthiness =
          TrustworthinessFromEstimates(estimates, normalizer);
      result.expected_profit = ExpectedNetProfit(estimates);
      return result;
    }
    result.refusals.push_back(agent);
  }
  result.unavailable = true;
  if (self_estimates.has_value()) self_execute();
  return result;
}

// -------------------------------------------------------- fixtures --

bool SameBytes(const OutcomeEstimates& a, const OutcomeEstimates& b) {
  return std::memcmp(&a, &b, sizeof(OutcomeEstimates)) == 0;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

constexpr std::size_t kAgents = 14;
constexpr CharacteristicId kCharacteristicPool = 7;

/// A seeded engine: a weighted catalog of tasks with 1–5 characteristics,
/// records on a random subset of pairs (many pairs stay empty, many
/// cover only part of a task), identical records on some pairs so scores
/// tie, and reverse thresholds and usage so some candidates refuse.
TrustEngine MakeEngine(std::uint64_t seed, SelectionStrategy strategy,
                       NormalizationRange range) {
  Rng rng(seed);
  TrustEngineConfig config;
  config.strategy = strategy;
  config.normalization = range;
  config.value_bound = rng.Uniform(0.5, 2.0);
  config.initial_estimates = {rng.NextDouble(), rng.NextDouble(),
                              rng.NextDouble(), rng.NextDouble()};
  TrustEngine engine(config);
  const std::size_t tasks = 4 + rng.NextBounded(6);
  for (std::size_t t = 0; t < tasks; ++t) {
    const std::size_t size = 1 + rng.NextBounded(5);
    std::vector<CharacteristicId> pool(kCharacteristicPool);
    for (CharacteristicId c = 0; c < kCharacteristicPool; ++c) pool[c] = c;
    std::vector<WeightedCharacteristic> parts;
    for (std::size_t k = 0; k < size; ++k) {
      const std::size_t pick = rng.NextBounded(pool.size());
      parts.push_back({pool[pick], rng.Uniform(0.05, 3.0)});
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    engine.catalog().Add("task" + std::to_string(t), parts).value();
  }
  const double bound = config.value_bound;
  const auto random_estimates = [&] {
    return OutcomeEstimates{rng.NextDouble(), bound * rng.NextDouble(),
                            bound * rng.NextDouble(),
                            bound * rng.NextDouble()};
  };
  const OutcomeEstimates shared = random_estimates();
  for (AgentId x = 0; x < kAgents; ++x) {
    for (AgentId y = 0; y < kAgents; ++y) {
      if (x == y || rng.NextBounded(3) == 0) continue;  // empty pair
      const std::size_t records = 1 + rng.NextBounded(3);
      for (std::size_t r = 0; r < records; ++r) {
        const auto task = static_cast<TaskId>(rng.NextBounded(tasks));
        engine.store().Put(
            x, y, task, rng.NextBounded(5) == 0 ? shared : random_estimates());
      }
    }
  }
  for (AgentId y = 0; y < kAgents; ++y) {
    if (rng.NextBounded(3) == 0) {
      engine.reverse_evaluator().SetThreshold(y, kNoTask, rng.NextDouble());
    }
    for (AgentId x = 0; x < kAgents; ++x) {
      if (rng.NextBounded(4) == 0) {
        engine.reverse_evaluator().RecordUsage(y, x, rng.NextBounded(2) == 0);
      }
    }
  }
  return engine;
}

struct Branches {
  std::size_t direct = 0;
  std::size_t inferred = 0;
  std::size_t initial = 0;
};

// ----------------------------------------------------------- tests --

TEST(DelegationEquivalenceTest, EstimateOutcomesMatchesReferenceChain) {
  Branches branches;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const NormalizationRange range = seed % 2 == 0
                                         ? NormalizationRange::kUnit
                                         : NormalizationRange::kSigned;
    const TrustEngine engine =
        MakeEngine(seed, SelectionStrategy::kMaxNetProfit, range);
    for (AgentId x = 0; x < kAgents; ++x) {
      for (AgentId y = 0; y < kAgents; ++y) {
        for (TaskId t = 0; t < engine.catalog().size(); ++t) {
          const OutcomeEstimates got = engine.EstimateOutcomes(x, y, t);
          const OutcomeEstimates want = RefEstimateOutcomes(engine, x, y, t);
          ASSERT_TRUE(SameBytes(got, want))
              << "seed " << seed << " (" << x << ", " << y << ", " << t
              << ")";
          ASSERT_TRUE(SameBits(
              engine.PreEvaluate(x, y, t),
              TrustworthinessFromEstimates(want, engine.normalizer())));
          if (engine.store().Has(x, y, t)) {
            ++branches.direct;
          } else if (RefInferFromStore(engine, x, y, t).has_value()) {
            ++branches.inferred;
          } else {
            ++branches.initial;
          }
        }
      }
    }
  }
  // Every branch of the chain ran, the inferred one many times.
  EXPECT_GT(branches.direct, 1000u);
  EXPECT_GT(branches.inferred, 1000u);
  EXPECT_GT(branches.initial, 1000u);
}

TEST(DelegationEquivalenceTest, InferenceEntryPointsMatchReference) {
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    const TrustEngine engine = MakeEngine(
        seed, SelectionStrategy::kMaxNetProfit, NormalizationRange::kUnit);
    const TaskCatalog& catalog = engine.catalog();
    for (AgentId x = 0; x < kAgents; ++x) {
      for (AgentId y = 0; y < kAgents; ++y) {
        const std::vector<TaskExperience> experiences =
            RefGather(engine.store(), engine.normalizer(), x, y);
        for (TaskId t = 0; t < catalog.size(); ++t) {
          const Task& target = catalog.Get(t);
          const PartialInference want =
              RefPartialInfer(catalog, target, experiences);
          const PartialInference got =
              PartialInfer(catalog, target, experiences);
          ASSERT_EQ(got.covered, want.covered);
          ASSERT_EQ(got.complete, want.complete);
          ASSERT_TRUE(SameBits(got.trustworthiness, want.trustworthiness));
          ASSERT_EQ(got.per_characteristic.size(),
                    want.per_characteristic.size());
          ASSERT_EQ(std::memcmp(got.per_characteristic.data(),
                                want.per_characteristic.data(),
                                want.per_characteristic.size() *
                                    sizeof(double)),
                    0);
          const auto strict = InferTrustworthiness(catalog, target,
                                                   experiences);
          const auto stored = InferFromStore(
              catalog, engine.store(), engine.normalizer(), x, y, target);
          ASSERT_EQ(strict.ok(), want.complete);
          ASSERT_EQ(stored.ok(), want.complete);
          if (want.complete) {
            ASSERT_TRUE(SameBits(strict.value(), want.trustworthiness));
            ASSERT_TRUE(SameBits(stored.value(), want.trustworthiness));
          } else {
            EXPECT_EQ(stored.status().code(),
                      StatusCode::kFailedPrecondition);
          }
        }
      }
    }
  }
}

TEST(DelegationEquivalenceTest, UnderflowedWeightDoesNotCover) {
  // "mixed" holds characteristic 0, but its normalized weight underflows
  // to 0, so its record covers "gps" by mask and not by Eq. 4.
  TrustEngineConfig config;
  config.initial_estimates = {0.25, 0.5, 0.5, 0.5};
  TrustEngine engine(config);
  const TaskId mixed =
      engine.catalog().Add("mixed", {{0, 1e-320}, {1, 1e10}}).value();
  const TaskId gps = engine.catalog().AddUniform("gps", {0}).value();
  ASSERT_EQ(engine.catalog().Get(mixed).WeightOf(0), 0.0);
  engine.store().Put(0, 1, mixed, {0.9, 0.9, 0.1, 0.1});
  EXPECT_TRUE(SameBytes(engine.EstimateOutcomes(0, 1, gps),
                        RefEstimateOutcomes(engine, 0, 1, gps)));
  EXPECT_TRUE(SameBytes(engine.EstimateOutcomes(0, 1, gps),
                        config.initial_estimates));
}

void ExpectSameResult(const DelegationRequestResult& got,
                      const DelegationRequestResult& want) {
  EXPECT_EQ(got.trustee, want.trustee);
  EXPECT_EQ(got.no_candidates, want.no_candidates);
  EXPECT_EQ(got.unavailable, want.unavailable);
  EXPECT_EQ(got.self_execution, want.self_execution);
  EXPECT_TRUE(SameBits(got.trustworthiness, want.trustworthiness));
  EXPECT_TRUE(SameBits(got.expected_profit, want.expected_profit));
  EXPECT_EQ(got.refusals, want.refusals);
}

TEST(DelegationEquivalenceTest, RequestDelegationMatchesReferenceWalk) {
  std::size_t refusing = 0;
  std::size_t self_executed = 0;
  std::size_t delegated = 0;
  for (const SelectionStrategy strategy :
       {SelectionStrategy::kMaxNetProfit,
        SelectionStrategy::kMaxSuccessRate}) {
    for (std::uint64_t seed = 200; seed < 230; ++seed) {
      const TrustEngine engine =
          MakeEngine(seed, strategy, NormalizationRange::kUnit);
      Rng rng(seed * 7919);
      for (int request = 0; request < 150; ++request) {
        const auto trustor = static_cast<AgentId>(rng.NextBounded(kAgents));
        const auto task =
            static_cast<TaskId>(rng.NextBounded(engine.catalog().size()));
        // Duplicates and the trustor itself may appear; the list may be
        // empty or hold only the trustor.
        std::vector<AgentId> candidates(rng.NextBounded(kAgents + 6));
        for (AgentId& candidate : candidates) {
          candidate = static_cast<AgentId>(rng.NextBounded(kAgents));
        }
        if (request % 25 == 0) candidates = {trustor};
        std::optional<OutcomeEstimates> self;
        if (rng.NextBounded(3) == 0) {
          self = OutcomeEstimates{rng.NextDouble(), rng.NextDouble(),
                                  rng.NextDouble(), 0.5 * rng.NextDouble()};
        }
        const DelegationRequestResult got =
            engine.RequestDelegation(trustor, task, candidates, self);
        const DelegationRequestResult want =
            RefRequestDelegation(engine, trustor, task, candidates, self);
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " request "
                                          << request);
        ExpectSameResult(got, want);
        refusing += !want.refusals.empty();
        self_executed += want.self_execution;
        delegated += want.trustee != kNoAgent && !want.self_execution;
      }
    }
  }
  EXPECT_GT(refusing, 100u);
  EXPECT_GT(self_executed, 100u);
  EXPECT_GT(delegated, 1000u);
}

TEST(DelegationEquivalenceTest, TiesBreakByAscendingAgentWhateverTheOrder) {
  for (const SelectionStrategy strategy :
       {SelectionStrategy::kMaxNetProfit,
        SelectionStrategy::kMaxSuccessRate}) {
    TrustEngineConfig config;
    config.strategy = strategy;
    TrustEngine engine(config);
    const TaskId task = engine.catalog().AddUniform("gps", {0}).value();
    const OutcomeEstimates best{0.9, 0.9, 0.1, 0.1};
    for (AgentId y : {7u, 3u, 11u}) engine.store().Put(0, y, task, best);
    engine.store().Put(0, 5, task, {0.2, 0.2, 0.8, 0.3});
    engine.reverse_evaluator().SetThreshold(3, kNoTask, 2.0);  // refuses
    for (const std::vector<AgentId>& candidates :
         {std::vector<AgentId>{5, 11, 7, 3, 9}, {3, 7, 11, 5, 9},
          {9, 11, 5, 7, 3, 11, 0}}) {
      const DelegationRequestResult result =
          engine.RequestDelegation(0, task, candidates);
      EXPECT_EQ(result.trustee, 7u);
      EXPECT_EQ(result.refusals, std::vector<AgentId>{3});
      ExpectSameResult(result, RefRequestDelegation(engine, 0, task,
                                                    candidates,
                                                    std::nullopt));
    }
  }
}

TEST(DelegationEquivalenceTest, NanScoresRankLastAndNeverBreakTheSort) {
  // A NaN estimate makes the comparison-by-score relation non-transitive;
  // the ranking must still be a strict weak order (no out-of-bounds
  // sort), rank every NaN after every number, and tie NaNs by agent id.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const SelectionStrategy strategy :
       {SelectionStrategy::kMaxNetProfit,
        SelectionStrategy::kMaxSuccessRate}) {
    TrustEngineConfig config;
    config.strategy = strategy;
    TrustEngine engine(config);
    const TaskId task = engine.catalog().AddUniform("gps", {0}).value();
    std::vector<AgentId> candidates;
    for (AgentId y = 1; y <= 64; ++y) {
      const bool is_nan = y % 3 == 0;
      engine.store().Put(0, y, task,
                         {is_nan ? nan : 0.01 * y, 0.5, 0.5, 0.1});
      // Everyone but agent 60 (a NaN) refuses, so the walk visits the
      // whole ranking up to it.
      if (y != 60) engine.reverse_evaluator().SetThreshold(y, kNoTask, 2.0);
      candidates.push_back(static_cast<AgentId>(65 - y));
    }
    const DelegationRequestResult result =
        engine.RequestDelegation(0, task, candidates);
    EXPECT_EQ(result.trustee, 60u);
    std::vector<AgentId> expected;
    for (AgentId y = 64; y >= 1; --y) {
      if (y % 3 != 0) expected.push_back(y);  // numbers, best first
    }
    for (AgentId y = 3; y < 60; y += 3) expected.push_back(y);
    EXPECT_EQ(result.refusals, expected);
  }
}

}  // namespace
}  // namespace siot::trust
