// Copyright 2026 The siot-trust Authors.

#include "trust/trust_engine.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace siot::trust {

namespace {

/// A candidate trustee with the trustor's outcome estimates for it and
/// their strategy score, computed once.
struct RankedCandidate {
  double score = 0.0;
  AgentId agent = kNoAgent;
  OutcomeEstimates estimates;
};

/// Ranking order: descending score, ties by ascending agent id. A NaN
/// score ranks after every number, so this is a strict weak order for
/// any estimates the store holds.
bool RanksBefore(const RankedCandidate& a, const RankedCandidate& b) {
  const bool a_nan = std::isnan(a.score);
  const bool b_nan = std::isnan(b.score);
  if (a_nan != b_nan) return b_nan;
  if (!a_nan && a.score != b.score) return a.score > b.score;
  return a.agent < b.agent;
}

}  // namespace

TrustEngine::TrustEngine(TrustEngineConfig config)
    : config_(config),
      normalizer_(config.normalization, config.value_bound),
      environment_(1.0) {
  store_.SetDefaultEstimates(config_.initial_estimates);
  reverse_evaluator_.SetDefaultThreshold(config_.default_theta);
}

double TrustEngine::PreEvaluate(AgentId trustor, AgentId trustee,
                                TaskId task) const {
  // Single source of truth for the fallback chain: EstimateOutcomes. The
  // Eq. 18 fold of its result matches the underlying value exactly for
  // the direct and first-contact branches and to within ~1 ulp for the
  // inference branch (EstimatesFromTrustworthiness is an algebraic, not
  // bitwise, right inverse) — which keeps PreEvaluate and the delegation
  // ranking answering from the same estimates.
  return TrustworthinessFromEstimates(
      EstimateOutcomes(trustor, trustee, task), normalizer_);
}

OutcomeEstimates TrustEngine::EstimateOutcomes(AgentId trustor,
                                               AgentId trustee,
                                               TaskId task) const {
  // One probe: the pair's records answer the direct lookup, the coverage
  // check and Eq. 4.
  const auto records = store_.PairRecords(trustor, trustee);
  CharacteristicMask experienced = 0;
  for (const PairTaskRecord& entry : records) {
    if (entry.task == task) return entry.record.estimates;
    experienced |= catalog_.Get(entry.task).mask();
  }
  // Inferential transfer from analogous tasks (Eq. 4), when experience
  // covers every characteristic of the task.
  const Task& target = catalog_.Get(task);
  if (target.CoveredBy(experienced)) {
    const CoveredInference inferred =
        InferCovered(catalog_, target, records, normalizer_);
    // The kernel's cover can be narrower than the masks' union: a
    // normalized weight can underflow to 0.
    if (target.CoveredBy(inferred.covered)) {
      return EstimatesFromTrustworthiness(inferred.trustworthiness,
                                          normalizer_);
    }
  }
  // No covering experience: fall back to the first-contact estimates.
  return config_.initial_estimates;
}

DelegationRequestResult TrustEngine::RequestDelegation(
    AgentId trustor, TaskId task, const std::vector<AgentId>& candidates,
    const std::optional<OutcomeEstimates>& self_estimates) const {
  DelegationRequestResult result;
  const auto self_execute = [&] {
    result.trustee = trustor;
    result.self_execution = true;
    result.trustworthiness =
        TrustworthinessFromEstimates(*self_estimates, normalizer_);
    result.expected_profit = ExpectedNetProfit(*self_estimates);
  };
  std::vector<RankedCandidate> ranking;
  ranking.reserve(candidates.size());
  for (AgentId candidate : candidates) {
    if (candidate == trustor) continue;
    const OutcomeEstimates estimates =
        EstimateOutcomes(trustor, candidate, task);
    ranking.push_back(
        {StrategyScore(estimates, config_.strategy), candidate, estimates});
  }
  if (ranking.empty()) {
    result.no_candidates = true;
    if (self_estimates.has_value()) self_execute();
    return result;
  }
  // Score ties break by ascending agent id (the Fig. 2 helper's rule), so
  // the chosen trustee never depends on the caller's candidate ordering.
  std::sort(ranking.begin(), ranking.end(), RanksBefore);
  // Fig. 2 walk over the strategy ranking. Each step visits the best
  // still-willing candidate, so applying the Eq. 24 self comparison per
  // step is exactly re-deciding after every refusal: the moment the
  // strategy's best remaining candidate fails to strictly beat
  // self-execution, the trustor keeps the task.
  for (const RankedCandidate& candidate : ranking) {
    if (self_estimates.has_value() &&
        !ShouldDelegate(candidate.estimates, *self_estimates)) {
      self_execute();
      return result;
    }
    if (reverse_evaluator_.AcceptsDelegation(candidate.agent, trustor,
                                             task)) {
      result.trustee = candidate.agent;
      result.trustworthiness =
          TrustworthinessFromEstimates(candidate.estimates, normalizer_);
      result.expected_profit = ExpectedNetProfit(candidate.estimates);
      return result;
    }
    // One allocation for every refusal this request can make.
    if (result.refusals.empty()) result.refusals.reserve(ranking.size());
    result.refusals.push_back(candidate.agent);
  }
  // Every candidate refused; execute the task oneself when possible.
  result.unavailable = true;
  if (self_estimates.has_value()) self_execute();
  return result;
}

void TrustEngine::ReportOutcome(AgentId trustor, AgentId trustee,
                                TaskId task,
                                const DelegationOutcome& outcome,
                                bool trustor_was_abusive,
                                const std::vector<AgentId>& intermediates) {
  // Trustor-side post-evaluation of the trustee; observation counting and
  // estimate updates live in TrustStore::RecordOutcome.
  if (config_.environment_aware) {
    const double env = environment_.ChainIndicator(
        trustor, trustee, intermediates, config_.environment_aggregation);
    store_.RecordOutcome(trustor, trustee, task, outcome, config_.beta, env);
  } else {
    store_.RecordOutcome(trustor, trustee, task, outcome, config_.beta);
  }
  // Trustee-side post-evaluation of the trustor (usage pattern record).
  reverse_evaluator_.RecordUsage(trustee, trustor, trustor_was_abusive);
}

std::optional<double> TrustEngine::DirectTrustworthiness(
    AgentId trustor, AgentId trustee, TaskId task) const {
  return store_.Trustworthiness(trustor, trustee, task, normalizer_);
}

}  // namespace siot::trust
