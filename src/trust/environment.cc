// Copyright 2026 The siot-trust Authors.

#include "trust/environment.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace siot::trust {

namespace {

void CheckIndicator(double indicator) {
  SIOT_CHECK_MSG(indicator > 0.0 && indicator <= 1.0,
                 "environment indicator %f outside (0, 1]", indicator);
}

}  // namespace

double AggregateEnvironment(const std::vector<double>& indicators,
                            EnvironmentAggregation aggregation) {
  SIOT_CHECK(!indicators.empty());
  for (double e : indicators) CheckIndicator(e);
  switch (aggregation) {
    case EnvironmentAggregation::kMin:
      return *std::min_element(indicators.begin(), indicators.end());
    case EnvironmentAggregation::kMean: {
      double sum = 0.0;
      for (double e : indicators) sum += e;
      return sum / static_cast<double>(indicators.size());
    }
    case EnvironmentAggregation::kProduct: {
      double product = 1.0;
      for (double e : indicators) product *= e;
      return product;
    }
  }
  return 1.0;
}

double RemoveEnvironmentInfluence(double observed, double aggregate_env,
                                  double max_value) {
  CheckIndicator(aggregate_env);
  SIOT_CHECK(max_value > 0.0);
  const double debiased = observed / aggregate_env;
  if (debiased < 0.0) return 0.0;
  return debiased > max_value ? max_value : debiased;
}

EnvironmentModel::EnvironmentModel(double default_indicator)
    : default_indicator_(default_indicator) {
  CheckIndicator(default_indicator);
}

void EnvironmentModel::SetIndicator(AgentId agent, double indicator) {
  CheckIndicator(indicator);
  *indicators_.FindOrInsert(agent).first = indicator;
}

void EnvironmentModel::SetDefaultIndicator(double indicator) {
  CheckIndicator(indicator);
  default_indicator_ = indicator;
}

double EnvironmentModel::Indicator(AgentId agent) const {
  const double* indicator = indicators_.Find(agent);
  return indicator == nullptr ? default_indicator_ : *indicator;
}

std::vector<std::pair<AgentId, double>> EnvironmentModel::AllIndicators()
    const {
  std::vector<std::pair<AgentId, double>> out;
  out.reserve(indicators_.size());
  indicators_.ForEach([&out](AgentId agent, double indicator) {
    out.emplace_back(agent, indicator);
  });
  std::sort(out.begin(), out.end());
  return out;
}

double EnvironmentModel::ChainIndicator(
    AgentId trustor, AgentId trustee,
    const std::vector<AgentId>& intermediates,
    EnvironmentAggregation aggregation) const {
  std::vector<double> indicators;
  indicators.reserve(intermediates.size() + 2);
  indicators.push_back(Indicator(trustor));
  indicators.push_back(Indicator(trustee));
  for (AgentId agent : intermediates) {
    indicators.push_back(Indicator(agent));
  }
  return AggregateEnvironment(indicators, aggregation);
}

OutcomeEstimates UpdateEstimatesWithEnvironment(
    const OutcomeEstimates& previous, const DelegationOutcome& outcome,
    const ForgettingFactors& beta, double aggregate_env) {
  DelegationOutcome adjusted = outcome;
  // r(·) applied to each observed quantity (Eqs. 25–28), unclamped so the
  // de-biased estimators are unbiased for the intrinsic quantities.
  const double observed_success = outcome.success ? 1.0 : 0.0;
  const double debiased_success =
      RemoveEnvironmentInfluence(observed_success, aggregate_env);
  adjusted.gain = RemoveEnvironmentInfluence(outcome.gain, aggregate_env);
  adjusted.damage =
      RemoveEnvironmentInfluence(outcome.damage, aggregate_env);
  adjusted.cost = RemoveEnvironmentInfluence(outcome.cost, aggregate_env);

  // Eqs. 25–28 share the forgetting structure of Eqs. 19–22, but the
  // success sample is a de-biased rate rather than a 0/1 indicator, so the
  // update is applied directly here.
  auto step = [](double b, double old_value, double sample) {
    SIOT_CHECK_MSG(b >= 0.0 && b <= 1.0, "beta=%f outside [0,1]", b);
    return b * old_value + (1.0 - b) * sample;
  };
  OutcomeEstimates next = previous;
  next.success_rate =
      step(beta.success_rate, previous.success_rate, debiased_success);
  // Conditional updates as in UpdateEstimates: gain given success, damage
  // given failure.
  if (outcome.success) {
    next.gain = step(beta.gain, previous.gain, adjusted.gain);
  } else {
    next.damage = step(beta.damage, previous.damage, adjusted.damage);
  }
  next.cost = step(beta.cost, previous.cost, adjusted.cost);
  return next;
}

}  // namespace siot::trust
