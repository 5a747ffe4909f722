// Copyright 2026 The siot-trust Authors.

#include "trust/update.h"

#include <algorithm>

#include "common/macros.h"

namespace siot::trust {

Normalizer::Normalizer(NormalizationRange range, double value_bound)
    : range_(range), value_bound_(value_bound) {
  SIOT_CHECK_MSG(value_bound > 0.0, "value_bound must be positive");
}

double Normalizer::operator()(double raw_profit) const {
  // Raw range: [-2*value_bound, value_bound] (damage and cost can both hit
  // the bound while gain is zero).
  const double lo = -2.0 * value_bound_;
  const double hi = value_bound_;
  double unit = (raw_profit - lo) / (hi - lo);
  unit = std::clamp(unit, 0.0, 1.0);
  switch (range_) {
    case NormalizationRange::kUnit:
      return unit;
    case NormalizationRange::kSigned:
      return 2.0 * unit - 1.0;
  }
  return unit;
}

double ExpectedNetProfit(const OutcomeEstimates& e) {
  return e.success_rate * e.gain - (1.0 - e.success_rate) * e.damage -
         e.cost;
}

double TrustworthinessFromEstimates(const OutcomeEstimates& estimates,
                                    const Normalizer& normalizer) {
  return normalizer(ExpectedNetProfit(estimates));
}

OutcomeEstimates EstimatesFromTrustworthiness(double trustworthiness,
                                              const Normalizer& normalizer) {
  double unit = trustworthiness;
  if (normalizer.range() == NormalizationRange::kSigned) {
    unit = (trustworthiness + 1.0) / 2.0;
  }
  unit = std::clamp(unit, 0.0, 1.0);
  const double bound = normalizer.value_bound();
  // Raw profit Ŝ·Ĝ − (1−Ŝ)·D̂ − Ĉ = B·(3·unit − 2), exactly the affine
  // preimage of `unit` under the normalizer (see header).
  return {unit, bound, bound, bound * (1.0 - unit)};
}

OutcomeEstimates UpdateEstimates(const OutcomeEstimates& previous,
                                 const DelegationOutcome& outcome,
                                 const ForgettingFactors& beta) {
  auto step = [](double b, double old_value, double sample) {
    SIOT_CHECK_MSG(b >= 0.0 && b <= 1.0, "beta=%f outside [0,1]", b);
    return b * old_value + (1.0 - b) * sample;
  };
  OutcomeEstimates next = previous;
  next.success_rate = step(beta.success_rate, previous.success_rate,
                           outcome.success ? 1.0 : 0.0);
  // Ĝ is the expected gain GIVEN the trustee completes the task and D̂ the
  // expected damage GIVEN it fails (§4.4), so each folds in a sample only
  // when its conditioning event occurred; Ĉ is paid either way.
  if (outcome.success) {
    next.gain = step(beta.gain, previous.gain, outcome.gain);
  } else {
    next.damage = step(beta.damage, previous.damage, outcome.damage);
  }
  next.cost = step(beta.cost, previous.cost, outcome.cost);
  return next;
}

double StrategyScore(const OutcomeEstimates& estimates,
                     SelectionStrategy strategy) {
  return strategy == SelectionStrategy::kMaxSuccessRate
             ? estimates.success_rate
             : ExpectedNetProfit(estimates);
}

StatusOr<std::size_t> SelectBestCandidate(
    const std::vector<OutcomeEstimates>& candidates,
    SelectionStrategy strategy) {
  if (candidates.empty()) {
    return Status::NotFound("no candidate trustees");
  }
  std::size_t best = 0;
  double best_score = -1e300;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double score = StrategyScore(candidates[i], strategy);
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

bool ShouldDelegate(const OutcomeEstimates& other,
                    const OutcomeEstimates& self) {
  return ExpectedNetProfit(other) > ExpectedNetProfit(self);
}

}  // namespace siot::trust
