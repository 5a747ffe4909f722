// Copyright 2026 The siot-trust Authors.
// Trustworthiness under a dynamic environment (paper §4.5, Eqs. 25–29).
//
// Each agent has an instantaneous environment indicator E ∈ (0, 1]
// (1 = perfectly amicable, →0 = hostile). Observed outcomes are scaled by
// the environment before they are folded into the estimates: the removal
// function r(·) divides the observation by the *worst* indicator along the
// delegation chain (Cannikin / Wooden-Bucket law, Eq. 29), so an honest
// trustee that performs poorly in a hostile environment is not punished,
// and a success scored in hostility earns extra credit.

#ifndef SIOT_TRUST_ENVIRONMENT_H_
#define SIOT_TRUST_ENVIRONMENT_H_

#include <limits>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/status.h"
#include "trust/types.h"
#include "trust/update.h"

namespace siot::trust {

/// How the per-agent indicators along the chain are aggregated in r(·).
/// The paper's Eq. 29 uses kMin; the others exist for the ablation bench.
enum class EnvironmentAggregation {
  kMin,      ///< Cannikin law: the worst environment dominates (Eq. 29).
  kMean,     ///< Arithmetic mean of the indicators.
  kProduct,  ///< Product of the indicators (compounding attenuation).
};

/// Aggregates environment indicators per the chosen rule. All indicators
/// must lie in (0, 1]; the result also lies in (0, 1].
double AggregateEnvironment(const std::vector<double>& indicators,
                            EnvironmentAggregation aggregation);

/// Eq. 29: removes the environment influence from one observation by
/// dividing by the aggregate indicator. NOT clamped by default: for a 0/1
/// success sample X observed under environment e, the de-biased sample X/e
/// exceeds 1, and that is exactly what makes the estimator unbiased
/// (E[X/e] = S when P(X=1) = S·e). Pass a finite `max_value` to cap
/// runaway values for bounded quantities if desired.
double RemoveEnvironmentInfluence(
    double observed, double aggregate_env,
    double max_value = std::numeric_limits<double>::infinity());

/// Tracks per-agent instantaneous environment indicators.
class EnvironmentModel {
 public:
  /// Indicator used for agents never set explicitly.
  explicit EnvironmentModel(double default_indicator = 1.0);

  /// Sets agent's instantaneous indicator (must be in (0, 1]).
  void SetIndicator(AgentId agent, double indicator);
  /// Sets the default for unset agents (must be in (0, 1]).
  void SetDefaultIndicator(double indicator);
  double Indicator(AgentId agent) const;
  double default_indicator() const { return default_indicator_; }
  /// Number of explicitly set indicators.
  std::size_t indicator_count() const { return indicators_.size(); }
  /// Sizes the indicator table so `agents` settings fit without growing.
  void ReserveIndicators(std::size_t agents) { indicators_.Reserve(agents); }

  /// All explicitly set indicators sorted by agent id — canonical order
  /// for serialization.
  std::vector<std::pair<AgentId, double>> AllIndicators() const;

  /// Aggregate over trustor, trustee, and intermediates {E_i}, i ∈ I.
  double ChainIndicator(AgentId trustor, AgentId trustee,
                        const std::vector<AgentId>& intermediates,
                        EnvironmentAggregation aggregation =
                            EnvironmentAggregation::kMin) const;

 private:
  FlatMap<AgentId, double> indicators_;
  double default_indicator_;
};

/// Eqs. 25–28: one environment-aware update step. Applies r(·) with the
/// chain aggregate to each observed quantity (unclamped, per Eq. 29), then
/// the β-forgetting update of Eqs. 19–22. The de-biased estimates track the
/// trustee's *intrinsic* competence; multiply by the current environment
/// indicator to predict the expected outcome in the present conditions.
OutcomeEstimates UpdateEstimatesWithEnvironment(
    const OutcomeEstimates& previous, const DelegationOutcome& outcome,
    const ForgettingFactors& beta, double aggregate_env);

}  // namespace siot::trust

#endif  // SIOT_TRUST_ENVIRONMENT_H_
