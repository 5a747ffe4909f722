// Copyright 2026 The siot-trust Authors.
// Trustworthiness from delegation results (paper §4.4, Eqs. 18–24).
//
// The trustor keeps four expected quantities per (trustee, task):
//   Ŝ — expected success rate,
//   Ĝ — expected gain when the trustee succeeds,
//   D̂ — expected damage when the trustee fails,
//   Ĉ — expected cost paid either way,
// updated by exponential forgetting (Eqs. 19–22) and folded into one
// normalized trustworthiness value (Eq. 18). Delegation decisions maximize
// the un-normalized expected net profit (Eq. 23), optionally comparing
// against doing the task oneself (Eq. 24).

#ifndef SIOT_TRUST_UPDATE_H_
#define SIOT_TRUST_UPDATE_H_

#include <vector>

#include "common/status.h"
#include "trust/types.h"

namespace siot::trust {

/// Expected outcome estimates Ŝ, Ĝ, D̂, Ĉ for one (trustor, trustee, task).
struct OutcomeEstimates {
  double success_rate = 0.5;  ///< Ŝ ∈ [0, 1]
  double gain = 0.5;          ///< Ĝ >= 0
  double damage = 0.5;        ///< D̂ >= 0
  double cost = 0.5;          ///< Ĉ >= 0

  bool operator==(const OutcomeEstimates&) const = default;
};

/// Observed outcome of one delegation.
struct DelegationOutcome {
  bool success = false;
  /// Realized gain (0 when the task failed).
  double gain = 0.0;
  /// Realized damage (0 when the task succeeded).
  double damage = 0.0;
  /// Realized cost (paid regardless of outcome).
  double cost = 0.0;
};

/// Forgetting factors β for Eqs. 19–22. The paper notes β may differ per
/// quantity; the uniform constructor covers the common case.
struct ForgettingFactors {
  double success_rate = 0.1;
  double gain = 0.1;
  double damage = 0.1;
  double cost = 0.1;

  static ForgettingFactors Uniform(double beta) {
    return {beta, beta, beta, beta};
  }
};

/// Output range of the normalization operator N[·] in Eq. 18.
enum class NormalizationRange {
  kUnit,    ///< [0, 1]
  kSigned,  ///< [-1, 1]
};

/// Normalizer N[·]: affine map from the raw net-profit range onto the
/// output range. With S ∈ [0,1] and G, D, C ∈ [0, value_bound], the raw
/// profit S·G − (1−S)·D − C lies in [−2·value_bound, value_bound].
class Normalizer {
 public:
  explicit Normalizer(NormalizationRange range = NormalizationRange::kUnit,
                      double value_bound = 1.0);

  /// Maps a raw net profit into the output range (clamped).
  double operator()(double raw_profit) const;

  double value_bound() const { return value_bound_; }
  NormalizationRange range() const { return range_; }

 private:
  NormalizationRange range_;
  double value_bound_;
};

/// Expected net profit Ŝ·Ĝ − (1−Ŝ)·D̂ − Ĉ (the objective of Eq. 23).
double ExpectedNetProfit(const OutcomeEstimates& estimates);

/// Eq. 18: normalized trustworthiness from the four estimates.
double TrustworthinessFromEstimates(const OutcomeEstimates& estimates,
                                    const Normalizer& normalizer);

/// Right inverse of Eq. 18: synthesizes estimates whose trustworthiness is
/// `trustworthiness` under `normalizer`. Used when only a scalar
/// trustworthiness is known (Eq. 4 inference, transitivity) but a ranking
/// needs full estimates. With B = value_bound the synthesis is
///   Ŝ = unit(trustworthiness), Ĝ = B, D̂ = B, Ĉ = B·(1 − Ŝ),
/// which keeps every quantity inside its nominal [0, B] range, makes the
/// success rate monotone in the trustworthiness (so both selection
/// strategies rank synthesized candidates consistently), and reproduces
/// TrustworthinessFromEstimates(EstimatesFromTrustworthiness(t)) == t up
/// to floating-point rounding (within ~1 ulp; the fold is an algebraic
/// right inverse, not a bitwise one).
OutcomeEstimates EstimatesFromTrustworthiness(double trustworthiness,
                                              const Normalizer& normalizer);

/// Eqs. 19–22: exponential-forgetting update of the estimates from one
/// observed outcome. Ŝ and Ĉ update on every outcome; Ĝ is the expected
/// gain GIVEN success and D̂ the expected damage GIVEN failure (§4.4), so
/// each folds in a sample only when its conditioning event occurred.
/// Returns the updated estimates.
OutcomeEstimates UpdateEstimates(const OutcomeEstimates& previous,
                                 const DelegationOutcome& outcome,
                                 const ForgettingFactors& beta);

/// Candidate selection strategies for Fig. 13.
enum class SelectionStrategy {
  /// First strategy: maximize Ŝ only.
  kMaxSuccessRate,
  /// Second strategy (Eq. 23): maximize expected net profit.
  kMaxNetProfit,
};

/// The score `strategy` ranks candidates by, higher first: Ŝ for
/// kMaxSuccessRate, the Eq. 23 net profit for kMaxNetProfit.
double StrategyScore(const OutcomeEstimates& estimates,
                     SelectionStrategy strategy);

/// Eq. 23 / first-strategy selection: index of the best candidate in
/// `candidates`, or an error when the list is empty. Ties keep the earliest
/// candidate (stable, deterministic).
StatusOr<std::size_t> SelectBestCandidate(
    const std::vector<OutcomeEstimates>& candidates,
    SelectionStrategy strategy);

/// Eq. 24: true if delegating (estimates `other`) beats doing the task
/// oneself (estimates `self`).
bool ShouldDelegate(const OutcomeEstimates& other,
                    const OutcomeEstimates& self);

}  // namespace siot::trust

#endif  // SIOT_TRUST_UPDATE_H_
