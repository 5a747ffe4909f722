// Copyright 2026 The siot-trust Authors.
// TrustEngine: the facade tying the whole §3 trust process together —
// pre-evaluation (direct records, falling back to characteristic inference),
// mutual selection with reverse evaluation, the delegation decision, and
// environment-aware post-evaluation of both sides.
//
// This is the public entry point example applications use; the individual
// mechanisms remain available as standalone components for simulations that
// need to isolate one clarified feature at a time (as the paper's §5 does).

#ifndef SIOT_TRUST_TRUST_ENGINE_H_
#define SIOT_TRUST_TRUST_ENGINE_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "trust/environment.h"
#include "trust/inference.h"
#include "trust/mutual.h"
#include "trust/task.h"
#include "trust/trust_store.h"
#include "trust/types.h"
#include "trust/update.h"

namespace siot::trust {

/// Engine configuration.
struct TrustEngineConfig {
  /// Normalization of Eq. 18 trustworthiness values.
  NormalizationRange normalization = NormalizationRange::kUnit;
  /// Upper bound of gain/damage/cost values (scales the normalizer).
  double value_bound = 1.0;
  /// Forgetting factors β for Eqs. 19–22 / 25–28.
  ForgettingFactors beta = ForgettingFactors::Uniform(0.1);
  /// Candidate ranking strategy (Eq. 23 by default).
  SelectionStrategy strategy = SelectionStrategy::kMaxNetProfit;
  /// Default reverse-evaluation threshold θ for every trustee.
  double default_theta = 0.0;
  /// Estimates assigned on first contact.
  OutcomeEstimates initial_estimates;
  /// Remove environment influence from post-evaluations (Eqs. 25–29).
  bool environment_aware = true;
  EnvironmentAggregation environment_aggregation =
      EnvironmentAggregation::kMin;
};

/// Outcome of TrustEngine::RequestDelegation.
struct DelegationRequestResult {
  /// Chosen executor: the accepted trustee, the trustor itself when
  /// self-execution wins (Eq. 24), or kNoAgent when nobody executes.
  AgentId trustee = kNoAgent;
  /// True when the candidate list was empty (or contained only the
  /// trustor): there was nobody to ask. Mutually exclusive with
  /// `unavailable`; combines with `self_execution` when self-estimates
  /// were provided.
  bool no_candidates = false;
  /// True when every candidate REFUSED in its reverse evaluation. The
  /// trustor may still execute itself (`self_execution`) when it passed
  /// self-estimates.
  bool unavailable = false;
  /// True when the Eq. 24 comparison chose the trustor's own execution
  /// (requires self-estimates; `trustee` is then the trustor).
  bool self_execution = false;
  /// Forward trustworthiness of the chosen executor (Eq. 18 / inference).
  double trustworthiness = 0.0;
  /// Expected net profit (Eq. 23 objective) of the chosen executor.
  double expected_profit = 0.0;
  /// Candidates that refused the delegation (reverse evaluation), in the
  /// order they were asked (descending strategy score).
  std::vector<AgentId> refusals;
};

/// Facade over the trust model; see file comment.
class TrustEngine {
 public:
  explicit TrustEngine(TrustEngineConfig config = {});

  /// The task catalog (register task types here).
  TaskCatalog& catalog() { return catalog_; }
  const TaskCatalog& catalog() const { return catalog_; }

  /// Component access for advanced use.
  TrustStore& store() { return store_; }
  const TrustStore& store() const { return store_; }
  ReverseEvaluator& reverse_evaluator() { return reverse_evaluator_; }
  const ReverseEvaluator& reverse_evaluator() const {
    return reverse_evaluator_;
  }
  EnvironmentModel& environment() { return environment_; }
  const EnvironmentModel& environment() const { return environment_; }
  const TrustEngineConfig& config() const { return config_; }
  const Normalizer& normalizer() const { return normalizer_; }

  /// Pre-evaluation TW_X←Y(τ): the direct record if present, else
  /// characteristic inference from X's other experience with Y (Eq. 4),
  /// else the trustworthiness of the configured initial estimates.
  double PreEvaluate(AgentId trustor, AgentId trustee, TaskId task) const;

  /// Full outcome estimates (Ŝ, Ĝ, D̂, Ĉ) backing PreEvaluate, in the same
  /// precedence order: the direct record's estimates, else estimates
  /// synthesized from the Eq. 4 inferred trustworthiness
  /// (EstimatesFromTrustworthiness), else the configured initial estimates.
  /// This is what the delegation decision ranks (Eqs. 23–24 need all four
  /// quantities, not just the folded Eq. 18 scalar).
  OutcomeEstimates EstimateOutcomes(AgentId trustor, AgentId trustee,
                                    TaskId task) const;

  /// Full Eq. 1 / Fig. 2 / §4.4 delegation request: gathers each
  /// candidate's outcome estimates (EstimateOutcomes), scores each once
  /// under the configured selection strategy (StrategyScore, Eq. 23 for
  /// kMaxNetProfit), sorts them once by descending score (ties break by
  /// ascending agent id, so the outcome is independent of the caller's
  /// candidate ordering; NaN scores rank last), and walks that ranking
  /// through the candidates' reverse evaluations until one accepts. It
  /// allocates once for the ranking, and once more for the refusals when
  /// there are any. When `self_estimates` is provided, the Eq. 24
  /// comparison runs
  /// against the strategy-chosen best still-willing candidate at every
  /// step: the moment that candidate fails to strictly beat self-execution,
  /// the trustor keeps the task itself. (Under kMaxSuccessRate the
  /// strategy's choice need not be the profit-maximal candidate — Eq. 24
  /// judges the candidate the strategy actually selected, per the paper.)
  /// Read-only: post-evaluation happens in ReportOutcome.
  DelegationRequestResult RequestDelegation(
      AgentId trustor, TaskId task, const std::vector<AgentId>& candidates,
      const std::optional<OutcomeEstimates>& self_estimates =
          std::nullopt) const;

  /// Post-evaluation after the action (both directions):
  ///  * trustor updates its estimates of the trustee from `outcome`
  ///    (environment-aware when configured, Eqs. 25–28);
  ///  * trustee records whether the trustor used its resources abusively
  ///    (feeds future reverse evaluations).
  /// `intermediates` are the agents relaying the delegation between trustor
  /// and trustee (empty for a direct link); under environment-aware
  /// configs their indicators join the Eq. 29 chain aggregate, so a hostile
  /// relay excuses a failure just like a hostile endpoint does. Callers
  /// that delegate directly can omit it — the chain is then exactly
  /// {trustor, trustee}.
  void ReportOutcome(AgentId trustor, AgentId trustee, TaskId task,
                     const DelegationOutcome& outcome,
                     bool trustor_was_abusive = false,
                     const std::vector<AgentId>& intermediates = {});

  /// Current Eq. 18 trustworthiness from the stored record (no inference);
  /// nullopt without direct experience.
  std::optional<double> DirectTrustworthiness(AgentId trustor,
                                              AgentId trustee,
                                              TaskId task) const;

 private:
  TrustEngineConfig config_;
  Normalizer normalizer_;
  TaskCatalog catalog_;
  TrustStore store_;
  ReverseEvaluator reverse_evaluator_;
  EnvironmentModel environment_;
};

}  // namespace siot::trust

#endif  // SIOT_TRUST_TRUST_ENGINE_H_
