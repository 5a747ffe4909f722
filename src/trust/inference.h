// Copyright 2026 The siot-trust Authors.
// Inferential transfer of trust with analogous tasks (paper §4.2,
// Eqs. 2–4). The trustworthiness of an unseen task τ' is inferred from
// experienced tasks {τ_k} that share characteristics:
//
//   TW(τ') = Σ_i w_i(τ') · [ Σ_k w_j(τ_k)·TW(τ_k) / Σ_k w_j(τ_k) ]
//
// where the inner sum runs over experienced tasks containing the same
// characteristic a_i(τ') (Eq. 4). Inference requires every characteristic
// of τ' to be covered by experience (the ∀i condition above Eq. 2);
// PartialInfer relaxes this for the aggressive-transitivity path algebra
// (§4.3), reporting which characteristics were covered.
//
// Eq. 4 has one implementation, InferCovered. Every other entry point
// here, the engine's estimate chain and the transitivity hop cache run
// it, so they agree bit for bit.

#ifndef SIOT_TRUST_INFERENCE_H_
#define SIOT_TRUST_INFERENCE_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "trust/task.h"
#include "trust/trust_store.h"
#include "trust/types.h"

namespace siot::trust {

/// One experienced task with its trustworthiness value.
struct TaskExperience {
  TaskId task = kNoTask;
  double trustworthiness = 0.0;
};

/// What the Eq. 4 kernel found for one target task.
struct CoveredInference {
  /// Characteristics of the target task that were covered by experience.
  CharacteristicMask covered = 0;
  /// Weighted combination over the covered characteristics only, with the
  /// weights renormalized to the covered subset. 0 if nothing is covered.
  double trustworthiness = 0.0;
};

/// The Eq. 4 kernel. Sums in one fixed order — the target's parts
/// outer, the experiences inner — and allocates nothing. When
/// `per_characteristic` is non-empty it holds one entry per part of
/// `target`; the kernel writes each covered part's inner average there and
/// leaves the other entries as they are.
CoveredInference InferCovered(const TaskCatalog& catalog, const Task& target,
                              std::span<const TaskExperience> experiences,
                              std::span<double> per_characteristic = {});

/// The same kernel over one pair's store records, each experienced with
/// its Eq. 18 trustworthiness under `normalizer`.
CoveredInference InferCovered(const TaskCatalog& catalog, const Task& target,
                              std::span<const PairTaskRecord> records,
                              const Normalizer& normalizer,
                              std::span<double> per_characteristic = {});

/// Result of a partial inference.
struct PartialInference {
  /// Characteristics of the target task that were covered by experience.
  CharacteristicMask covered = 0;
  /// Per-covered-characteristic inferred trustworthiness, aligned with the
  /// target task's parts() order (entries for uncovered parts are 0).
  std::vector<double> per_characteristic;
  /// Weighted combination over the covered characteristics only, with the
  /// weights renormalized to the covered subset. 0 if nothing is covered.
  double trustworthiness = 0.0;
  /// True if every characteristic of the target was covered.
  bool complete = false;
};

/// Eq. 4 over explicit experiences. Errors (FailedPrecondition) if some
/// characteristic of `target` is not covered by any experienced task.
StatusOr<double> InferTrustworthiness(
    const TaskCatalog& catalog, const Task& target,
    const std::vector<TaskExperience>& experiences);

/// Like InferTrustworthiness but never fails: covers what it can and
/// reports coverage. Used by aggressive transitivity (Eqs. 12–17).
PartialInference PartialInfer(const TaskCatalog& catalog, const Task& target,
                              const std::vector<TaskExperience>& experiences);

/// Eq. 4 over the trustor's store records about the trustee (Eq. 18
/// trustworthiness per experienced task). Errors if no experience covers
/// some characteristic. Builds the error message on failure, so the
/// serving path (TrustEngine::EstimateOutcomes) calls InferCovered instead.
StatusOr<double> InferFromStore(const TaskCatalog& catalog,
                                const TrustStore& store,
                                const Normalizer& normalizer, AgentId trustor,
                                AgentId trustee, const Task& target);

}  // namespace siot::trust

#endif  // SIOT_TRUST_INFERENCE_H_
