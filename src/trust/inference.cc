// Copyright 2026 The siot-trust Authors.

#include "trust/inference.h"

#include "common/macros.h"
#include "common/string_util.h"

namespace siot::trust {

namespace {

/// Eq. 4 over `items`, each naming its experienced task in `.task`;
/// `trustworthiness_of(item)` gives the item's trustworthiness.
template <typename Item, typename TrustworthinessOf>
CoveredInference Eq4(const TaskCatalog& catalog, const Task& target,
                     std::span<const Item> items,
                     const TrustworthinessOf& trustworthiness_of,
                     std::span<double> per_characteristic) {
  const auto& parts = target.parts();
  SIOT_CHECK(per_characteristic.empty() ||
             per_characteristic.size() == parts.size());
  CoveredInference out;
  double covered_weight = 0.0;
  double combined = 0.0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const WeightedCharacteristic& part = parts[i];
    // Inner sum of Eq. 4: weighted average of TW over experienced tasks
    // containing this characteristic, weighted by the characteristic's
    // weight inside each experienced task.
    double weight_sum = 0.0;
    double weighted_tw = 0.0;
    for (const Item& item : items) {
      const Task& experienced = catalog.Get(item.task);
      if (!experienced.HasCharacteristic(part.id)) continue;
      const double w = experienced.WeightOf(part.id);
      if (w <= 0.0) continue;
      weight_sum += w;
      weighted_tw += w * trustworthiness_of(item);
    }
    if (weight_sum > 0.0) {
      const double estimate = weighted_tw / weight_sum;
      if (!per_characteristic.empty()) per_characteristic[i] = estimate;
      out.covered |= 1ull << part.id;
      covered_weight += part.weight;
      combined += part.weight * estimate;
    }
  }
  out.trustworthiness =
      covered_weight > 0.0 ? combined / covered_weight : 0.0;
  return out;
}

/// The inferred value, or FailedPrecondition naming what is uncovered.
StatusOr<double> CompleteOrError(const Task& target,
                                 const CoveredInference& inference) {
  if (!target.CoveredBy(inference.covered)) {
    return Status::FailedPrecondition(StrFormat(
        "task '%s': characteristics 0x%llx not covered by experience",
        target.name().c_str(),
        static_cast<unsigned long long>(target.mask() &
                                        ~inference.covered)));
  }
  return inference.trustworthiness;
}

}  // namespace

CoveredInference InferCovered(const TaskCatalog& catalog, const Task& target,
                              std::span<const TaskExperience> experiences,
                              std::span<double> per_characteristic) {
  return Eq4(
      catalog, target, experiences,
      [](const TaskExperience& exp) { return exp.trustworthiness; },
      per_characteristic);
}

CoveredInference InferCovered(const TaskCatalog& catalog, const Task& target,
                              std::span<const PairTaskRecord> records,
                              const Normalizer& normalizer,
                              std::span<double> per_characteristic) {
  return Eq4(
      catalog, target, records,
      [&normalizer](const PairTaskRecord& entry) {
        return TrustworthinessFromEstimates(entry.record.estimates,
                                            normalizer);
      },
      per_characteristic);
}

PartialInference PartialInfer(
    const TaskCatalog& catalog, const Task& target,
    const std::vector<TaskExperience>& experiences) {
  PartialInference out;
  out.per_characteristic.assign(target.parts().size(), 0.0);
  const CoveredInference inference =
      InferCovered(catalog, target, experiences, out.per_characteristic);
  out.covered = inference.covered;
  out.trustworthiness = inference.trustworthiness;
  out.complete = target.CoveredBy(inference.covered);
  return out;
}

StatusOr<double> InferTrustworthiness(
    const TaskCatalog& catalog, const Task& target,
    const std::vector<TaskExperience>& experiences) {
  return CompleteOrError(target, InferCovered(catalog, target, experiences));
}

StatusOr<double> InferFromStore(const TaskCatalog& catalog,
                                const TrustStore& store,
                                const Normalizer& normalizer, AgentId trustor,
                                AgentId trustee, const Task& target) {
  return CompleteOrError(
      target, InferCovered(catalog, target,
                           store.PairRecords(trustor, trustee), normalizer));
}

}  // namespace siot::trust
