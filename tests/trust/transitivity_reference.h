// Copyright 2026 The siot-trust Authors.
// Test-only reference oracle for the §4.3 transitivity search: the dense
// relaxation TransitivitySearch used before its frontier kernels, kept
// verbatim. Every round copies the per-node state of the whole graph and
// relaxes the edges of every active node, and per-edge hop information is
// derived from the overlay lazily within each query. It is slow on
// purpose — simple enough to trust — and the differential tests compare
// the production search against it bit for bit.

#ifndef SIOT_TESTS_TRUST_TRANSITIVITY_REFERENCE_H_
#define SIOT_TESTS_TRUST_TRANSITIVITY_REFERENCE_H_

#include "graph/graph.h"
#include "trust/task.h"
#include "trust/transitivity.h"
#include "trust/types.h"

namespace siot::trust {

/// Dense-relaxation reference over a live TrustOverlay. Tests compare it
/// with a TransitivitySearch over a TrustOverlaySnapshot of the same
/// overlay.
class ReferenceTransitivitySearch {
 public:
  /// All references must outlive the search object.
  ReferenceTransitivitySearch(const graph::Graph& graph,
                              const TaskCatalog& catalog,
                              const TrustOverlay& overlay,
                              TransitivityParams params);

  TransitivityResult FindPotentialTrustees(AgentId trustor, const Task& task,
                                           TransitivityMethod method) const;

 private:
  TransitivityResult SearchTraditional(AgentId trustor,
                                       const Task& task) const;
  TransitivityResult SearchCharacteristicBased(AgentId trustor,
                                               const Task& task,
                                               bool conservative) const;

  template <typename ExactFn>
  TransitivityResult TraditionalImpl(AgentId trustor, const Task& task,
                                     ExactFn&& exact_tw) const;
  template <typename HopFn>
  TransitivityResult CharacteristicImpl(AgentId trustor, const Task& task,
                                        bool conservative,
                                        HopFn&& hop_info) const;

  const graph::Graph& graph_;
  const TaskCatalog& catalog_;
  const TrustOverlay& overlay_;
  TransitivityParams params_;
};

}  // namespace siot::trust

#endif  // SIOT_TESTS_TRUST_TRANSITIVITY_REFERENCE_H_
