// Copyright 2026 The siot-trust Authors.
// Edge-indexed snapshot of a trust overlay. The transitivity search (§4.3)
// only ever asks for the direct experience along directed edges of the
// social graph, once per hop per query — against a live TrustStore that
// means re-deriving the same per-edge experience lists over and over. A
// TrustOverlaySnapshot materializes them once, CSR-style, so a hop lookup
// is a single array index and the per-task caches inside TransitivitySearch
// can be keyed by the dense directed-edge index.
//
// The snapshot is immutable after construction and safe to share across
// threads; rebuild it when the underlying store changes.

#ifndef SIOT_TRUST_OVERLAY_SNAPSHOT_H_
#define SIOT_TRUST_OVERLAY_SNAPSHOT_H_

#include <span>
#include <vector>

#include "graph/graph.h"
#include "trust/transitivity.h"

namespace siot::trust {

/// Immutable per-directed-edge materialization of a TrustOverlay.
class TrustOverlaySnapshot {
 public:
  /// Sentinel for "no such directed edge".
  static constexpr std::size_t kNoEdge = static_cast<std::size_t>(-1);

  /// Captures `source.DirectExperience(u, v)` for every directed edge
  /// (u, v) of `graph`. The graph must outlive the snapshot; `source` is
  /// only read during construction.
  TrustOverlaySnapshot(const graph::Graph& graph, const TrustOverlay& source);

  const graph::Graph& graph() const { return *graph_; }

  /// Number of directed edges (2 · undirected edge count).
  std::size_t directed_edge_count() const { return edge_offsets_.size() - 1; }

  /// Dense index of directed edge (u, v): FirstEdge(u) + position of v in
  /// graph().Neighbors(u). kNoEdge when the edge does not exist.
  std::size_t EdgeIndex(AgentId u, AgentId v) const;

  /// Index of node u's first outgoing directed edge; the k-th neighbor of
  /// u (in graph().Neighbors(u) order) is directed edge FirstEdge(u) + k.
  std::size_t FirstEdge(AgentId u) const { return node_offsets_[u]; }

  /// The captured experiences along one directed edge, by dense index.
  std::span<const TaskExperience> Experiences(std::size_t edge_index) const {
    return std::span<const TaskExperience>(
        experiences_.data() + edge_offsets_[edge_index],
        edge_offsets_[edge_index + 1] - edge_offsets_[edge_index]);
  }

 private:
  const graph::Graph* graph_;
  std::vector<std::size_t> node_offsets_;  ///< node -> first directed edge
  std::vector<std::size_t> edge_offsets_;  ///< edge -> first experience
  std::vector<TaskExperience> experiences_;
};

}  // namespace siot::trust

#endif  // SIOT_TRUST_OVERLAY_SNAPSHOT_H_
