// Copyright 2026 The siot-trust Authors.

#include "trust/overlay_snapshot.h"

#include <algorithm>

namespace siot::trust {

TrustOverlaySnapshot::TrustOverlaySnapshot(const graph::Graph& graph,
                                           const TrustOverlay& source)
    : graph_(&graph) {
  const std::size_t n = graph.node_count();
  node_offsets_.resize(n + 1, 0);
  for (graph::NodeId u = 0; u < n; ++u) {
    node_offsets_[u + 1] = node_offsets_[u] + graph.Degree(u);
  }
  const std::size_t edges = node_offsets_[n];
  edge_offsets_.reserve(edges + 1);
  edge_offsets_.push_back(0);
  for (graph::NodeId u = 0; u < n; ++u) {
    for (graph::NodeId v : graph.Neighbors(u)) {
      const auto experiences = source.DirectExperience(u, v);
      experiences_.insert(experiences_.end(), experiences.begin(),
                          experiences.end());
      edge_offsets_.push_back(experiences_.size());
    }
  }
}

std::size_t TrustOverlaySnapshot::EdgeIndex(AgentId u, AgentId v) const {
  if (u >= graph_->node_count()) return kNoEdge;
  const auto neighbors = graph_->Neighbors(u);
  const auto it = std::lower_bound(neighbors.begin(), neighbors.end(), v);
  if (it == neighbors.end() || *it != v) return kNoEdge;
  return node_offsets_[u] +
         static_cast<std::size_t>(it - neighbors.begin());
}

}  // namespace siot::trust
