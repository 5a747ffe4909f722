// Copyright 2026 The siot-trust Authors.

#include "graph/metrics.h"

#include <algorithm>
#include <deque>

#include "common/macros.h"

namespace siot::graph {

std::vector<std::uint32_t> BfsDistances(const Graph& graph, NodeId source) {
  SIOT_CHECK(source < graph.node_count());
  std::vector<std::uint32_t> dist(graph.node_count(), kUnreachable);
  std::deque<NodeId> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    const std::uint32_t dv = dist[v];
    for (NodeId u : graph.Neighbors(v)) {
      if (dist[u] == kUnreachable) {
        dist[u] = dv + 1;
        queue.push_back(u);
      }
    }
  }
  return dist;
}

std::vector<std::uint32_t> ConnectedComponents(const Graph& graph) {
  std::vector<std::uint32_t> component(graph.node_count(), kUnreachable);
  std::uint32_t next = 0;
  std::deque<NodeId> queue;
  for (NodeId start = 0; start < graph.node_count(); ++start) {
    if (component[start] != kUnreachable) continue;
    component[start] = next;
    queue.push_back(start);
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop_front();
      for (NodeId u : graph.Neighbors(v)) {
        if (component[u] == kUnreachable) {
          component[u] = next;
          queue.push_back(u);
        }
      }
    }
    ++next;
  }
  return component;
}

std::vector<NodeId> LargestComponent(const Graph& graph) {
  const auto component = ConnectedComponents(graph);
  std::vector<std::size_t> sizes;
  for (std::uint32_t c : component) {
    if (c >= sizes.size()) sizes.resize(c + 1, 0);
    ++sizes[c];
  }
  if (sizes.empty()) return {};
  const std::size_t best = static_cast<std::size_t>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
  std::vector<NodeId> nodes;
  nodes.reserve(sizes[best]);
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    if (component[v] == best) nodes.push_back(v);
  }
  return nodes;
}

double LocalClusteringCoefficient(const Graph& graph, NodeId node) {
  const auto nbrs = graph.Neighbors(node);
  const std::size_t k = nbrs.size();
  if (k < 2) return 0.0;
  std::size_t links = 0;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i + 1; j < k; ++j) {
      if (graph.HasEdge(nbrs[i], nbrs[j])) ++links;
    }
  }
  return 2.0 * static_cast<double>(links) /
         (static_cast<double>(k) * static_cast<double>(k - 1));
}

double AverageClusteringCoefficient(const Graph& graph) {
  if (graph.node_count() == 0) return 0.0;
  double total = 0.0;
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    total += LocalClusteringCoefficient(graph, v);
  }
  return total / static_cast<double>(graph.node_count());
}

std::size_t TriangleCount(const Graph& graph) {
  // Each triangle {a<b<c} is counted once by scanning ordered wedges.
  std::size_t triangles = 0;
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    const auto nbrs = graph.Neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] <= v) continue;
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        if (graph.HasEdge(nbrs[i], nbrs[j])) ++triangles;
      }
    }
  }
  return triangles;
}

PathStats ComputePathStats(const Graph& graph) {
  PathStats stats;
  const std::size_t n = graph.node_count();
  if (n == 0) return stats;
  std::size_t connected_pairs = 0;
  double total_length = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    const auto dist = BfsDistances(graph, v);
    for (NodeId u = 0; u < n; ++u) {
      if (u == v || dist[u] == kUnreachable) continue;
      ++connected_pairs;
      total_length += dist[u];
      stats.diameter = std::max(stats.diameter, dist[u]);
    }
  }
  if (connected_pairs > 0) {
    stats.average_path_length =
        total_length / static_cast<double>(connected_pairs);
  }
  const double ordered_pairs = static_cast<double>(n) *
                               static_cast<double>(n - 1);
  stats.connected_pair_fraction =
      ordered_pairs == 0.0
          ? 0.0
          : static_cast<double>(connected_pairs) / ordered_pairs;
  return stats;
}

ConnectivitySummary Summarize(const Graph& graph) {
  ConnectivitySummary s;
  s.node_count = graph.node_count();
  s.edge_count = graph.edge_count();
  s.average_degree = graph.AverageDegree();
  const PathStats paths = ComputePathStats(graph);
  s.diameter = paths.diameter;
  s.average_path_length = paths.average_path_length;
  s.average_clustering = AverageClusteringCoefficient(graph);
  if (graph.node_count() > 0) {
    s.max_degree = graph.Degree(0);
    s.min_degree = graph.Degree(0);
    for (NodeId v = 0; v < graph.node_count(); ++v) {
      s.max_degree = std::max(s.max_degree, graph.Degree(v));
      s.min_degree = std::min(s.min_degree, graph.Degree(v));
    }
  }
  return s;
}

}  // namespace siot::graph
