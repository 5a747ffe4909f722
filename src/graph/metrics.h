// Copyright 2026 The siot-trust Authors.
// Connectivity metrics reported in the paper's Table 1: degree statistics,
// diameter, average shortest-path length, and clustering coefficients.
// Shortest paths use plain BFS (the graphs are unweighted).

#ifndef SIOT_GRAPH_METRICS_H_
#define SIOT_GRAPH_METRICS_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.h"

namespace siot::graph {

/// Distance marker for unreachable nodes.
inline constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();

/// BFS distances from `source` (kUnreachable where disconnected).
std::vector<std::uint32_t> BfsDistances(const Graph& graph, NodeId source);

/// Connected components; returns component id per node (ids dense from 0).
std::vector<std::uint32_t> ConnectedComponents(const Graph& graph);

/// Node ids of the largest connected component.
std::vector<NodeId> LargestComponent(const Graph& graph);

/// Local clustering coefficient of one node (0 for degree < 2).
double LocalClusteringCoefficient(const Graph& graph, NodeId node);

/// Mean of local clustering coefficients over all nodes (Watts–Strogatz
/// definition, as used by Gephi / the paper's Table 1).
double AverageClusteringCoefficient(const Graph& graph);

/// Exact number of triangles in the graph.
std::size_t TriangleCount(const Graph& graph);

/// Diameter + average path length computed together (they share the BFS
/// sweep). Computed over connected pairs only; `connected_pair_fraction`
/// reports how many ordered pairs were connected.
struct PathStats {
  std::uint32_t diameter = 0;
  double average_path_length = 0.0;
  double connected_pair_fraction = 0.0;
};
PathStats ComputePathStats(const Graph& graph);

/// The full Table-1 row for a graph.
struct ConnectivitySummary {
  std::size_t node_count = 0;
  std::size_t edge_count = 0;
  double average_degree = 0.0;
  std::uint32_t diameter = 0;
  double average_path_length = 0.0;
  double average_clustering = 0.0;
  std::size_t max_degree = 0;
  std::size_t min_degree = 0;
};
ConnectivitySummary Summarize(const Graph& graph);

}  // namespace siot::graph

#endif  // SIOT_GRAPH_METRICS_H_
