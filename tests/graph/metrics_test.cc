// Copyright 2026 The siot-trust Authors.

#include "graph/metrics.h"

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace siot::graph {
namespace {

Graph PathGraph(std::size_t n) {
  GraphBuilder b(n);
  for (NodeId v = 0; v + 1 < n; ++v) b.AddEdge(v, v + 1);
  return b.Build();
}

Graph CycleGraph(std::size_t n) {
  GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) {
    b.AddEdge(v, static_cast<NodeId>((v + 1) % n));
  }
  return b.Build();
}

Graph CompleteGraph(std::size_t n) {
  GraphBuilder b(n);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId i = a + 1; i < n; ++i) b.AddEdge(a, i);
  }
  return b.Build();
}

TEST(BfsTest, DistancesOnPath) {
  const Graph g = PathGraph(5);
  const auto dist = BfsDistances(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
}

TEST(BfsTest, UnreachableMarked) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);  // {2,3} isolated
  const Graph g = b.Build();
  const auto dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(ComponentsTest, CountsAndLabels) {
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(3, 4);  // node 5 isolated
  const Graph g = b.Build();
  const auto comp = ConnectedComponents(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[5], comp[0]);
  EXPECT_NE(comp[5], comp[3]);
}

TEST(ComponentsTest, LargestComponent) {
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(3, 4);
  const auto largest = LargestComponent(b.Build());
  EXPECT_EQ(largest, (std::vector<NodeId>{0, 1, 2}));
}

TEST(ClusteringTest, CompleteGraphIsOne) {
  const Graph g = CompleteGraph(5);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_DOUBLE_EQ(LocalClusteringCoefficient(g, v), 1.0);
  }
  EXPECT_DOUBLE_EQ(AverageClusteringCoefficient(g), 1.0);
}

TEST(ClusteringTest, PathGraphIsZero) {
  const Graph g = PathGraph(5);
  EXPECT_DOUBLE_EQ(AverageClusteringCoefficient(g), 0.0);
}

TEST(ClusteringTest, TriangleWithTail) {
  // Triangle 0-1-2 plus edge 2-3.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(2, 3);
  const Graph g = b.Build();
  EXPECT_DOUBLE_EQ(LocalClusteringCoefficient(g, 0), 1.0);
  EXPECT_DOUBLE_EQ(LocalClusteringCoefficient(g, 2), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(LocalClusteringCoefficient(g, 3), 0.0);
}

TEST(TriangleCountTest, KnownCounts) {
  EXPECT_EQ(TriangleCount(CompleteGraph(4)), 4u);
  EXPECT_EQ(TriangleCount(CompleteGraph(5)), 10u);
  EXPECT_EQ(TriangleCount(PathGraph(10)), 0u);
  EXPECT_EQ(TriangleCount(CycleGraph(3)), 1u);
  EXPECT_EQ(TriangleCount(CycleGraph(4)), 0u);
}

TEST(PathStatsTest, CycleGraph) {
  const Graph g = CycleGraph(8);
  const PathStats stats = ComputePathStats(g);
  EXPECT_EQ(stats.diameter, 4u);
  EXPECT_DOUBLE_EQ(stats.connected_pair_fraction, 1.0);
  // Average distance on C8: (1+1+2+2+3+3+4)/7.
  EXPECT_NEAR(stats.average_path_length, 16.0 / 7.0, 1e-12);
}

TEST(PathStatsTest, DisconnectedCountsConnectedPairsOnly) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(2, 3);
  const PathStats stats = ComputePathStats(b.Build());
  EXPECT_EQ(stats.diameter, 1u);
  EXPECT_DOUBLE_EQ(stats.average_path_length, 1.0);
  EXPECT_NEAR(stats.connected_pair_fraction, 4.0 / 12.0, 1e-12);
}

TEST(SummarizeTest, CoversAllFields) {
  const Graph g = CompleteGraph(6);
  const ConnectivitySummary s = Summarize(g);
  EXPECT_EQ(s.node_count, 6u);
  EXPECT_EQ(s.edge_count, 15u);
  EXPECT_DOUBLE_EQ(s.average_degree, 5.0);
  EXPECT_EQ(s.diameter, 1u);
  EXPECT_DOUBLE_EQ(s.average_path_length, 1.0);
  EXPECT_DOUBLE_EQ(s.average_clustering, 1.0);
  EXPECT_EQ(s.max_degree, 5u);
  EXPECT_EQ(s.min_degree, 5u);
}

}  // namespace
}  // namespace siot::graph
