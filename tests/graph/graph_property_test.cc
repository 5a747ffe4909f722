// Copyright 2026 The siot-trust Authors.
// Property suites over the graph substrate: invariants every generator's
// output must satisfy (handshake lemma, metric bounds, BFS triangle
// inequality, Louvain sanity) checked across seeds and generator types.

#include <gtest/gtest.h>

#include <numeric>

#include "graph/community.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/metrics.h"

namespace siot::graph {
namespace {

enum class GeneratorKind { kGnp, kGnm, kWattsStrogatz, kBarabasiAlbert,
                           kCommunity };

Graph MakeGraph(GeneratorKind kind, std::uint64_t seed) {
  Rng rng(seed);
  switch (kind) {
    case GeneratorKind::kGnp:
      return ErdosRenyiGnp(150, 0.06, rng);
    case GeneratorKind::kGnm:
      return ErdosRenyiGnm(150, 700, rng);
    case GeneratorKind::kWattsStrogatz:
      return WattsStrogatz(150, 6, 0.2, rng);
    case GeneratorKind::kBarabasiAlbert:
      return BarabasiAlbert(150, 3, rng);
    case GeneratorKind::kCommunity: {
      CommunityGraphParams params;
      params.node_count = 150;
      params.community_count = 8;
      params.p_intra = 0.4;
      params.shortcut_bridges = 6;
      auto result = GenerateCommunityGraph(params, rng);
      EXPECT_TRUE(result.ok());
      return result->graph;
    }
  }
  return Graph(0);
}

class GraphInvariants
    : public ::testing::TestWithParam<std::tuple<GeneratorKind,
                                                 std::uint64_t>> {};

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, GraphInvariants,
    ::testing::Combine(::testing::Values(GeneratorKind::kGnp,
                                         GeneratorKind::kGnm,
                                         GeneratorKind::kWattsStrogatz,
                                         GeneratorKind::kBarabasiAlbert,
                                         GeneratorKind::kCommunity),
                       ::testing::Values(1u, 2u, 3u)));

TEST_P(GraphInvariants, HandshakeLemma) {
  const auto [kind, seed] = GetParam();
  const Graph g = MakeGraph(kind, seed);
  std::size_t degree_sum = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) degree_sum += g.Degree(v);
  EXPECT_EQ(degree_sum, 2 * g.edge_count());
}

TEST_P(GraphInvariants, AdjacencySymmetricNoSelfLoops) {
  const auto [kind, seed] = GetParam();
  const Graph g = MakeGraph(kind, seed);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (NodeId u : g.Neighbors(v)) {
      EXPECT_NE(u, v);
      EXPECT_TRUE(g.HasEdge(u, v));
    }
  }
}

TEST_P(GraphInvariants, ClusteringWithinBounds) {
  const auto [kind, seed] = GetParam();
  const Graph g = MakeGraph(kind, seed);
  for (NodeId v = 0; v < g.node_count(); v += 7) {
    const double c = LocalClusteringCoefficient(g, v);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
  const double avg = AverageClusteringCoefficient(g);
  EXPECT_GE(avg, 0.0);
  EXPECT_LE(avg, 1.0);
}

TEST_P(GraphInvariants, BfsTriangleInequality) {
  const auto [kind, seed] = GetParam();
  const Graph g = MakeGraph(kind, seed);
  // d(a,c) <= d(a,b) + d(b,c) for sampled triples in one component.
  const auto from_a = BfsDistances(g, 0);
  const auto from_b = BfsDistances(g, g.node_count() / 2);
  const NodeId b = static_cast<NodeId>(g.node_count() / 2);
  if (from_a[b] == kUnreachable) GTEST_SKIP();
  for (NodeId c = 0; c < g.node_count(); c += 5) {
    if (from_a[c] == kUnreachable || from_b[c] == kUnreachable) continue;
    EXPECT_LE(from_a[c], from_a[b] + from_b[c]);
  }
}

TEST_P(GraphInvariants, DiameterBoundsAveragePathLength) {
  const auto [kind, seed] = GetParam();
  const Graph g = MakeGraph(kind, seed);
  const PathStats stats = ComputePathStats(g);
  if (stats.connected_pair_fraction == 0.0) GTEST_SKIP();
  EXPECT_LE(stats.average_path_length,
            static_cast<double>(stats.diameter));
  EXPECT_GE(stats.average_path_length, 1.0);  // simple graphs
}

TEST_P(GraphInvariants, TriangleCountConsistentWithClustering) {
  const auto [kind, seed] = GetParam();
  const Graph g = MakeGraph(kind, seed);
  // If any node has positive clustering there must be a triangle, and
  // vice versa.
  const bool has_triangles = TriangleCount(g) > 0;
  bool has_clustering = false;
  for (NodeId v = 0; v < g.node_count() && !has_clustering; ++v) {
    has_clustering = LocalClusteringCoefficient(g, v) > 0.0;
  }
  EXPECT_EQ(has_triangles, has_clustering);
}

TEST_P(GraphInvariants, LouvainPartitionValid) {
  const auto [kind, seed] = GetParam();
  const Graph g = MakeGraph(kind, seed);
  const CommunityResult result = Louvain(g);
  ASSERT_EQ(result.community.size(), g.node_count());
  EXPECT_EQ(CountCommunities(result.community), result.community_count);
  // Louvain's modularity should never be worse than the trivial
  // all-in-one partition (Q = 0).
  EXPECT_GE(result.modularity, -1e-12);
  EXPECT_LE(result.modularity, 1.0);
}

TEST_P(GraphInvariants, EdgeListRoundTripPreservesDegreeMultiset) {
  const auto [kind, seed] = GetParam();
  const Graph g = MakeGraph(kind, seed);
  std::vector<std::size_t> degrees;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (g.Degree(v) > 0) degrees.push_back(g.Degree(v));
  }
  std::sort(degrees.begin(), degrees.end());
  // Rebuild through the builder (simulating IO) and compare.
  GraphBuilder builder(g.node_count());
  for (const auto& [a, b] : g.Edges()) builder.AddEdge(a, b);
  const Graph rebuilt = builder.Build();
  std::vector<std::size_t> rebuilt_degrees;
  for (NodeId v = 0; v < rebuilt.node_count(); ++v) {
    if (rebuilt.Degree(v) > 0) rebuilt_degrees.push_back(rebuilt.Degree(v));
  }
  std::sort(rebuilt_degrees.begin(), rebuilt_degrees.end());
  EXPECT_EQ(degrees, rebuilt_degrees);
}

}  // namespace
}  // namespace siot::graph
