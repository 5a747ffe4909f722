// Copyright 2026 The siot-trust Authors.
// TrustOverlaySnapshot: edge indexing, capture fidelity, and — most
// importantly — the TransitivitySearch over a snapshot must return results
// identical to the dense reference search over the live overlay for every
// method, trustor, and task.

#include "trust/overlay_snapshot.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/datasets.h"
#include "sim/network_setup.h"
#include "tests/trust/transitivity_reference.h"
#include "trust/overlay_builder.h"
#include "trust/transitivity.h"
#include "trust/trust_store.h"

namespace siot::trust {
namespace {

const graph::SocialDataset& Twitter() {
  static const graph::SocialDataset dataset =
      graph::LoadDataset(graph::SocialNetwork::kTwitter);
  return dataset;
}

sim::SiotWorld MakeWorld(std::uint64_t seed) {
  Rng rng(seed);
  sim::WorldConfig config;
  config.characteristic_count = 5;
  return sim::SiotWorld::BuildRandom(Twitter().graph, config, rng);
}

TEST(TrustOverlaySnapshotTest, CapturesDirectExperienceVerbatim) {
  const sim::SiotWorld world = MakeWorld(1);
  const graph::Graph& graph = Twitter().graph;
  const TrustOverlaySnapshot snapshot(graph, world);
  EXPECT_EQ(snapshot.directed_edge_count(), 2 * graph.edge_count());
  for (graph::NodeId u = 0; u < graph.node_count(); ++u) {
    for (graph::NodeId v : graph.Neighbors(u)) {
      const auto live = world.DirectExperience(u, v);
      const auto captured = snapshot.Experiences(snapshot.EdgeIndex(u, v));
      ASSERT_EQ(captured.size(), live.size());
      for (std::size_t i = 0; i < live.size(); ++i) {
        EXPECT_EQ(captured[i].task, live[i].task);
        EXPECT_EQ(captured[i].trustworthiness, live[i].trustworthiness);
      }
    }
  }
}

TEST(TrustOverlaySnapshotTest, EdgeIndexing) {
  const sim::SiotWorld world = MakeWorld(2);
  const graph::Graph& graph = Twitter().graph;
  const TrustOverlaySnapshot snapshot(graph, world);
  std::size_t running = 0;
  for (graph::NodeId u = 0; u < graph.node_count(); ++u) {
    EXPECT_EQ(snapshot.FirstEdge(u), running);
    const auto neighbors = graph.Neighbors(u);
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      EXPECT_EQ(snapshot.EdgeIndex(u, neighbors[k]), running + k);
    }
    running += neighbors.size();
  }
  EXPECT_EQ(running, snapshot.directed_edge_count());
  // Non-edges and out-of-range observers.
  EXPECT_EQ(snapshot.EdgeIndex(0, 0), TrustOverlaySnapshot::kNoEdge);
  EXPECT_EQ(snapshot.EdgeIndex(
                static_cast<AgentId>(graph.node_count() + 5), 0),
            TrustOverlaySnapshot::kNoEdge);
}

void ExpectSameSearchResult(const TransitivityResult& a,
                            const TransitivityResult& b) {
  EXPECT_EQ(a.inquired_nodes, b.inquired_nodes);
  ASSERT_EQ(a.trustees.size(), b.trustees.size());
  for (std::size_t i = 0; i < a.trustees.size(); ++i) {
    EXPECT_EQ(a.trustees[i].agent, b.trustees[i].agent);
    EXPECT_EQ(a.trustees[i].trustworthiness,
              b.trustees[i].trustworthiness);
    EXPECT_EQ(a.trustees[i].per_characteristic,
              b.trustees[i].per_characteristic);
  }
}

TEST(TrustOverlaySnapshotTest, SnapshotSearchMatchesLiveSearch) {
  const sim::SiotWorld world = MakeWorld(3);
  const graph::Graph& graph = Twitter().graph;
  const TrustOverlaySnapshot snapshot(graph, world);

  TransitivityParams params;
  params.omega1 = 0.5;
  params.omega2 = 0.0;
  params.max_hops = 4;
  const ReferenceTransitivitySearch live(graph, world.catalog(), world,
                                         params);
  const TransitivitySearch cached(snapshot, world.catalog(), params);

  Rng rng(17);
  for (int i = 0; i < 12; ++i) {
    const auto trustor =
        static_cast<AgentId>(rng.NextBounded(graph.node_count()));
    const Task& task = world.catalog().Get(world.SampleRequest(rng));
    for (const TransitivityMethod method :
         {TransitivityMethod::kTraditional,
          TransitivityMethod::kConservative,
          TransitivityMethod::kAggressive}) {
      ExpectSameSearchResult(
          cached.FindPotentialTrustees(trustor, task, method),
          live.FindPotentialTrustees(trustor, task, method));
    }
  }
}

TEST(TrustOverlaySnapshotTest, RepeatedQueriesHitCacheConsistently) {
  const sim::SiotWorld world = MakeWorld(4);
  const graph::Graph& graph = Twitter().graph;
  const TrustOverlaySnapshot snapshot(graph, world);
  TransitivityParams params;
  params.max_hops = 3;
  const TransitivitySearch cached(snapshot, world.catalog(), params);
  const Task& task = world.catalog().Get(0);
  for (const TransitivityMethod method :
       {TransitivityMethod::kTraditional, TransitivityMethod::kAggressive}) {
    const auto first = cached.FindPotentialTrustees(5, task, method);
    const auto second = cached.FindPotentialTrustees(5, task, method);
    ExpectSameSearchResult(first, second);
  }
}

TEST(TrustOverlaySnapshotTest, PrepareTasksMatchesLazyBuild) {
  const sim::SiotWorld world = MakeWorld(5);
  const graph::Graph& graph = Twitter().graph;
  const TrustOverlaySnapshot snapshot(graph, world);
  TransitivityParams params;
  params.max_hops = 4;
  const TransitivitySearch lazy(snapshot, world.catalog(), params);

  std::vector<TaskId> tasks;
  for (TaskId t = 0; t < world.catalog().size(); ++t) tasks.push_back(t);
  tasks.insert(tasks.end(), tasks.begin(), tasks.end());  // dupes are fine
  for (const std::size_t threads : {1ul, 2ul, 8ul, 0ul}) {
    TransitivitySearch prepared(snapshot, world.catalog(), params);
    prepared.PrepareTasks(tasks, threads);
    prepared.PrepareTasks(tasks, threads);  // preparing again is a no-op
    // A sealed search trips SIOT_CHECK on a task it has no cache for, so
    // the queries below also prove every requested task was prepared.
    prepared.Seal();
    Rng rng(23);
    for (int i = 0; i < 8; ++i) {
      const auto trustor =
          static_cast<AgentId>(rng.NextBounded(graph.node_count()));
      const Task& task = world.catalog().Get(world.SampleRequest(rng));
      for (const TransitivityMethod method :
           {TransitivityMethod::kTraditional,
            TransitivityMethod::kConservative,
            TransitivityMethod::kAggressive}) {
        ExpectSameSearchResult(
            prepared.FindPotentialTrustees(trustor, task, method),
            lazy.FindPotentialTrustees(trustor, task, method));
      }
    }
  }
}

TEST(TrustOverlaySnapshotTest, StoreBackedSnapshotMatchesStoreOverlay) {
  // Overlay over a real TrustStore instead of the synthetic world.
  const graph::Graph& graph = Twitter().graph;
  TrustStore store;
  TaskCatalog catalog;
  for (int t = 0; t < 4; ++t) {
    const auto added = catalog.AddUniform(
        "task-" + std::to_string(t),
        {static_cast<CharacteristicId>(t),
         static_cast<CharacteristicId>((t + 1) % 4)});
    ASSERT_TRUE(added.ok());
  }
  Rng rng(31);
  for (graph::NodeId u = 0; u < graph.node_count(); ++u) {
    for (graph::NodeId v : graph.Neighbors(u)) {
      if (!rng.Bernoulli(0.7)) continue;
      const auto task = static_cast<TaskId>(rng.NextBounded(4));
      store.Put(u, v, task,
                {rng.NextDouble(), rng.NextDouble(), rng.NextDouble(),
                 rng.NextDouble()});
    }
  }
  const Normalizer normalizer(NormalizationRange::kUnit, 1.0);
  const ShardedStoreOverlay overlay({&store}, normalizer,
                                    [](AgentId) { return std::size_t{0}; });
  const TrustOverlaySnapshot snapshot(graph, overlay);

  TransitivityParams params;
  params.max_hops = 4;
  const ReferenceTransitivitySearch live(graph, catalog, overlay, params);
  const TransitivitySearch cached(snapshot, catalog, params);
  for (const TransitivityMethod method :
       {TransitivityMethod::kTraditional, TransitivityMethod::kConservative,
        TransitivityMethod::kAggressive}) {
    for (AgentId trustor = 0; trustor < 10; ++trustor) {
      ExpectSameSearchResult(
          cached.FindPotentialTrustees(trustor, catalog.Get(1), method),
          live.FindPotentialTrustees(trustor, catalog.Get(1), method));
    }
  }
}

}  // namespace
}  // namespace siot::trust
