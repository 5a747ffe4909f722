// Copyright 2026 The siot-trust Authors.
// Versioned overlay snapshots at the trust layer.
//
// The claims under test, in dependency order:
//
//   * ShardedStoreOverlay over N shard stores answers DirectExperience
//     identically to one over the single store of an unsharded engine
//     driven with the same ops (N in {1, 2, 8});
//   * VersionedOverlaySnapshot is deterministic — two builds from the
//     same state serialize byte-identically — and version-sensitive:
//     a different version stamp or one extra outcome changes the bytes;
//   * the snapshot copies the task catalog, so later admin writes to the
//     live catalog are invisible to it;
//   * transitive queries over the snapshot match the dense reference
//     search over the live overlay for every method;
//   * Seal() makes the read-only-after-prepare contract enforceable:
//     prepared queries still work, but an unprepared query or a further
//     PrepareTasks trips SIOT_CHECK instead of mutating shared caches.

#include "trust/overlay_builder.h"

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/graph.h"
#include "tests/trust/transitivity_reference.h"
#include "trust/transitivity.h"
#include "trust/trust_engine.h"

namespace siot::trust {
namespace {

constexpr AgentId kAgents = 24;
constexpr std::size_t kTasks = 3;

std::shared_ptr<const graph::Graph> RingGraph(AgentId agents) {
  graph::GraphBuilder builder(agents);
  for (AgentId t = 0; t < agents; ++t) {
    for (AgentId d = 1; d <= 3; ++d) {
      builder.AddEdge(t, (t + d) % agents);
    }
  }
  return std::make_shared<graph::Graph>(builder.Build());
}

TrustEngineConfig EngineConfig() {
  TrustEngineConfig config;
  config.beta = ForgettingFactors::Uniform(0.2);
  config.initial_estimates = {0.5, 0.5, 0.5, 0.5};
  return config;
}

void RegisterTasks(TrustEngine& engine) {
  for (std::size_t j = 0; j < kTasks; ++j) {
    const auto id = engine.catalog().AddUniform(
        "task" + std::to_string(j),
        {static_cast<CharacteristicId>(j % 2),
         static_cast<CharacteristicId>(2 + j % 2)});
    ASSERT_TRUE(id.ok());
  }
}

/// Drives the same deterministic outcome stream into an unsharded
/// reference engine and a bank of shard engines (routed by trustor
/// modulo). Per-pair op order is identical on both sides, which is all
/// the trust math depends on.
struct ShardedFixture {
  explicit ShardedFixture(std::size_t shard_count, std::uint64_t seed = 11,
                          std::size_t ops = 400)
      : reference(EngineConfig()) {
    RegisterTasks(reference);
    for (std::size_t s = 0; s < shard_count; ++s) {
      shards.push_back(std::make_unique<TrustEngine>(EngineConfig()));
      RegisterTasks(*shards.back());
    }
    Rng rng(seed);
    for (std::size_t i = 0; i < ops; ++i) {
      const auto trustor =
          static_cast<AgentId>(rng.UniformInt(0, kAgents - 1));
      const auto trustee = static_cast<AgentId>(
          (trustor + 1 + rng.UniformInt(0, 2)) % kAgents);
      const auto task = static_cast<TaskId>(
          rng.UniformInt(0, static_cast<std::int64_t>(kTasks) - 1));
      DelegationOutcome outcome;
      outcome.success = rng.Bernoulli(0.7);
      outcome.gain = outcome.success ? 0.8 : 0.0;
      outcome.damage = outcome.success ? 0.0 : 0.4;
      outcome.cost = 0.1;
      const bool abusive = rng.Bernoulli(0.1);
      reference.ReportOutcome(trustor, trustee, task, outcome, abusive);
      // Same routing as TrustService::ReportOutcome: the trustor's shard
      // owns the whole op.
      shards[trustor % shards.size()]->ReportOutcome(trustor, trustee, task,
                                                     outcome, abusive);
    }
  }

  std::vector<const TrustStore*> Stores() const {
    std::vector<const TrustStore*> stores;
    for (const auto& shard : shards) stores.push_back(&shard->store());
    return stores;
  }

  ShardedStoreOverlay Overlay() const {
    return ShardedStoreOverlay(
        Stores(), reference.normalizer(),
        [count = shards.size()](AgentId agent) { return agent % count; });
  }

  TrustEngine reference;
  std::vector<std::unique_ptr<TrustEngine>> shards;
};

void ExpectSameExperience(const TrustOverlay& got, const TrustOverlay& want,
                          const graph::Graph& graph) {
  for (graph::NodeId u = 0; u < graph.node_count(); ++u) {
    for (graph::NodeId v : graph.Neighbors(u)) {
      const auto got_exp = got.DirectExperience(u, v);
      const auto want_exp = want.DirectExperience(u, v);
      ASSERT_EQ(got_exp.size(), want_exp.size())
          << "edge " << u << "->" << v;
      for (std::size_t i = 0; i < want_exp.size(); ++i) {
        EXPECT_EQ(got_exp[i].task, want_exp[i].task);
        EXPECT_EQ(got_exp[i].trustworthiness, want_exp[i].trustworthiness)
            << "edge " << u << "->" << v << " entry " << i;
      }
    }
  }
}

TEST(ShardedOverlayTest, MatchesSingleStoreAcrossShardCounts) {
  const auto graph = RingGraph(kAgents);
  for (const std::size_t shard_count : {std::size_t{1}, std::size_t{2},
                                        std::size_t{8}}) {
    SCOPED_TRACE("shards=" + std::to_string(shard_count));
    const ShardedFixture fixture(shard_count);
    const ShardedStoreOverlay single(
        {&fixture.reference.store()}, fixture.reference.normalizer(),
        [](AgentId) { return std::size_t{0}; });
    ExpectSameExperience(fixture.Overlay(), single, *graph);
  }
}

TEST(ShardedOverlayTest, RouterOutOfRangeDies) {
  const ShardedFixture fixture(2);
  const ShardedStoreOverlay overlay(
      fixture.Stores(), fixture.reference.normalizer(),
      [](AgentId) -> std::size_t { return 99; });
  EXPECT_DEATH((void)overlay.DirectExperience(0, 1), "SIOT_CHECK");
}

TEST(OverlayVersionTest, FormatAndEquality) {
  const SnapshotVersion a{{3, 17, 5}};
  const SnapshotVersion b{{3, 17, 5}};
  const SnapshotVersion c{{3, 18, 5}};
  EXPECT_EQ(FormatSnapshotVersion(a), "[3,17,5]");
  EXPECT_EQ(FormatSnapshotVersion(SnapshotVersion{}), "[]");
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(VersionedOverlayTest, SerializationDeterministicAndStateSensitive) {
  const auto graph = RingGraph(kAgents);
  const ShardedFixture fixture(2);
  const SnapshotVersion version{{200, 200}};
  const VersionedOverlaySnapshot first(graph, fixture.reference.catalog(),
                                       fixture.Overlay(), version);
  const VersionedOverlaySnapshot second(graph, fixture.reference.catalog(),
                                        fixture.Overlay(), version);
  EXPECT_EQ(SerializeOverlaySnapshot(first), SerializeOverlaySnapshot(second))
      << "two builds from the same state must serialize byte-identically";

  // A different version stamp changes the bytes even with equal state.
  const VersionedOverlaySnapshot restamped(
      graph, fixture.reference.catalog(), fixture.Overlay(),
      SnapshotVersion{{200, 201}});
  EXPECT_NE(SerializeOverlaySnapshot(first),
            SerializeOverlaySnapshot(restamped));

  // One extra outcome changes the bytes.
  ShardedFixture mutated(2);
  DelegationOutcome outcome;
  outcome.success = true;
  outcome.gain = 0.8;
  outcome.cost = 0.1;
  mutated.reference.ReportOutcome(0, 1, 0, outcome);
  mutated.shards[0]->ReportOutcome(0, 1, 0, outcome);
  mutated.shards[1]->ReportOutcome(0, 1, 0, outcome);
  const VersionedOverlaySnapshot diverged(
      graph, mutated.reference.catalog(), mutated.Overlay(), version);
  EXPECT_NE(SerializeOverlaySnapshot(first),
            SerializeOverlaySnapshot(diverged));
}

TEST(VersionedOverlayTest, CatalogCopiedAtBuildTime) {
  const auto graph = RingGraph(kAgents);
  ShardedFixture fixture(2);
  const VersionedOverlaySnapshot snapshot(
      graph, fixture.reference.catalog(), fixture.Overlay(),
      SnapshotVersion{{1, 1}});
  ASSERT_EQ(snapshot.catalog().size(), kTasks);
  ASSERT_TRUE(fixture.reference.catalog().AddUniform("late", {0}).ok());
  EXPECT_EQ(snapshot.catalog().size(), kTasks)
      << "admin writes to the live catalog must not leak into a "
         "published snapshot";
}

TEST(VersionedOverlayTest, SnapshotQueriesMatchLiveOverlay) {
  const auto graph = RingGraph(kAgents);
  const ShardedFixture fixture(8);
  const auto overlay = fixture.Overlay();
  const VersionedOverlaySnapshot snapshot(
      graph, fixture.reference.catalog(), overlay, SnapshotVersion{{400}});

  TransitivityParams params;
  params.omega1 = 0.5;
  params.omega2 = 0.0;
  params.max_hops = 4;
  const ReferenceTransitivitySearch live(
      *graph, fixture.reference.catalog(), overlay, params);
  TransitivitySearch frozen(snapshot.snapshot(), snapshot.catalog(), params);
  std::vector<TaskId> all_tasks;
  for (TaskId id = 0; id < snapshot.catalog().size(); ++id) {
    all_tasks.push_back(id);
  }
  frozen.PrepareTasks(all_tasks);
  frozen.Seal();

  for (const TransitivityMethod method :
       {TransitivityMethod::kTraditional, TransitivityMethod::kConservative,
        TransitivityMethod::kAggressive}) {
    for (AgentId trustor = 0; trustor < kAgents; trustor += 5) {
      for (TaskId task = 0; task < kTasks; ++task) {
        const auto want = live.FindPotentialTrustees(
            trustor, snapshot.catalog().Get(task), method);
        const auto got = frozen.FindPotentialTrustees(
            trustor, snapshot.catalog().Get(task), method);
        ASSERT_EQ(got.trustees.size(), want.trustees.size());
        for (std::size_t i = 0; i < want.trustees.size(); ++i) {
          EXPECT_EQ(got.trustees[i].agent, want.trustees[i].agent);
          EXPECT_EQ(got.trustees[i].trustworthiness,
                    want.trustees[i].trustworthiness);
          EXPECT_EQ(got.trustees[i].per_characteristic,
                    want.trustees[i].per_characteristic);
        }
      }
    }
  }
}

TEST(OverlaySealTest, SealedSearchServesPreparedTasks) {
  const auto graph = RingGraph(kAgents);
  const ShardedFixture fixture(2);
  const VersionedOverlaySnapshot snapshot(
      graph, fixture.reference.catalog(), fixture.Overlay(),
      SnapshotVersion{{1, 1}});
  TransitivitySearch search(snapshot.snapshot(), snapshot.catalog(), {});
  EXPECT_FALSE(search.sealed());
  search.PrepareTasks({0, 1});
  search.Seal();
  EXPECT_TRUE(search.sealed());
  // Prepared tasks keep answering after Seal — pure cache reads.
  const auto result = search.FindPotentialTrustees(
      0, snapshot.catalog().Get(1), TransitivityMethod::kAggressive);
  (void)result;
}

TEST(OverlaySealTest, UnpreparedQueryOnSealedSearchDies) {
  const auto graph = RingGraph(kAgents);
  const ShardedFixture fixture(2);
  const VersionedOverlaySnapshot snapshot(
      graph, fixture.reference.catalog(), fixture.Overlay(),
      SnapshotVersion{{1, 1}});
  TransitivitySearch search(snapshot.snapshot(), snapshot.catalog(), {});
  search.PrepareTasks({0});
  search.Seal();
  EXPECT_DEATH((void)search.FindPotentialTrustees(
                   0, snapshot.catalog().Get(2),
                   TransitivityMethod::kAggressive),
               "sealed");
}

TEST(OverlaySealTest, PrepareAfterSealDies) {
  const auto graph = RingGraph(kAgents);
  const ShardedFixture fixture(2);
  const VersionedOverlaySnapshot snapshot(
      graph, fixture.reference.catalog(), fixture.Overlay(),
      SnapshotVersion{{1, 1}});
  TransitivitySearch search(snapshot.snapshot(), snapshot.catalog(), {});
  search.PrepareTasks({0});
  search.Seal();
  EXPECT_DEATH(search.PrepareTasks({1}), "sealed");
}

}  // namespace
}  // namespace siot::trust
