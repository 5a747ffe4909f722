// Copyright 2026 The siot-trust Authors.
// Property suites for the transitivity search over randomized worlds:
// set-inclusion invariants between the three methods, monotonicity in the
// hop budget, and determinism.

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "graph/generators.h"
#include "sim/network_setup.h"
#include "trust/overlay_snapshot.h"
#include "trust/transitivity.h"

namespace siot::trust {
namespace {

struct WorldFixture {
  graph::Graph graph{0};
  std::unique_ptr<sim::SiotWorld> world;
  std::unique_ptr<TrustOverlaySnapshot> snapshot;

  explicit WorldFixture(std::uint64_t seed, std::size_t chars = 5) {
    Rng rng(seed);
    graph = graph::ErdosRenyiGnm(120, 900, rng);
    sim::WorldConfig config;
    config.characteristic_count = chars;
    world = std::make_unique<sim::SiotWorld>(
        sim::SiotWorld::BuildRandom(graph, config, rng));
    snapshot = std::make_unique<TrustOverlaySnapshot>(graph, *world);
  }
};

std::set<AgentId> TrusteeSet(const TransitivityResult& result) {
  std::set<AgentId> out;
  for (const PotentialTrustee& t : result.trustees) out.insert(t.agent);
  return out;
}

class TransitivitySearchProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, TransitivitySearchProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST_P(TransitivitySearchProperty, ConservativeSubsetOfAggressive) {
  WorldFixture fixture(GetParam());
  TransitivityParams params;
  params.omega1 = 0.5;
  params.omega2 = 0.0;
  const TransitivitySearch search(*fixture.snapshot,
                                  fixture.world->catalog(), params);
  Rng rng(GetParam() * 17);
  for (int trial = 0; trial < 5; ++trial) {
    const AgentId trustor =
        static_cast<AgentId>(rng.NextBounded(fixture.graph.node_count()));
    const TaskId request = fixture.world->SampleRequest(rng);
    const Task& task = fixture.world->catalog().Get(request);
    const auto conservative = search.FindPotentialTrustees(
        trustor, task, TransitivityMethod::kConservative);
    const auto aggressive = search.FindPotentialTrustees(
        trustor, task, TransitivityMethod::kAggressive);
    // Every hop viable under the all-characteristics rule is viable under
    // the any-characteristic rule, so conservative trustees are a subset.
    const auto cons_set = TrusteeSet(conservative);
    const auto aggr_set = TrusteeSet(aggressive);
    for (const AgentId agent : cons_set) {
      EXPECT_TRUE(aggr_set.contains(agent))
          << "conservative trustee " << agent << " missing from aggressive";
    }
    EXPECT_GE(aggressive.inquired_nodes, conservative.inquired_nodes);
  }
}

TEST_P(TransitivitySearchProperty, TraditionalSubsetWithoutGates) {
  // With ω1 = 0 (no recommendation gate), any exact-task chain is also a
  // full-coverage chain, so traditional trustees ⊆ conservative trustees.
  WorldFixture fixture(GetParam() + 40);
  TransitivityParams params;
  params.omega1 = 0.0;
  params.omega2 = 0.0;
  const TransitivitySearch search(*fixture.snapshot,
                                  fixture.world->catalog(), params);
  Rng rng(GetParam() * 31);
  for (int trial = 0; trial < 5; ++trial) {
    const AgentId trustor =
        static_cast<AgentId>(rng.NextBounded(fixture.graph.node_count()));
    const TaskId request = fixture.world->SampleRequest(rng);
    const Task& task = fixture.world->catalog().Get(request);
    const auto traditional = search.FindPotentialTrustees(
        trustor, task, TransitivityMethod::kTraditional);
    const auto conservative = search.FindPotentialTrustees(
        trustor, task, TransitivityMethod::kConservative);
    const auto cons_set = TrusteeSet(conservative);
    for (const AgentId agent : TrusteeSet(traditional)) {
      EXPECT_TRUE(cons_set.contains(agent))
          << "traditional trustee " << agent << " missing from conservative";
    }
  }
}

TEST_P(TransitivitySearchProperty, MoreHopsNeverShrinkTheTrusteeSet) {
  WorldFixture fixture(GetParam() + 80);
  Rng rng(GetParam() * 53);
  const AgentId trustor =
      static_cast<AgentId>(rng.NextBounded(fixture.graph.node_count()));
  const TaskId request = fixture.world->SampleRequest(rng);
  const Task& task = fixture.world->catalog().Get(request);
  std::size_t previous_count = 0;
  for (const std::size_t hops : {1ul, 2ul, 4ul, 6ul}) {
    TransitivityParams params;
    params.omega1 = 0.5;
    params.omega2 = 0.0;
    params.max_hops = hops;
    const TransitivitySearch search(*fixture.snapshot,
                                    fixture.world->catalog(), params);
    const auto result = search.FindPotentialTrustees(
        trustor, task, TransitivityMethod::kAggressive);
    EXPECT_GE(result.trustees.size(), previous_count);
    previous_count = result.trustees.size();
  }
}

TEST_P(TransitivitySearchProperty, ResultsSortedAndDeduplicated) {
  WorldFixture fixture(GetParam() + 120);
  TransitivityParams params;
  const TransitivitySearch search(*fixture.snapshot,
                                  fixture.world->catalog(), params);
  Rng rng(GetParam() * 71);
  const AgentId trustor =
      static_cast<AgentId>(rng.NextBounded(fixture.graph.node_count()));
  const TaskId request = fixture.world->SampleRequest(rng);
  for (const TransitivityMethod method :
       {TransitivityMethod::kTraditional,
        TransitivityMethod::kConservative,
        TransitivityMethod::kAggressive}) {
    const auto result = search.FindPotentialTrustees(
        trustor, fixture.world->catalog().Get(request), method);
    std::set<AgentId> seen;
    double previous = 2.0;
    for (const PotentialTrustee& trustee : result.trustees) {
      EXPECT_TRUE(seen.insert(trustee.agent).second)
          << "duplicate trustee " << trustee.agent;
      EXPECT_LE(trustee.trustworthiness, previous + 1e-12);
      previous = trustee.trustworthiness;
      EXPECT_NE(trustee.agent, trustor);
      // Per-characteristic vector matches the task arity.
      EXPECT_EQ(trustee.per_characteristic.size(),
                fixture.world->catalog().Get(request).parts().size());
    }
  }
}

TEST_P(TransitivitySearchProperty, DeterministicAcrossCalls) {
  WorldFixture fixture(GetParam() + 160);
  TransitivityParams params;
  const TransitivitySearch search(*fixture.snapshot,
                                  fixture.world->catalog(), params);
  Rng rng(GetParam() * 91);
  const AgentId trustor =
      static_cast<AgentId>(rng.NextBounded(fixture.graph.node_count()));
  const TaskId request = fixture.world->SampleRequest(rng);
  const Task& task = fixture.world->catalog().Get(request);
  const auto first = search.FindPotentialTrustees(
      trustor, task, TransitivityMethod::kAggressive);
  const auto second = search.FindPotentialTrustees(
      trustor, task, TransitivityMethod::kAggressive);
  ASSERT_EQ(first.trustees.size(), second.trustees.size());
  EXPECT_EQ(first.inquired_nodes, second.inquired_nodes);
  for (std::size_t i = 0; i < first.trustees.size(); ++i) {
    EXPECT_EQ(first.trustees[i].agent, second.trustees[i].agent);
    EXPECT_DOUBLE_EQ(first.trustees[i].trustworthiness,
                     second.trustees[i].trustworthiness);
  }
}

}  // namespace
}  // namespace siot::trust
