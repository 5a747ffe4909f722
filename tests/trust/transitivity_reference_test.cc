// Copyright 2026 The siot-trust Authors.
// Differential tests of TransitivitySearch against the dense-relaxation
// reference oracle (transitivity_reference.h), and tests that the search's
// per-thread scratch never carries state from one query to the next.
//
// Answers must agree BIT FOR BIT: inquired_nodes, and for every trustee the
// agent, the trustworthiness and each per-characteristic value. The worlds
// are randomized Erdős–Rényi and planted-community graphs carrying either
// the dense §5.5 world overlay or a sparse random one, searched over their
// snapshot with every method, with and without a trustee filter,
// for ω1 ∈ {0, 0.3, 0.5, 0.7} (below 0.5 the per-node maximum is greedy,
// so those answers are the most sensitive to evaluation order) and
// max_hops 1..7.

#include "tests/trust/transitivity_reference.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "sim/network_setup.h"
#include "trust/overlay_snapshot.h"
#include "trust/task.h"
#include "trust/transitivity.h"

namespace siot::trust {
namespace {

constexpr TransitivityMethod kMethods[] = {TransitivityMethod::kTraditional,
                                           TransitivityMethod::kConservative,
                                           TransitivityMethod::kAggressive};

/// Empty string when `got` equals `want` bit for bit, else what differs.
std::string DiffResults(const TransitivityResult& got,
                        const TransitivityResult& want) {
  if (got.inquired_nodes != want.inquired_nodes) {
    return "inquired_nodes " + std::to_string(got.inquired_nodes) +
           " != " + std::to_string(want.inquired_nodes);
  }
  if (got.trustees.size() != want.trustees.size()) {
    return "trustee count " + std::to_string(got.trustees.size()) +
           " != " + std::to_string(want.trustees.size());
  }
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (std::size_t i = 0; i < want.trustees.size(); ++i) {
    const PotentialTrustee& g = got.trustees[i];
    const PotentialTrustee& w = want.trustees[i];
    const std::string at = "trustee #" + std::to_string(i) + ": ";
    if (g.agent != w.agent) return at + "agent differs";
    if (bits(g.trustworthiness) != bits(w.trustworthiness)) {
      return at + "trustworthiness differs";
    }
    if (g.per_characteristic.size() != w.per_characteristic.size()) {
      return at + "per_characteristic size differs";
    }
    for (std::size_t c = 0; c < w.per_characteristic.size(); ++c) {
      if (bits(g.per_characteristic[c]) != bits(w.per_characteristic[c])) {
        return at + "per_characteristic[" + std::to_string(c) + "] differs";
      }
    }
  }
  return "";
}

/// Random direct experiences on a fraction of the directed edges, over a
/// catalog of 1-, 2- and 3-characteristic tasks.
class SparseWorld : public TrustOverlay {
 public:
  SparseWorld(const graph::Graph& graph, double edge_density, Rng& rng) {
    const std::vector<std::vector<CharacteristicId>> tasks = {
        {0}, {1}, {2}, {3}, {0, 1}, {1, 2}, {2, 3}, {0, 3},
        {0, 1, 2}, {1, 2, 3}, {0, 2, 3}};
    for (std::size_t j = 0; j < tasks.size(); ++j) {
      const auto id = catalog_.AddUniform(StrFormat("t%zu", j), tasks[j]);
      SIOT_CHECK(id.ok());
    }
    for (graph::NodeId u = 0; u < graph.node_count(); ++u) {
      for (const graph::NodeId v : graph.Neighbors(u)) {
        if (!rng.Bernoulli(edge_density)) continue;
        auto& list = table_[Key(u, v)];
        const std::size_t count = 1 + rng.NextBounded(3);
        for (const std::size_t pick :
             rng.SampleWithoutReplacement(catalog_.size(), count)) {
          list.push_back({static_cast<TaskId>(pick), rng.NextDouble()});
        }
      }
    }
  }

  const TaskCatalog& catalog() const { return catalog_; }

  std::vector<TaskExperience> DirectExperience(
      AgentId observer, AgentId subject) const override {
    const auto it = table_.find(Key(observer, subject));
    return it == table_.end() ? std::vector<TaskExperience>{} : it->second;
  }

 private:
  static std::uint64_t Key(AgentId a, AgentId b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
  TaskCatalog catalog_;
  std::unordered_map<std::uint64_t, std::vector<TaskExperience>> table_;
};

graph::Graph ErGraph(std::size_t n, double mean_degree, std::uint64_t seed) {
  Rng rng(seed);
  return graph::ErdosRenyiGnm(
      n, static_cast<std::size_t>(static_cast<double>(n) * mean_degree / 2),
      rng);
}

graph::Graph CommunityGraph(std::size_t n, double mean_degree,
                            std::uint64_t seed) {
  graph::CommunityGraphParams params;
  params.node_count = n;
  params.community_count = std::max<std::size_t>(n / 40, 2);
  params.min_community_size = 8;
  params.p_intra = 0.5;
  params.shortcut_bridges = n / 10;
  params.target_edge_count =
      static_cast<std::size_t>(static_cast<double>(n) * mean_degree / 2);
  Rng rng(seed);
  auto generated = graph::GenerateCommunityGraph(params, rng);
  SIOT_CHECK(generated.ok());
  return std::move(generated.value().graph);
}

bool Eligible(AgentId agent) { return agent % 3 != 1; }

/// Every (ω1, max_hops, filter) configuration, a few trustors and tasks
/// each, all methods: the snapshot search's answers must equal the
/// reference's bit for bit.
void ExpectMatchesReference(const graph::Graph& graph,
                                   const TaskCatalog& catalog,
                                   const TrustOverlay& overlay,
                                   double omega2, std::uint64_t seed) {
  const TrustOverlaySnapshot snapshot(graph, overlay);
  Rng rng(seed);
  for (const double omega1 : {0.0, 0.3, 0.5, 0.7}) {
    for (std::size_t max_hops = 1; max_hops <= 7; ++max_hops) {
      for (const bool filtered : {false, true}) {
        TransitivityParams params;
        params.omega1 = omega1;
        params.omega2 = omega2;
        params.max_hops = max_hops;
        if (filtered) params.trustee_eligible = Eligible;
        const ReferenceTransitivitySearch reference(graph, catalog, overlay,
                                                    params);
        const TransitivitySearch cached(snapshot, catalog, params);
        for (int q = 0; q < 3; ++q) {
          const auto trustor =
              static_cast<AgentId>(rng.NextBounded(graph.node_count()));
          const Task& task = catalog.Get(
              static_cast<TaskId>(rng.NextBounded(catalog.size())));
          for (const TransitivityMethod method : kMethods) {
            const TransitivityResult want =
                reference.FindPotentialTrustees(trustor, task, method);
            const std::string where =
                " (omega1=" + std::to_string(omega1) +
                " max_hops=" + std::to_string(max_hops) +
                " filtered=" + std::to_string(filtered) +
                " trustor=" + std::to_string(trustor) +
                " task=" + std::to_string(task.id()) + " method=" +
                std::string(TransitivityMethodName(method)) + ")";
            EXPECT_EQ(DiffResults(cached.FindPotentialTrustees(trustor, task,
                                                               method),
                                  want),
                      "")
                << "snapshot" << where;
          }
        }
      }
    }
  }
}

TEST(TransitivitySearchReference, ErdosRenyiWorldsMatchBitForBit) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const graph::Graph graph = ErGraph(300, 8.0, seed);
    Rng rng(100 + seed);
    const sim::SiotWorld world =
        sim::SiotWorld::BuildRandom(graph, sim::WorldConfig{}, rng);
    ExpectMatchesReference(graph, world.catalog(), world,
                           seed % 2 == 0 ? 0.0 : 0.6, 200 + seed);
    const SparseWorld sparse(graph, 0.15 * static_cast<double>(seed), rng);
    ExpectMatchesReference(graph, sparse.catalog(), sparse,
                           seed % 2 == 0 ? 0.4 : 0.0, 300 + seed);
  }
}

TEST(TransitivitySearchReference, CommunityWorldsMatchBitForBit) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const graph::Graph graph = CommunityGraph(320, 10.0, seed);
    Rng rng(400 + seed);
    sim::WorldConfig config;
    config.characteristic_count = 4 + seed;
    const sim::SiotWorld world =
        sim::SiotWorld::BuildRandom(graph, config, rng);
    ExpectMatchesReference(graph, world.catalog(), world,
                           seed % 2 == 0 ? 0.6 : 0.0, 500 + seed);
    const SparseWorld sparse(graph, 0.1 + 0.2 * static_cast<double>(seed),
                             rng);
    ExpectMatchesReference(graph, sparse.catalog(), sparse,
                           seed % 2 == 0 ? 0.0 : 0.5, 600 + seed);
  }
}

TEST(TransitivitySearchReference, EveryTrustorOfOneWorldMatches) {
  // Exhaustive over trustors for the default parameters, the served
  // configuration.
  const graph::Graph graph = CommunityGraph(200, 12.0, 7);
  Rng rng(7);
  const SparseWorld sparse(graph, 0.3, rng);
  const TrustOverlaySnapshot snapshot(graph, sparse);
  const TransitivityParams params;
  const ReferenceTransitivitySearch reference(graph, sparse.catalog(), sparse,
                                              params);
  const TransitivitySearch cached(snapshot, sparse.catalog(), params);
  for (AgentId trustor = 0; trustor < graph.node_count(); ++trustor) {
    const Task& task =
        sparse.catalog().Get(static_cast<TaskId>(trustor % 11));
    for (const TransitivityMethod method : kMethods) {
      EXPECT_EQ(DiffResults(cached.FindPotentialTrustees(trustor, task,
                                                         method),
                            reference.FindPotentialTrustees(trustor, task,
                                                            method)),
                "")
          << "trustor " << trustor;
    }
  }
}

// ----------------------------------------------------- per-thread scratch --

/// Two searches that differ in node count and task arity.
struct TwoSearches {
  graph::Graph big_graph = CommunityGraph(400, 12.0, 11);
  graph::Graph small_graph = ErGraph(90, 6.0, 12);
  Rng rng{13};
  SparseWorld big{big_graph, 0.4, rng};
  SparseWorld small{small_graph, 0.6, rng};
  TrustOverlaySnapshot big_snapshot{big_graph, big};
  TrustOverlaySnapshot small_snapshot{small_graph, small};

  struct Query {
    bool on_big = false;
    AgentId trustor = 0;
    TaskId task = 0;
    TransitivityMethod method = TransitivityMethod::kTraditional;
  };

  std::vector<Query> Queries(std::size_t count, std::uint64_t seed) const {
    Rng pick(seed);
    std::vector<Query> queries;
    for (std::size_t i = 0; i < count; ++i) {
      Query q;
      q.on_big = i % 2 == 0;
      const graph::Graph& g = q.on_big ? big_graph : small_graph;
      q.trustor = static_cast<AgentId>(pick.NextBounded(g.node_count()));
      // Big-world queries use 3-characteristic tasks, small-world ones
      // single characteristics.
      q.task = q.on_big ? static_cast<TaskId>(8 + pick.NextBounded(3))
                        : static_cast<TaskId>(pick.NextBounded(4));
      q.method = kMethods[pick.NextBounded(3)];
      queries.push_back(q);
    }
    return queries;
  }

  TransitivityResult Run(const TransitivitySearch& big_search,
                         const TransitivitySearch& small_search,
                         const Query& q) const {
    const TransitivitySearch& search = q.on_big ? big_search : small_search;
    const TaskCatalog& catalog = q.on_big ? big.catalog() : small.catalog();
    return search.FindPotentialTrustees(q.trustor, catalog.Get(q.task),
                                        q.method);
  }
};

/// Runs `fn` on a new thread, whose scratch starts empty.
TransitivityResult OnFreshThread(
    const std::function<TransitivityResult()>& fn) {
  TransitivityResult result;
  std::thread([&] { result = fn(); }).join();
  return result;
}

TEST(TransitivityScratchTest, AlternatingSearchesMatchFreshQueries) {
  const TwoSearches w;
  TransitivityParams params;
  params.omega1 = 0.3;
  params.omega2 = 0.2;
  const TransitivitySearch big(w.big_snapshot, w.big.catalog(), params);
  const TransitivitySearch small(w.small_snapshot, w.small.catalog(), params);
  // Fill the searches' caches first, so fresh threads only read them.
  const auto queries = w.Queries(60, 21);
  for (const auto& q : queries) w.Run(big, small, q);
  for (const auto& q : queries) {
    const TransitivityResult fresh =
        OnFreshThread([&] { return w.Run(big, small, q); });
    EXPECT_EQ(DiffResults(w.Run(big, small, q), fresh), "")
        << "trustor=" << q.trustor;
  }
}

TEST(TransitivityScratchTest, ReentrantFilterRunsNestedSearch) {
  const TwoSearches w;
  TransitivityParams plain;
  plain.omega1 = 0.3;
  plain.omega2 = 0.0;
  const TransitivitySearch small(w.small_snapshot, w.small.catalog(), plain);
  const Task& small_task = w.small.catalog().Get(5);
  const TransitivityResult nested_want = OnFreshThread([&] {
    return small.FindPotentialTrustees(3, small_task,
                                       TransitivityMethod::kAggressive);
  });

  std::size_t nested_runs = 0;
  std::size_t nested_mismatches = 0;
  TransitivityParams outer = plain;
  outer.trustee_eligible = [&](AgentId agent) {
    ++nested_runs;
    if (!DiffResults(small.FindPotentialTrustees(
                         3, small_task, TransitivityMethod::kAggressive),
                     nested_want)
             .empty()) {
      ++nested_mismatches;
    }
    return Eligible(agent);
  };
  TransitivityParams filtered = plain;
  filtered.trustee_eligible = Eligible;
  const TransitivitySearch big(w.big_snapshot, w.big.catalog(), outer);
  const ReferenceTransitivitySearch reference(w.big_graph, w.big.catalog(),
                                              w.big, filtered);
  for (const TransitivityMethod method : kMethods) {
    for (const AgentId trustor : {0u, 17u, 233u}) {
      const Task& task = w.big.catalog().Get(9);
      EXPECT_EQ(DiffResults(big.FindPotentialTrustees(trustor, task, method),
                            reference.FindPotentialTrustees(trustor, task,
                                                            method)),
                "")
          << TransitivityMethodName(method) << " trustor " << trustor;
    }
  }
  EXPECT_GT(nested_runs, 0u);
  EXPECT_EQ(nested_mismatches, 0u);
}

TEST(TransitivityScratchTest, ThrowingFilterPropagatesAndNextQueryIsCorrect) {
  const TwoSearches w;
  TransitivityParams plain;
  plain.omega1 = 0.3;
  plain.omega2 = 0.0;
  TransitivityParams throwing = plain;
  throwing.trustee_eligible = [](AgentId) -> bool {
    throw std::runtime_error("filter refused");
  };
  const TransitivitySearch failing(w.big_snapshot, w.big.catalog(), throwing);
  const TransitivitySearch search(w.big_snapshot, w.big.catalog(), plain);
  const ReferenceTransitivitySearch reference(w.big_graph, w.big.catalog(),
                                              w.big, plain);
  const Task& task = w.big.catalog().Get(4);
  for (const TransitivityMethod method : kMethods) {
    // A trustor with at least one candidate, so the filter runs.
    AgentId trustor = 0;
    while (trustor < w.big_graph.node_count() &&
           search.FindPotentialTrustees(trustor, task, method)
               .trustees.empty()) {
      ++trustor;
    }
    ASSERT_LT(trustor, w.big_graph.node_count());
    EXPECT_THROW(failing.FindPotentialTrustees(trustor, task, method),
                 std::runtime_error);
    EXPECT_EQ(
        DiffResults(search.FindPotentialTrustees(trustor, task, method),
                    reference.FindPotentialTrustees(trustor, task, method)),
        "")
        << TransitivityMethodName(method);
  }
}

}  // namespace
}  // namespace siot::trust
