// Copyright 2026 The siot-trust Authors.
// Overlay snapshot microbenchmarks — the follower-served transitive read
// path:
//   * build cost vs graph size and shard count — the shard-lock-holding
//     assembly (ShardedStoreOverlay → VersionedOverlaySnapshot) plus the
//     lock-free hop-cache preparation, measured together as the full
//     BuildOverlaySnapshot a follower of a durable leader runs;
//   * hop-cache preparation alone — the dominant lock-free cost, per
//     catalog size;
//   * query throughput per §4.3 method against the follower's sealed
//     published snapshot — the steady-state read path it serves;
//   * the transitivity search alone at honest sizes — community graphs
//     of mean degree 24 with a served-style sparse overlay, at 2048 and
//     16384 agents, reporting the nodes each query inquires, so per-query
//     time can be read against the work a query reaches.
// The reproduction section prints the build-cost-vs-size curve the
// README's "Follower-served reads" table quotes. Every size runs under a
// name that states it; quick mode registers smaller sizes, not clamped
// ones.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/table.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "service/overlay_serving.h"
#include "service/replication.h"
#include "service/trust_service.h"
#include "trust/overlay_builder.h"
#include "trust/overlay_snapshot.h"
#include "trust/transitivity.h"

namespace {

using siot::service::OutcomeReport;
using siot::service::PersistenceOptions;
using siot::service::ReplicaOptions;
using siot::service::ReplicaService;
using siot::service::TransitiveTrustRequest;
using siot::service::TrustService;
using siot::service::TrustServiceConfig;

constexpr std::size_t kTasks = 3;

std::shared_ptr<const siot::graph::Graph> RingGraph(
    siot::trust::AgentId agents) {
  siot::graph::GraphBuilder builder(agents);
  for (siot::trust::AgentId t = 0; t < agents; ++t) {
    for (siot::trust::AgentId d = 1; d <= 4; ++d) {
      builder.AddEdge(t, (t + d) % agents);
    }
  }
  return std::make_shared<siot::graph::Graph>(builder.Build());
}

TrustServiceConfig MakeConfig(std::size_t shards) {
  TrustServiceConfig config;
  config.shard_count = shards;
  config.engine.beta = siot::trust::ForgettingFactors::Uniform(0.2);
  return config;
}

siot::trust::TransitivityParams Params() {
  siot::trust::TransitivityParams params;
  params.omega1 = 0.5;
  params.omega2 = 0.0;
  params.max_hops = 4;
  return params;
}

/// A caught-up follower of a durable `shards`-shard leader whose agents
/// each reported on a ring neighbour in two rounds; it serves transitive
/// reads over `graph` but has not built a snapshot yet. The leader is
/// closed once its writes are durable; the directory lives as long as
/// this object.
class LoadedFollower {
 public:
  LoadedFollower(siot::trust::AgentId agents, std::size_t shards,
                 std::shared_ptr<const siot::graph::Graph> graph)
      : dir_(siot::bench::BenchDir("overlay_" + std::to_string(agents) +
                                   "_" + std::to_string(shards))) {
    const TrustServiceConfig config = MakeConfig(shards);
    PersistenceOptions persistence;
    persistence.directory = dir_;
    auto leader = TrustService::Open(config, persistence);
    SIOT_CHECK(leader.ok());
    for (std::size_t j = 0; j < kTasks; ++j) {
      SIOT_CHECK((*leader)
                     ->RegisterTask(
                         "task" + std::to_string(j),
                         {static_cast<siot::trust::CharacteristicId>(j % 2),
                          static_cast<siot::trust::CharacteristicId>(
                              2 + j % 2)})
                     .ok());
    }
    for (std::uint64_t round = 0; round < 2; ++round) {
      std::vector<OutcomeReport> reports;
      reports.reserve(agents);
      for (siot::trust::AgentId t = 0; t < agents; ++t) {
        OutcomeReport report;
        report.trustor = t;
        report.trustee = (t + 1 + (t + round) % 4) % agents;
        report.task = static_cast<siot::trust::TaskId>((t + round) % kTasks);
        report.outcome = {(t + round) % 3 != 0, 0.75, 0.125, 0.1};
        reports.push_back(report);
      }
      SIOT_CHECK((*leader)->BatchReportOutcome(reports).ok());
    }
    const auto positions = (*leader)->WalPositions();
    leader->reset();
    ReplicaOptions options;
    options.directory = dir_;
    options.overlay_graph = std::move(graph);
    options.transitivity = Params();
    auto replica = ReplicaService::Open(config, options);
    SIOT_CHECK(replica.ok());
    replica_ = std::move(replica).value();
    SIOT_CHECK(
        replica_->AwaitPositions(positions, std::chrono::seconds(60)).ok());
  }
  ~LoadedFollower() {
    replica_.reset();
    std::filesystem::remove_all(dir_);
  }
  LoadedFollower(const LoadedFollower&) = delete;
  LoadedFollower& operator=(const LoadedFollower&) = delete;

  ReplicaService* operator->() const { return replica_.get(); }

 private:
  std::string dir_;
  std::unique_ptr<ReplicaService> replica_;
};

/// Full build (assembly under the follower's shard locks + lock-free
/// prepare + seal + publish) vs graph size and shard count. Args:
/// agents, shards.
void BM_OverlayRebuild(benchmark::State& state) {
  const auto agents = static_cast<siot::trust::AgentId>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  const auto graph = RingGraph(agents);
  const LoadedFollower follower(agents, shards, graph);
  for (auto _ : state) {
    SIOT_CHECK(follower->BuildOverlaySnapshot().ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["directed_edges"] =
      static_cast<double>(2 * graph->edge_count());
}

/// Full runs measure the sizes their names state; quick mode registers
/// smaller sizes under their own names rather than clamping these.
void OverlayRebuildArgs(benchmark::internal::Benchmark* bench) {
  if (siot::bench::QuickMode()) {
    bench->Args({128, 4})->Args({256, 4})->Args({256, 1})->Args({256, 16});
  } else {
    bench->Args({256, 4})
        ->Args({1024, 4})
        ->Args({4096, 4})
        ->Args({1024, 1})
        ->Args({1024, 16});
  }
}
BENCHMARK(BM_OverlayRebuild)
    ->Apply(OverlayRebuildArgs)
    ->Unit(benchmark::kMillisecond);

/// Hop-cache preparation alone — build the snapshot once, measure
/// TransitivitySearch construction + PrepareTasks + Seal. Args: agents.
void BM_OverlayPrepare(benchmark::State& state) {
  const auto agents = static_cast<siot::trust::AgentId>(state.range(0));
  const LoadedFollower follower(agents, 4, RingGraph(agents));
  SIOT_CHECK(follower->BuildOverlaySnapshot().ok());
  const auto snapshot = follower->CurrentOverlaySnapshot();
  SIOT_CHECK(snapshot != nullptr);
  std::vector<siot::trust::TaskId> tasks;
  for (siot::trust::TaskId id = 0; id < snapshot->catalog().size(); ++id) {
    tasks.push_back(id);
  }
  for (auto _ : state) {
    siot::trust::TransitivitySearch search(snapshot->snapshot(),
                                           snapshot->catalog(), Params());
    search.PrepareTasks(tasks);
    search.Seal();
    benchmark::DoNotOptimize(search.sealed());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tasks.size()));
}

void OverlayPrepareArgs(benchmark::internal::Benchmark* bench) {
  const std::vector<std::int64_t> sizes =
      siot::bench::QuickMode() ? std::vector<std::int64_t>{128, 256}
                               : std::vector<std::int64_t>{256, 1024, 4096};
  for (const std::int64_t agents : sizes) bench->Arg(agents);
}
BENCHMARK(BM_OverlayPrepare)
    ->Apply(OverlayPrepareArgs)
    ->Unit(benchmark::kMillisecond);

/// Steady-state serving: queries/s against a follower's sealed published
/// snapshot. Args: agents, §4.3 method (0 traditional, 1 conservative,
/// 2 aggressive).
void BM_OverlayQuery(benchmark::State& state) {
  const auto agents = static_cast<siot::trust::AgentId>(state.range(0));
  const LoadedFollower follower(agents, 4, RingGraph(agents));
  SIOT_CHECK(follower->BuildOverlaySnapshot().ok());
  const auto method =
      static_cast<siot::trust::TransitivityMethod>(state.range(1));
  TransitiveTrustRequest request;
  request.task = 0;
  request.method = method;
  siot::trust::AgentId trustor = 0;
  for (auto _ : state) {
    request.trustor = trustor;
    trustor = (trustor + 17) % agents;
    const auto answer = follower->TransitiveTrust(request);
    SIOT_CHECK(answer.ok());
    benchmark::DoNotOptimize(answer.value().result.trustees.size());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(siot::trust::TransitivityMethodName(method)));
}

void OverlayQueryArgs(benchmark::internal::Benchmark* bench) {
  const std::int64_t agents = siot::bench::QuickMode() ? 256 : 1024;
  for (std::int64_t method = 0; method < 3; ++method) {
    bench->Args({agents, method});
  }
}
BENCHMARK(BM_OverlayQuery)
    ->Apply(OverlayQueryArgs)
    ->Unit(benchmark::kMicrosecond);

/// Direct experiences a served follower holds: each agent has records
/// about `records_per_agent` of its neighbours, each for one of the
/// catalog's tasks, with trustworthiness uniform in [0, 1).
class SparseRecordOverlay : public siot::trust::TrustOverlay {
 public:
  SparseRecordOverlay(const siot::graph::Graph& graph,
                      std::size_t task_count, std::size_t records_per_agent,
                      siot::Rng& rng) {
    for (siot::graph::NodeId u = 0; u < graph.node_count(); ++u) {
      const auto neighbors = graph.Neighbors(u);
      const std::size_t count =
          std::min(records_per_agent, neighbors.size());
      for (const std::size_t k :
           rng.SampleWithoutReplacement(neighbors.size(), count)) {
        records_[Key(u, neighbors[k])].push_back(
            {static_cast<siot::trust::TaskId>(rng.NextBounded(task_count)),
             rng.NextDouble()});
      }
    }
  }

  std::vector<siot::trust::TaskExperience> DirectExperience(
      siot::trust::AgentId observer,
      siot::trust::AgentId subject) const override {
    const auto it = records_.find(Key(observer, subject));
    return it == records_.end() ? std::vector<siot::trust::TaskExperience>{}
                                : it->second;
  }

 private:
  static std::uint64_t Key(siot::trust::AgentId a, siot::trust::AgentId b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
  std::unordered_map<std::uint64_t,
                     std::vector<siot::trust::TaskExperience>>
      records_;
};

/// A sealed snapshot-backed search over a mean-degree-24 community graph
/// with 5 records per agent, shared by every method at one size.
struct SearchWorld {
  siot::graph::Graph graph;
  siot::trust::TaskCatalog catalog;
  std::unique_ptr<SparseRecordOverlay> overlay;
  std::unique_ptr<siot::trust::TrustOverlaySnapshot> snapshot;
  std::unique_ptr<siot::trust::TransitivitySearch> search;
};

const SearchWorld& GetSearchWorld(std::size_t agents) {
  static std::map<std::size_t, std::unique_ptr<SearchWorld>> worlds;
  auto& world = worlds[agents];
  if (world != nullptr) return *world;
  constexpr std::size_t kMeanDegree = 24;
  siot::graph::CommunityGraphParams params;
  params.node_count = agents;
  params.community_count = std::max<std::size_t>(agents / 40, 1);
  params.min_community_size = 8;
  params.p_intra = 0.5;
  params.shortcut_bridges = agents / 10;
  params.target_edge_count = agents * kMeanDegree / 2;
  siot::Rng rng(agents);
  auto generated = siot::graph::GenerateCommunityGraph(params, rng);
  SIOT_CHECK(generated.ok());
  world = std::make_unique<SearchWorld>();
  world->graph = std::move(generated.value().graph);
  for (std::size_t j = 0; j < kTasks; ++j) {
    SIOT_CHECK(world->catalog
                   .AddUniform("task" + std::to_string(j),
                               {static_cast<siot::trust::CharacteristicId>(j),
                                static_cast<siot::trust::CharacteristicId>(
                                    (j + 1) % kTasks)})
                   .ok());
  }
  world->overlay =
      std::make_unique<SparseRecordOverlay>(world->graph, kTasks, 5, rng);
  world->snapshot = std::make_unique<siot::trust::TrustOverlaySnapshot>(
      world->graph, *world->overlay);
  world->search = std::make_unique<siot::trust::TransitivitySearch>(
      *world->snapshot, world->catalog, siot::trust::TransitivityParams{});
  world->search->PrepareTasks({0, 1, 2});
  world->search->Seal();
  return *world;
}

/// One transitivity search per iteration against a sealed snapshot, with
/// the default (served) parameters; trustors and tasks cycle. Args:
/// agents, §4.3 method (0 traditional, 1 conservative, 2 aggressive).
void BM_TransitiveSearch(benchmark::State& state) {
  const auto agents = static_cast<std::size_t>(state.range(0));
  const auto method =
      static_cast<siot::trust::TransitivityMethod>(state.range(1));
  const SearchWorld& world = GetSearchWorld(agents);
  std::size_t query = 0;
  double inquired = 0;
  for (auto _ : state) {
    const auto trustor =
        static_cast<siot::trust::AgentId>((query * 7919) % agents);
    const auto& task =
        world.catalog.Get(static_cast<siot::trust::TaskId>(query % kTasks));
    ++query;
    const auto result =
        world.search->FindPotentialTrustees(trustor, task, method);
    inquired += static_cast<double>(result.inquired_nodes);
    benchmark::DoNotOptimize(result.trustees.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["inquired_nodes"] =
      benchmark::Counter(inquired, benchmark::Counter::kAvgIterations);
  state.SetLabel(std::string(siot::trust::TransitivityMethodName(method)));
}

/// Full runs measure the two honest sizes; quick mode registers smaller
/// sizes under their own names rather than clamping these.
void TransitiveSearchArgs(benchmark::internal::Benchmark* bench) {
  const std::vector<std::int64_t> sizes =
      siot::bench::QuickMode() ? std::vector<std::int64_t>{256, 1024}
                               : std::vector<std::int64_t>{2048, 16384};
  for (const std::int64_t agents : sizes) {
    for (std::int64_t method = 0; method < 3; ++method) {
      bench->Args({agents, method});
    }
  }
}
BENCHMARK(BM_TransitiveSearch)
    ->Apply(TransitiveSearchArgs)
    ->Unit(benchmark::kMicrosecond);

void PrintReproduction() {
  siot::bench::PrintBanner(
      "Overlay snapshots",
      "follower-served transitive reads: build cost vs graph size");
  siot::TextTable table("BuildOverlaySnapshot cost (follower of a "
                        "4-shard leader, ring graph, 3 prepared tasks)");
  table.SetHeader({"agents", "directed edges", "assembly ms",
                   "build ms", "snapshot bytes"});
  std::vector<std::size_t> sizes = {256, 1024, 4096};
  if (siot::bench::QuickMode()) sizes = {128, 256};
  for (const std::size_t size : sizes) {
    const auto agents = static_cast<siot::trust::AgentId>(size);
    const LoadedFollower follower(agents, 4, RingGraph(agents));
    const auto start = std::chrono::steady_clock::now();
    SIOT_CHECK(follower->BuildOverlaySnapshot().ok());
    const double build_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    const siot::service::OverlaySnapshotInfo info = follower->OverlayInfo();
    const auto snapshot = follower->CurrentOverlaySnapshot();
    table.AddRow({std::to_string(size),
                  std::to_string(info.directed_edge_count),
                  std::to_string(info.last_assembly_cost.count()),
                  siot::FormatDouble(build_ms, 2),
                  std::to_string(
                      siot::trust::SerializeOverlaySnapshot(*snapshot)
                          .size())});
  }
  std::fputs(table.Render().c_str(), stdout);
}

}  // namespace

SIOT_BENCH_MAIN(PrintReproduction)
