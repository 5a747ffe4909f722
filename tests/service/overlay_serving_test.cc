// Copyright 2026 The siot-trust Authors.
// The follower-served transitive read path, service layer.
//
// What is proven here:
//
//   * the leader has no transitive read path (compile-time);
//   * a follower of a durable leader: build → query answers exactly
//     match the dense reference search over one unsharded engine fed the
//     same ops, the snapshot is stamped with the leader's WAL positions,
//     and the Status boundary rejects everything it should (no overlay
//     graph, an empty one, unbuilt, out-of-graph trustor, task registered
//     after the cut — until the next build picks it up);
//   * batch queries validate up front and reject atomically;
//   * concurrent builds never publish an older cut after a newer one;
//   * PROPERTY: under random write schedules and 1/2/8 shards, a
//     follower-built snapshot at applied_seq vector V serializes
//     byte-identically to a snapshot built from a single-threaded
//     reference engine fed the same ops (the sharded, replicated,
//     concurrently-tailed pipeline must change nothing);
//   * RACE (the TSan suite): 4 leader writer threads, a background WAL
//     tailer, a background snapshot rebuilder, and query threads all run
//     against each other; served version vectors must stay per-shard
//     monotone (a consistent cut can never go backwards), and the final
//     quiesced snapshot must still be byte-identical to the reference.
//     A rebuild that read per-shard applied_seq at different times
//     instead of under one simultaneous all-shard lock hold fails this
//     suite under TSan and the monotonicity check;
//   * four query threads sharing ONE sealed published search each get
//     exactly the serial answers (the search's per-thread scratch).

#include "service/overlay_serving.h"

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "service/replication.h"
#include "service/trust_service.h"
#include "sim/network_setup.h"
#include "tests/test_dir.h"
#include "tests/trust/transitivity_reference.h"
#include "trust/overlay_builder.h"
#include "trust/transitivity.h"
#include "trust/trust_engine.h"

namespace siot::service {
namespace {

using trust::AgentId;
using trust::TaskId;

constexpr std::chrono::milliseconds kAwaitTimeout{10000};

std::shared_ptr<const graph::Graph> RingGraph(AgentId agents) {
  graph::GraphBuilder builder(agents);
  for (AgentId t = 0; t < agents; ++t) {
    for (AgentId d = 1; d <= 3; ++d) {
      builder.AddEdge(t, (t + d) % agents);
    }
  }
  return std::make_shared<graph::Graph>(builder.Build());
}

TrustServiceConfig MakeConfig(std::size_t shards) {
  TrustServiceConfig config;
  config.shard_count = shards;
  config.engine.beta = trust::ForgettingFactors::Uniform(0.2);
  config.engine.initial_estimates = {0.5, 0.5, 0.5, 0.5};
  return config;
}

trust::TransitivityParams Params() {
  trust::TransitivityParams params;
  params.omega1 = 0.5;
  params.omega2 = 0.0;
  params.max_hops = 4;
  return params;
}

/// Deterministic reports for agents [0, agents), trustees within the
/// ring graph's neighborhood, varied by `round`.
std::vector<OutcomeReport> MakeBatch(AgentId agents, TaskId tasks,
                                     std::uint64_t round) {
  std::vector<OutcomeReport> reports;
  for (AgentId t = 0; t < agents; ++t) {
    OutcomeReport report;
    report.trustor = t;
    report.trustee = (t + 1 + (t + round) % 3) % agents;
    report.task = static_cast<TaskId>((t + round) % tasks);
    report.outcome.success = (t + round) % 3 != 0;
    report.outcome.gain = report.outcome.success ? 0.8 : 0.0;
    report.outcome.damage = report.outcome.success ? 0.0 : 0.4;
    report.outcome.cost = 0.1;
    report.trustor_was_abusive = (t + round) % 11 == 0;
    reports.push_back(report);
  }
  return reports;
}

void ApplyToEngine(trust::TrustEngine& engine,
                   const std::vector<OutcomeReport>& reports) {
  for (const OutcomeReport& report : reports) {
    engine.ReportOutcome(report.trustor, report.trustee, report.task,
                         report.outcome, report.trustor_was_abusive);
  }
}

void RegisterTasks(TaskId tasks, TrustService* service,
                   trust::TrustEngine* reference) {
  for (TaskId j = 0; j < tasks; ++j) {
    const std::string name = "task" + std::to_string(j);
    const std::vector<trust::CharacteristicId> chars = {
        static_cast<trust::CharacteristicId>(j % 2),
        static_cast<trust::CharacteristicId>(2 + j % 2)};
    if (service != nullptr) {
      const auto id = service->RegisterTask(name, chars);
      ASSERT_TRUE(id.ok());
      ASSERT_EQ(id.value(), j);
    }
    if (reference != nullptr) {
      const auto id = reference->catalog().AddUniform(name, chars);
      ASSERT_TRUE(id.ok());
      ASSERT_EQ(id.value(), j);
    }
  }
}

/// Follower of `dir` serving transitive reads over `graph`.
ReplicaOptions FollowerOptions(const std::string& dir,
                               std::shared_ptr<const graph::Graph> graph) {
  ReplicaOptions options;
  options.directory = dir;
  options.overlay_graph = std::move(graph);
  options.transitivity = Params();
  return options;
}

/// The overlay of one unsharded reference engine: every agent routes to
/// its one store.
trust::ShardedStoreOverlay ReferenceOverlay(
    const trust::TrustEngine& reference) {
  return trust::ShardedStoreOverlay(
      {&reference.store()}, reference.normalizer(),
      [](AgentId) { return std::size_t{0}; });
}

/// The version a follower quiesced at `positions` must stamp.
trust::SnapshotVersion VersionAt(
    const std::vector<ShardWalPosition>& positions) {
  trust::SnapshotVersion version;
  for (const ShardWalPosition& position : positions) {
    version.applied_seq.push_back(position.last_seq);
  }
  return version;
}

// The leader has no transitive read path: none of these calls compiles
// on it. TransitiveTrust holds for ReplicaService, so its false on
// TrustService means the call is missing there, not that the expression
// is malformed; the other two exist on neither role.
template <typename Role>
constexpr bool kServesTransitiveTrust =
    requires(const Role& role, const TransitiveTrustRequest& request) {
      role.TransitiveTrust(request);
    };
template <typename Role>
constexpr bool kRebuildsOverlaySnapshot = requires(Role& role) {
  role.RebuildOverlaySnapshot();
};
template <typename Role>
constexpr bool kEnablesTransitiveServing =
    requires(Role& role, std::shared_ptr<const graph::Graph> graph,
             trust::TransitivityParams params) {
      role.EnableTransitiveServing(graph, params);
    };
static_assert(kServesTransitiveTrust<ReplicaService> &&
              !kServesTransitiveTrust<TrustService>);
static_assert(!kRebuildsOverlaySnapshot<TrustService>);
static_assert(!kEnablesTransitiveServing<TrustService>);

// ------------------------------------------------- follower service --

// A follower of a 4-shard durable leader answers exactly what the dense
// reference search answers over one unsharded engine fed the same ops,
// and stamps its snapshot with the leader's WAL positions.
TEST(OverlayServingTest, SingleNodeQueriesMatchLiveSearch) {
  constexpr AgentId kAgents = 32;
  constexpr TaskId kTasks = 3;
  const std::string dir = MakeTestDir("queries");
  const TrustServiceConfig config = MakeConfig(4);
  PersistenceOptions options;
  options.directory = dir;
  auto leader = TrustService::Open(config, options).value();
  trust::TrustEngine reference(config.engine);
  RegisterTasks(kTasks, leader.get(), &reference);

  const auto graph = RingGraph(kAgents);
  auto follower =
      ReplicaService::Open(config, FollowerOptions(dir, graph)).value();
  for (std::uint64_t round = 0; round < 6; ++round) {
    const auto batch = MakeBatch(kAgents, kTasks, round);
    ASSERT_TRUE(leader->BatchReportOutcome(batch).ok());
    ApplyToEngine(reference, batch);
  }
  const std::vector<ShardWalPosition> positions = leader->WalPositions();
  ASSERT_TRUE(follower->AwaitPositions(positions, kAwaitTimeout).ok());
  ASSERT_TRUE(follower->BuildOverlaySnapshot().ok());

  const trust::ShardedStoreOverlay live_overlay = ReferenceOverlay(reference);
  const trust::ReferenceTransitivitySearch live(*graph, reference.catalog(),
                                                live_overlay, Params());
  for (const trust::TransitivityMethod method :
       {trust::TransitivityMethod::kTraditional,
        trust::TransitivityMethod::kConservative,
        trust::TransitivityMethod::kAggressive}) {
    for (AgentId trustor = 0; trustor < kAgents; trustor += 3) {
      for (TaskId task = 0; task < kTasks; ++task) {
        TransitiveTrustRequest request;
        request.trustor = trustor;
        request.task = task;
        request.method = method;
        const auto answer = follower->TransitiveTrust(request);
        ASSERT_TRUE(answer.ok());
        const auto want = live.FindPotentialTrustees(
            trustor, reference.catalog().Get(task), method);
        ASSERT_EQ(answer.value().result.trustees.size(),
                  want.trustees.size());
        for (std::size_t i = 0; i < want.trustees.size(); ++i) {
          EXPECT_EQ(answer.value().result.trustees[i].agent,
                    want.trustees[i].agent);
          EXPECT_EQ(answer.value().result.trustees[i].trustworthiness,
                    want.trustees[i].trustworthiness);
        }
      }
    }
  }
  const OverlaySnapshotInfo info = follower->OverlayInfo();
  EXPECT_TRUE(info.built);
  EXPECT_TRUE(info.version == VersionAt(positions));
  EXPECT_EQ(info.prepared_tasks, kTasks);
  EXPECT_EQ(info.node_count, kAgents);
  follower.reset();
  leader.reset();
  std::filesystem::remove_all(dir);
}

TEST(OverlayServingTest, StatusBoundary) {
  constexpr AgentId kAgents = 16;
  const std::string dir = MakeTestDir("boundary");
  const TrustServiceConfig config = MakeConfig(2);
  PersistenceOptions options;
  options.directory = dir;
  auto leader = TrustService::Open(config, options).value();
  RegisterTasks(2, leader.get(), nullptr);

  TransitiveTrustRequest request;
  request.trustor = 0;
  request.task = 0;

  // Without an overlay graph: both build and query refuse.
  {
    ReplicaOptions plain;
    plain.directory = dir;
    const auto follower = ReplicaService::Open(config, plain).value();
    EXPECT_EQ(follower->BuildOverlaySnapshot().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(follower->TransitiveTrust(request).status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(follower->BatchTransitiveTrust({&request, 1}).status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_FALSE(follower->OverlayInfo().built);
    EXPECT_EQ(follower->CurrentOverlaySnapshot(), nullptr);
  }

  auto follower =
      ReplicaService::Open(config, FollowerOptions(dir, RingGraph(kAgents)))
          .value();
  // Serving, but not built yet.
  EXPECT_EQ(follower->TransitiveTrust(request).status().code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(leader->BatchReportOutcome(MakeBatch(kAgents, 2, 0)).ok());
  ASSERT_TRUE(
      follower->AwaitPositions(leader->WalPositions(), kAwaitTimeout).ok());
  ASSERT_TRUE(follower->BuildOverlaySnapshot().ok());
  EXPECT_TRUE(follower->TransitiveTrust(request).ok());

  // Trustor outside the graph.
  TransitiveTrustRequest outside;
  outside.trustor = kAgents + 5;
  outside.task = 0;
  EXPECT_EQ(follower->TransitiveTrust(outside).status().code(),
            StatusCode::kInvalidArgument);

  // A task registered on the leader AFTER the cut stays invalid — even
  // once the follower has tailed it and serves it to direct reads — until
  // a build publishes a catalog that holds it: staleness is an error, not
  // a crash into unprepared caches.
  const auto late = leader->RegisterTask("late", {0});
  ASSERT_TRUE(late.ok());
  ASSERT_TRUE(
      follower->AwaitPositions(leader->WalPositions(), kAwaitTimeout).ok());
  EXPECT_TRUE(follower->PreEvaluate(0, 1, late.value()).ok());
  TransitiveTrustRequest stale;
  stale.trustor = 0;
  stale.task = late.value();
  EXPECT_EQ(follower->TransitiveTrust(stale).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(follower->BuildOverlaySnapshot().ok());
  EXPECT_TRUE(follower->TransitiveTrust(stale).ok());
  follower.reset();
  leader.reset();
  std::filesystem::remove_all(dir);
}

TEST(OverlayServingTest, EmptyOverlayGraphIsRejectedAtOpen) {
  const std::string dir = MakeTestDir("empty_graph");
  const TrustServiceConfig config = MakeConfig(2);
  PersistenceOptions options;
  options.directory = dir;
  auto leader = TrustService::Open(config, options).value();
  const auto empty =
      std::make_shared<const graph::Graph>(graph::GraphBuilder(0).Build());
  const auto follower =
      ReplicaService::Open(config, FollowerOptions(dir, empty));
  EXPECT_EQ(follower.status().code(), StatusCode::kInvalidArgument);
  leader.reset();
  std::filesystem::remove_all(dir);
}

TEST(OverlayServingTest, BatchRejectsAtomically) {
  constexpr AgentId kAgents = 16;
  const std::string dir = MakeTestDir("batch");
  const TrustServiceConfig config = MakeConfig(2);
  PersistenceOptions options;
  options.directory = dir;
  auto leader = TrustService::Open(config, options).value();
  RegisterTasks(2, leader.get(), nullptr);
  ASSERT_TRUE(leader->BatchReportOutcome(MakeBatch(kAgents, 2, 0)).ok());
  auto follower =
      ReplicaService::Open(config, FollowerOptions(dir, RingGraph(kAgents)))
          .value();
  ASSERT_TRUE(follower->BuildOverlaySnapshot().ok());

  std::vector<TransitiveTrustRequest> batch(3);
  batch[0].trustor = 0;
  batch[0].task = 0;
  batch[1].trustor = kAgents + 1;  // invalid
  batch[1].task = 0;
  batch[2].trustor = 1;
  batch[2].task = 1;
  const auto result = follower->BatchTransitiveTrust(batch);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("request 1"), std::string::npos)
      << result.status().message();

  batch[1].trustor = 2;
  const auto fixed = follower->BatchTransitiveTrust(batch);
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(fixed.value().size(), 3u);
  // All three answered from ONE snapshot: identical version stamps.
  EXPECT_TRUE(fixed.value()[0].version == fixed.value()[1].version);
  EXPECT_TRUE(fixed.value()[1].version == fixed.value()[2].version);
  follower.reset();
  leader.reset();
  std::filesystem::remove_all(dir);
}

TEST(OverlayServingTest, ConcurrentLeaderRebuildsNeverPublishBackwards) {
  // Several threads build a follower's snapshot while the leader writes
  // and the follower's tailer polls. Cut and publish are serialized, so
  // every thread's successive OverlayInfo() versions are componentwise
  // non-decreasing; an unserialized build could publish an older cut
  // after a newer one.
  constexpr AgentId kAgents = 1024;
  constexpr TaskId kTasks = 2;
  constexpr std::size_t kShards = 4;
  constexpr int kRebuilders = 4;
  constexpr int kRebuildsPerThread = 20;
  const std::string dir = MakeTestDir("rebuild_order");
  const TrustServiceConfig config = MakeConfig(kShards);
  PersistenceOptions options;
  options.directory = dir;
  options.sync_every_append = false;
  auto leader = TrustService::Open(config, options).value();
  RegisterTasks(kTasks, leader.get(), nullptr);
  ReplicaOptions replica_options = FollowerOptions(dir, RingGraph(kAgents));
  replica_options.poll_period = std::chrono::milliseconds(1);
  auto follower = ReplicaService::Open(config, replica_options).value();

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::uint64_t round = 0; !done.load(std::memory_order_acquire);
         ++round) {
      for (const OutcomeReport& report : MakeBatch(kAgents, kTasks, round)) {
        ASSERT_TRUE(leader->ReportOutcome(report).ok());
        if (done.load(std::memory_order_acquire)) return;
      }
    }
  });
  std::atomic<bool> monotone{true};
  // True when `seq` is componentwise >= `last`; then `last` = `seq`.
  const auto advance = [&](std::vector<std::uint64_t>& last,
                           const std::vector<std::uint64_t>& seq) {
    if (seq.size() != last.size()) {
      if (!seq.empty()) monotone.store(false);
      return;
    }
    for (std::size_t s = 0; s < kShards; ++s) {
      if (seq[s] < last[s]) monotone.store(false);
    }
    last = seq;
  };
  std::atomic<int> rebuilders_left{kRebuilders};
  std::vector<std::thread> threads;
  for (int r = 0; r < kRebuilders; ++r) {
    threads.emplace_back([&] {
      std::vector<std::uint64_t> last(kShards, 0);
      for (int i = 0; i < kRebuildsPerThread; ++i) {
        ASSERT_TRUE(follower->BuildOverlaySnapshot().ok());
        advance(last, follower->OverlayInfo().version.applied_seq);
      }
      rebuilders_left.fetch_sub(1);
    });
  }
  // Pure readers see every publish order the rebuilders produce.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      std::vector<std::uint64_t> last(kShards, 0);
      while (rebuilders_left.load() > 0) {
        advance(last, follower->OverlayInfo().version.applied_seq);
        std::this_thread::yield();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  done.store(true, std::memory_order_release);
  writer.join();
  EXPECT_TRUE(monotone.load())
      << "a build published an older cut after a newer one";
  follower.reset();
  leader.reset();
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------ property suite --

/// Follower snapshot at version V must serialize byte-identically to a
/// reference snapshot built from one unsharded engine replayed to V.
void RunEquivalenceSchedule(std::size_t shards, std::uint64_t seed) {
  constexpr AgentId kAgents = 24;
  constexpr TaskId kTasks = 3;
  const std::string dir =
      MakeTestDir("prop_" + std::to_string(shards) + "_" +
                  std::to_string(seed));
  const TrustServiceConfig config = MakeConfig(shards);
  PersistenceOptions options;
  options.directory = dir;
  options.checkpoint_every_appends = 16;  // exercise truncation mid-run
  auto leader = TrustService::Open(config, options).value();
  trust::TrustEngine reference(config.engine);
  RegisterTasks(kTasks, leader.get(), &reference);

  const auto graph = RingGraph(kAgents);
  auto replica =
      ReplicaService::Open(config, FollowerOptions(dir, graph)).value();

  Rng rng(seed);
  const std::size_t rounds = 3 + static_cast<std::size_t>(
                                     rng.UniformInt(0, 2));
  for (std::uint64_t round = 0; round < rounds; ++round) {
    // Random-size slice of a deterministic batch: schedules differ by
    // seed, the reference sees the identical ops.
    auto batch = MakeBatch(kAgents, kTasks, round * 31 + seed);
    batch.resize(static_cast<std::size_t>(
        rng.UniformInt(1, static_cast<std::int64_t>(batch.size()))));
    ASSERT_TRUE(leader->BatchReportOutcome(batch).ok());
    ApplyToEngine(reference, batch);

    const std::vector<ShardWalPosition> positions = leader->WalPositions();
    ASSERT_TRUE(replica->AwaitPositions(positions, kAwaitTimeout).ok());
    ASSERT_TRUE(replica->BuildOverlaySnapshot().ok());

    const trust::SnapshotVersion version = VersionAt(positions);
    const auto follower_snapshot = replica->CurrentOverlaySnapshot();
    ASSERT_NE(follower_snapshot, nullptr);
    ASSERT_TRUE(follower_snapshot->version() == version)
        << "follower quiesced at the leader's positions, so the frozen "
           "vector must equal them";
    const trust::VersionedOverlaySnapshot reference_snapshot(
        graph, reference.catalog(), ReferenceOverlay(reference), version);
    EXPECT_EQ(trust::SerializeOverlaySnapshot(*follower_snapshot),
              trust::SerializeOverlaySnapshot(reference_snapshot))
        << "shards=" << shards << " seed=" << seed << " round=" << round;
  }
  replica.reset();
  leader.reset();
  std::filesystem::remove_all(dir);
}

TEST(OverlayEquivalencePropertyTest, FollowerSnapshotMatchesReference) {
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      RunEquivalenceSchedule(shards, seed);
    }
  }
}

// ----------------------------------------------------------- race suite --

// Satellite bug under test: a rebuild that reads each shard's
// applied_seq at a different time can stamp a version vector no single
// moment was in (the tailer applies admin ops shard 0 first, data ops
// per shard). Freezing ALL shard read locks simultaneously is the fix;
// this suite races everything against everything to let TSan see any
// unlocked overlap, and checks served versions never regress.
TEST(OverlayRaceTest, WritersTailerRebuilderAndQueriesRace) {
  constexpr AgentId kAgents = 32;
  constexpr TaskId kTasks = 2;
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kWriters = 4;
  constexpr std::uint64_t kBatchesPerWriter = 12;

  const std::string dir = MakeTestDir("race");
  const TrustServiceConfig config = MakeConfig(kShards);
  PersistenceOptions options;
  options.directory = dir;
  options.checkpoint_every_appends = 32;
  auto leader = TrustService::Open(config, options).value();
  trust::TrustEngine reference(config.engine);
  RegisterTasks(kTasks, leader.get(), &reference);

  const auto graph = RingGraph(kAgents);
  ReplicaOptions replica_options = FollowerOptions(dir, graph);
  replica_options.poll_period = std::chrono::milliseconds(1);
  replica_options.snapshot_rebuild_period = std::chrono::milliseconds(2);
  auto replica = ReplicaService::Open(config, replica_options).value();

  // Writer w owns trustors with t % kWriters == w: per-trustor op order
  // is each writer's program order, so the reference can replay
  // writer-by-writer afterwards.
  std::vector<std::vector<OutcomeReport>> per_writer(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    for (std::uint64_t round = 0; round < kBatchesPerWriter; ++round) {
      for (const OutcomeReport& report :
           MakeBatch(kAgents, kTasks, round * 7 + w)) {
        if (report.trustor % kWriters == w) {
          per_writer[w].push_back(report);
        }
      }
    }
  }

  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (const OutcomeReport& report : per_writer[w]) {
        ASSERT_TRUE(leader->ReportOutcome(report).ok());
      }
    });
  }

  // Query threads: hammer the served path while snapshots swap under
  // them; served version vectors must be per-shard monotone.
  std::vector<std::thread> readers;
  std::atomic<bool> monotone{true};
  for (std::size_t r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::vector<std::uint64_t> last(kShards, 0);
      TransitiveTrustRequest request;
      request.trustor = static_cast<AgentId>(r);
      request.task = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto answer = replica->TransitiveTrust(request);
        if (!answer.ok()) continue;  // no snapshot yet
        const auto& seq = answer.value().version.applied_seq;
        if (seq.size() != kShards) {
          monotone.store(false, std::memory_order_release);
          break;
        }
        for (std::size_t s = 0; s < kShards; ++s) {
          if (seq[s] < last[s]) {
            monotone.store(false, std::memory_order_release);
          }
          last[s] = seq[s];
        }
        std::this_thread::yield();
      }
    });
  }

  for (std::thread& writer : writers) writer.join();
  const std::vector<ShardWalPosition> positions = leader->WalPositions();
  ASSERT_TRUE(replica->AwaitPositions(positions, kAwaitTimeout).ok());
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_TRUE(monotone.load()) << "a served version vector regressed — "
                                  "the rebuild cut is not consistent";

  // Quiesced: one final explicit rebuild must match the reference.
  ASSERT_TRUE(replica->BuildOverlaySnapshot().ok());
  for (std::size_t w = 0; w < kWriters; ++w) {
    ApplyToEngine(reference, per_writer[w]);
  }
  const trust::SnapshotVersion version = VersionAt(positions);
  const auto follower_snapshot = replica->CurrentOverlaySnapshot();
  ASSERT_NE(follower_snapshot, nullptr);
  ASSERT_TRUE(follower_snapshot->version() == version);
  const trust::VersionedOverlaySnapshot reference_snapshot(
      graph, reference.catalog(), ReferenceOverlay(reference), version);
  EXPECT_EQ(trust::SerializeOverlaySnapshot(*follower_snapshot),
            trust::SerializeOverlaySnapshot(reference_snapshot));

  replica.reset();
  leader.reset();
  std::filesystem::remove_all(dir);
}

// Four threads query ONE sealed, published search. The per-thread scratch
// of the transitivity kernels must keep them apart: every thread's answers
// must equal a serial run, bit for bit.
TEST(OverlayRaceTest, QueryThreadsShareOneSealedSearch) {
  constexpr std::size_t kThreads = 4;
  graph::CommunityGraphParams graph_params;
  graph_params.node_count = 600;
  graph_params.community_count = 15;
  graph_params.min_community_size = 8;
  graph_params.shortcut_bridges = 60;
  graph_params.target_edge_count = 600 * 12 / 2;
  Rng rng(41);
  auto generated = graph::GenerateCommunityGraph(graph_params, rng);
  ASSERT_TRUE(generated.ok());
  const auto graph =
      std::make_shared<const graph::Graph>(std::move(generated->graph));
  const sim::SiotWorld world =
      sim::SiotWorld::BuildRandom(*graph, sim::WorldConfig{}, rng);

  trust::TransitivityParams params;
  params.omega1 = 0.6;
  params.omega2 = 0.3;
  params.max_hops = 5;
  OverlaySnapshotIndex index(graph, params);
  ASSERT_TRUE(index
                  .Publish(std::make_shared<const trust::VersionedOverlaySnapshot>(
                      graph, world.catalog(), world,
                      trust::SnapshotVersion{{1}}))
                  .ok());

  std::vector<TransitiveTrustRequest> requests;
  for (std::size_t i = 0; i < 90; ++i) {
    TransitiveTrustRequest request;
    request.trustor = static_cast<AgentId>(rng.NextBounded(600));
    request.task = world.SampleRequest(rng);
    request.method = static_cast<trust::TransitivityMethod>(i % 3);
    requests.push_back(request);
  }
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto same = [&bits](const trust::TransitivityResult& a,
                            const trust::TransitivityResult& b) {
    if (a.inquired_nodes != b.inquired_nodes ||
        a.trustees.size() != b.trustees.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.trustees.size(); ++i) {
      const auto& x = a.trustees[i];
      const auto& y = b.trustees[i];
      if (x.agent != y.agent ||
          bits(x.trustworthiness) != bits(y.trustworthiness) ||
          x.per_characteristic.size() != y.per_characteristic.size()) {
        return false;
      }
      for (std::size_t c = 0; c < x.per_characteristic.size(); ++c) {
        if (bits(x.per_characteristic[c]) != bits(y.per_characteristic[c])) {
          return false;
        }
      }
    }
    return true;
  };
  std::vector<trust::TransitivityResult> serial;
  for (const TransitiveTrustRequest& request : requests) {
    const auto answer = index.Query(request);
    ASSERT_TRUE(answer.ok());
    serial.push_back(answer->result);
  }

  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the requests from its own offset, so different
      // tasks and trustors overlap in time.
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const std::size_t k = (i + t * 23) % requests.size();
        const auto answer = index.Query(requests[k]);
        if (!answer.ok() || !same(answer->result, serial[k])) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches, std::vector<std::size_t>(kThreads, 0));
}

}  // namespace
}  // namespace siot::service
