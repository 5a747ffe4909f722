// Copyright 2026 The siot-trust Authors.
// Replication microbenchmarks:
//   * follower catch-up throughput — records/s a fresh ReplicaService
//     replays while tailing a prebuilt leader directory, from a pure WAL
//     tail and from a checkpoint + tail;
//   * steady-state pipeline — leader batch append → follower poll, the
//     per-batch cost of staying caught up;
//   * idle poll cost — what a follower burns discovering there is
//     nothing new.
// The reproduction section shows per-round replication lag (seq + bytes)
// before and after each follower poll. Results are summarized in
// README.md ("Replication & failover").

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/file_util.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "common/table.h"
#include "service/persistence.h"
#include "service/replication.h"
#include "service/trust_service.h"
#include "service/wal_codec.h"

namespace {

using siot::service::OutcomeReport;
using siot::service::PersistenceOptions;
using siot::service::ReplicaOptions;
using siot::service::ReplicaService;
using siot::service::ShardReplicationLag;
using siot::service::TrustService;
using siot::service::TrustServiceConfig;

std::string BenchDir(const std::string& tag) {
  // Keyed by pid: a fixed path lets two concurrent bench runs (e.g. a
  // baseline and a candidate) truncate each other's WAL mid-tail.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("siot_bench_" + std::to_string(::getpid()) + "_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TrustServiceConfig MakeConfig(std::size_t shards) {
  TrustServiceConfig config;
  config.shard_count = shards;
  config.engine.beta = siot::trust::ForgettingFactors::Uniform(0.2);
  return config;
}

std::vector<OutcomeReport> MakeBatch(std::size_t base, std::size_t count) {
  std::vector<OutcomeReport> reports;
  reports.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    OutcomeReport report;
    report.trustor = static_cast<siot::trust::AgentId>((base + i) % 4096);
    report.trustee =
        static_cast<siot::trust::AgentId>(100000 + (base + i) / 4096);
    report.task = 0;
    report.outcome = {(base + i) % 3 != 0, 0.75, 0.125, 0.1};
    reports.push_back(report);
  }
  return reports;
}

/// Builds a leader directory with `records` outcome records; optionally
/// compacted into checkpoints (then the tail is empty and catch-up is
/// checkpoint-deserialize-bound instead of replay-bound).
void BuildLeaderState(const std::string& dir, std::size_t shards,
                      std::size_t records, bool checkpointed) {
  PersistenceOptions options;
  options.directory = dir;
  auto leader =
      std::move(TrustService::Open(MakeConfig(shards), options)).value();
  SIOT_CHECK(leader->RegisterTask("sense", {0}).ok());
  for (std::size_t base = 0; base < records; base += 1024) {
    SIOT_CHECK(leader
                   ->BatchReportOutcome(MakeBatch(
                       base, std::min<std::size_t>(1024, records - base)))
                   .ok());
  }
  if (checkpointed) SIOT_CHECK(leader->Checkpoint().ok());
}

/// Record count once the follower has tailed a static log to its end.
/// Open's initial poll may legitimately park on a retryable short/torn
/// read (the live-tailing contract is wait-and-re-poll, and a transient
/// short pread looks exactly like a leader mid-append); for a fully
/// written log one more poll resolves it, so drive polls until the
/// expected count lands. The caller's SIOT_CHECK stays the correctness
/// gate if the deadline passes with records still missing.
std::size_t CaughtUpRecordCount(ReplicaService& replica,
                                std::size_t expect) {
  std::size_t recovered = replica.Stats().record_count;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (recovered != expect &&
         std::chrono::steady_clock::now() < deadline) {
    SIOT_CHECK(replica.PollAll().ok());
    recovered = replica.Stats().record_count;
  }
  return recovered;
}

/// Catch-up throughput: open a follower over a prebuilt directory and
/// tail to the end. Args: records, shards, checkpointed.
void BM_ReplicaCatchUp(benchmark::State& state) {
  const auto records = siot::bench::QuickClamp(
      static_cast<std::size_t>(state.range(0)), 2000);
  const auto shards = static_cast<std::size_t>(state.range(1));
  const bool checkpointed = state.range(2) != 0;
  const std::string dir =
      BenchDir("replica_catchup_" + std::to_string(records) + "_" +
               std::to_string(shards) + "_" +
               std::to_string(checkpointed ? 1 : 0));
  BuildLeaderState(dir, shards, records, checkpointed);
  ReplicaOptions options;
  options.directory = dir;
  std::size_t recovered = 0;
  for (auto _ : state) {
    auto replica =
        std::move(ReplicaService::Open(MakeConfig(shards), options))
            .value();
    recovered = CaughtUpRecordCount(*replica, records);
    benchmark::DoNotOptimize(recovered);
  }
  SIOT_CHECK(recovered == records);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records));
  state.SetLabel(std::string(checkpointed ? "checkpoint+tail"
                                          : "wal-tail") +
                 (siot::bench::QuickMode() ? " (quick-clamped)" : ""));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ReplicaCatchUp)
    ->Args({10000, 1, 0})
    ->Args({10000, 1, 1})
    ->Args({10000, 4, 0})
    ->Args({10000, 4, 1})
    ->Args({50000, 4, 0})
    ->Unit(benchmark::kMillisecond);

/// Follower catch-up over a single-shard WAL written entirely in one
/// codec: the tailing decode path, text v1 vs binary v2 payloads (the
/// directory is built op by op through ShardPersistence so the ONLY
/// difference between the two series is the payload encoding). Arg 0 =
/// binary.
void BM_ReplicaCatchUpCodec(benchmark::State& state) {
  const bool binary = state.range(0) != 0;
  const std::size_t records = siot::bench::QuickClamp(20000, 2000);
  const std::string dir = BenchDir("replica_catchup_codec");
  const TrustServiceConfig config = MakeConfig(1);
  siot::service::PersistenceOptions options;
  options.directory = dir;
  SIOT_CHECK(siot::WriteFileAtomic(
                 siot::service::ManifestPath(dir),
                 siot::service::BuildServiceManifest(1, config))
                 .ok());
  std::uint64_t wal_bytes = 0;
  {
    siot::service::ShardPersistence persist(&options, 0);
    siot::trust::TrustEngine engine(config.engine);
    SIOT_CHECK(persist.Recover(&engine).ok());
    const std::string task_op =
        binary ? siot::service::EncodeTaskOpBinary("sense", {0})
               : siot::service::EncodeTaskOp("sense", {0});
    SIOT_CHECK(persist.Log({task_op}, /*sync=*/false).ok());
    // Distinct (trustor, trustee) per record — the store upserts on the
    // (trustor, trustee, task) triple, so reuse would collapse records
    // and break the recovered-count check below.
    for (std::size_t logged = 0; logged < records; logged += 1000) {
      std::vector<std::string> batch;
      batch.reserve(1000);
      for (std::size_t i = logged; i < logged + 1000; ++i) {
        const siot::trust::DelegationOutcome outcome{i % 3 != 0, 0.75,
                                                     0.125, 0.1};
        const auto trustor =
            static_cast<siot::trust::AgentId>(i % 4096);
        const auto trustee =
            static_cast<siot::trust::AgentId>(100000 + i / 4096);
        batch.push_back(binary
                            ? siot::service::EncodeOutcomeOpBinary(
                                  trustor, trustee, 0, outcome, false, {})
                            : siot::service::EncodeOutcomeOp(
                                  trustor, trustee, 0, outcome, false, {}));
      }
      SIOT_CHECK(persist.Log(batch, /*sync=*/false).ok());
    }
    wal_bytes = persist.wal_bytes();
  }
  ReplicaOptions replica_options;
  replica_options.directory = dir;
  std::size_t recovered = 0;
  for (auto _ : state) {
    auto replica =
        std::move(ReplicaService::Open(config, replica_options)).value();
    recovered = CaughtUpRecordCount(*replica, records);
    benchmark::DoNotOptimize(recovered);
  }
  SIOT_CHECK(recovered == records);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records));
  state.counters["wal_bytes"] = static_cast<double>(wal_bytes);
  state.SetLabel(std::string(binary ? "binary-v2" : "text-v1") +
                 (siot::bench::QuickMode() ? " (quick-clamped)" : ""));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ReplicaCatchUpCodec)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Follower cold start over a CHECKPOINTED leader: restore the shard
/// checkpoint — text v1 vs binary v2 of the same state — then replay
/// the binary WAL tail behind it. The records quick-clamp from 100k;
/// the tail stays a fixed 2k records so both series replay identical
/// tails and the delta is purely the checkpoint decode. Arg 0 = binary.
void BM_ReplicaCheckpointCatchUpCodec(benchmark::State& state) {
  const bool binary = state.range(0) != 0;
  const std::size_t records = siot::bench::QuickClamp(100000, 2000);
  const std::size_t tail = siot::bench::QuickClamp(2048, 256);
  const std::string dir = BenchDir("replica_ckpt_codec");
  const TrustServiceConfig config = MakeConfig(1);
  {
    PersistenceOptions options;
    options.directory = dir;
    auto leader = std::move(TrustService::Open(config, options)).value();
    SIOT_CHECK(leader->RegisterTask("sense", {0}).ok());
    for (std::size_t base = 0; base < records; base += 1024) {
      SIOT_CHECK(
          leader
              ->BatchReportOutcome(MakeBatch(
                  base, std::min<std::size_t>(1024, records - base)))
              .ok());
    }
    SIOT_CHECK(leader->Checkpoint().ok());
    if (!binary) {
      // The service writes only binary checkpoints; replace the one it
      // just wrote with the v1 text encoding of the same state and seq,
      // so both series replay the same WAL segments.
      SIOT_CHECK(siot::WriteFileAtomic(
                     siot::service::ShardCheckpointPath(dir, 0),
                     siot::service::EncodeCheckpointText(
                         leader->WalPositions()[0].last_seq,
                         leader->shard_engine(0)))
                     .ok());
    }
    for (std::size_t base = records; base < records + tail; base += 1024) {
      SIOT_CHECK(leader
                     ->BatchReportOutcome(MakeBatch(
                         base, std::min<std::size_t>(1024,
                                                     records + tail - base)))
                     .ok());
    }
  }
  ReplicaOptions replica_options;
  replica_options.directory = dir;
  for (auto _ : state) {
    auto replica =
        std::move(ReplicaService::Open(config, replica_options)).value();
    // Validate in-loop: a catch-up that silently drops records would
    // otherwise make the fast path look even faster.
    SIOT_CHECK(CaughtUpRecordCount(*replica, records + tail) ==
               records + tail);
    benchmark::DoNotOptimize(*replica);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records + tail));
  state.SetLabel(std::string(binary ? "binary-v2" : "text-v1") +
                 (siot::bench::QuickMode() ? " (quick-clamped)" : ""));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ReplicaCheckpointCatchUpCodec)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Steady-state pipeline: leader appends a 64-record batch, follower
/// polls it in. Items = records flowing leader→follower per second.
void BM_ReplicaPipeline64(benchmark::State& state) {
  const std::string dir = BenchDir("replica_pipeline");
  const TrustServiceConfig config = MakeConfig(4);
  PersistenceOptions options;
  options.directory = dir;
  auto leader = std::move(TrustService::Open(config, options)).value();
  SIOT_CHECK(leader->RegisterTask("sense", {0}).ok());
  ReplicaOptions replica_options;
  replica_options.directory = dir;
  auto replica =
      std::move(ReplicaService::Open(config, replica_options)).value();
  std::size_t base = 0;
  for (auto _ : state) {
    SIOT_CHECK(leader->BatchReportOutcome(MakeBatch(base, 64)).ok());
    base += 64;
    const auto polled = replica->PollAll();
    SIOT_CHECK(polled.ok() && polled.value() == 64);
  }
  state.SetItemsProcessed(state.iterations() * 64);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ReplicaPipeline64)->Unit(benchmark::kMicrosecond);

/// Idle poll: nothing new on disk. The follower's steady-state overhead
/// when the leader is quiet.
void BM_ReplicaIdlePoll(benchmark::State& state) {
  const std::string dir = BenchDir("replica_idle");
  const TrustServiceConfig config = MakeConfig(4);
  PersistenceOptions options;
  options.directory = dir;
  auto leader = std::move(TrustService::Open(config, options)).value();
  SIOT_CHECK(leader->RegisterTask("sense", {0}).ok());
  SIOT_CHECK(leader->BatchReportOutcome(MakeBatch(0, 256)).ok());
  ReplicaOptions replica_options;
  replica_options.directory = dir;
  auto replica =
      std::move(ReplicaService::Open(config, replica_options)).value();
  for (auto _ : state) {
    const auto polled = replica->PollAll();
    SIOT_CHECK(polled.ok() && polled.value() == 0);
  }
  state.SetItemsProcessed(state.iterations());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ReplicaIdlePoll)->Unit(benchmark::kMicrosecond);

void PrintReproduction() {
  siot::bench::PrintBanner(
      "Replication lag",
      "WAL-tailing follower: per-round seq/byte lag and catch-up time");
  const std::size_t rounds = siot::bench::QuickMode() ? 3 : 6;
  const std::size_t batch = siot::bench::QuickMode() ? 256 : 1024;
  const std::string dir = BenchDir("replica_repro");
  const TrustServiceConfig config = MakeConfig(4);
  PersistenceOptions options;
  options.directory = dir;
  auto leader = std::move(TrustService::Open(config, options)).value();
  SIOT_CHECK(leader->RegisterTask("sense", {0}).ok());
  ReplicaOptions replica_options;
  replica_options.directory = dir;
  auto replica =
      std::move(ReplicaService::Open(config, replica_options)).value();

  siot::TextTable table(siot::StrFormat(
      "Leader writes %zu records/round, follower polls after each "
      "(4 shards)",
      batch));
  table.SetHeader({"round", "seq lag before", "byte lag before",
                   "catch-up ms", "seq lag after"});
  for (std::size_t round = 0; round < rounds; ++round) {
    SIOT_CHECK(
        leader->BatchReportOutcome(MakeBatch(round * batch, batch)).ok());
    std::uint64_t seq_before = 0, bytes_before = 0;
    for (const ShardReplicationLag& lag : replica->ReplicationLag()) {
      seq_before += lag.seq_lag;
      bytes_before += lag.byte_lag;
    }
    const auto start = std::chrono::steady_clock::now();
    SIOT_CHECK(replica->PollAll().ok());
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    std::uint64_t seq_after = 0;
    for (const ShardReplicationLag& lag : replica->ReplicationLag()) {
      seq_after += lag.seq_lag;
    }
    table.AddRow({siot::StrFormat("%zu", round),
                  siot::StrFormat("%llu",
                                  static_cast<unsigned long long>(
                                      seq_before)),
                  siot::StrFormat("%llu",
                                  static_cast<unsigned long long>(
                                      bytes_before)),
                  siot::FormatDouble(ms, 2),
                  siot::StrFormat("%llu",
                                  static_cast<unsigned long long>(
                                      seq_after))});
  }
  std::fputs(table.Render().c_str(), stdout);
  std::printf(
      "follower state is byte-identical to the leader at every polled "
      "position (asserted continuously in tests/service/"
      "replication_test.cc).\n");
  std::filesystem::remove_all(dir);
}

}  // namespace

SIOT_BENCH_MAIN(PrintReproduction)
