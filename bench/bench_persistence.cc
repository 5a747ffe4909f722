// Copyright 2026 The siot-trust Authors.
// Persistence microbenchmarks:
//   * WAL append throughput (records/s), fsync-per-append on and off —
//     the durability knob deployments trade against;
//   * recovery time vs store size, from a pure WAL replay and from a
//     checkpoint, at 1/2/8 shards;
//   * checkpoint encode and restore per codec, with the heap
//     allocations each makes per record and per shard;
//   * what inline checkpoints cost durable writers and a reader of the
//     same shard;
//   * CRC-32C throughput, which every frame and checkpoint pays.
// Results are summarized in README.md ("Durability").

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/checksum.h"
#include "common/file_util.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "service/checkpoint_codec.h"
#include "service/persistence.h"
#include "service/trust_service.h"
#include "service/wal_codec.h"

// ------------------------------------------------ allocation counting --
// This binary replaces the global operator new, so the checkpoint codec
// series can report the heap allocations a restore or an encode makes:
// memory as a number. Counting costs two relaxed atomic adds per
// allocation, in every series of the binary. Array and nothrow new reach
// this operator new; over-aligned new is not counted.

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

}  // namespace

// None of the three is inlined: g++ would otherwise see malloc or free
// at a call site, paired with the other side's operator, and warn of a
// mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using siot::service::PersistenceOptions;
using siot::service::ShardPersistence;
using siot::service::TrustService;
using siot::service::TrustServiceConfig;

using siot::bench::BenchDir;

TrustServiceConfig MakeConfig(std::size_t shards) {
  TrustServiceConfig config;
  config.shard_count = shards;
  config.engine.beta = siot::trust::ForgettingFactors::Uniform(0.2);
  return config;
}

/// Append throughput of one shard WAL; arg 0 = fsync per append.
void BM_WalAppend(benchmark::State& state) {
  const bool sync = state.range(0) != 0;
  const std::string dir = BenchDir("wal_append");
  PersistenceOptions options;
  options.directory = dir;
  ShardPersistence persist(&options, 0);
  siot::trust::TrustEngine engine(MakeConfig(1).engine);
  SIOT_CHECK(engine.catalog().AddUniform("sense", {0}).ok());
  SIOT_CHECK(persist.Recover(&engine).ok());
  const std::string op = siot::service::EncodeOutcomeOp(
      1, 2, 0, {true, 0.8, 0.0, 0.1}, false, {});
  const std::vector<std::string> batch{op};
  for (auto _ : state) {
    SIOT_CHECK(persist.Log(batch, sync).ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(sync ? "fsync-per-append" : "os-buffered");
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalAppend)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// Batched append (64 records per frame batch = one write + one fsync).
void BM_WalAppendBatch64(benchmark::State& state) {
  const bool sync = state.range(0) != 0;
  const std::string dir = BenchDir("wal_append_batch");
  PersistenceOptions options;
  options.directory = dir;
  ShardPersistence persist(&options, 0);
  siot::trust::TrustEngine engine(MakeConfig(1).engine);
  SIOT_CHECK(persist.Recover(&engine).ok());
  const std::vector<std::string> batch(
      64, siot::service::EncodeOutcomeOp(1, 2, 0, {true, 0.8, 0.0, 0.1},
                                         false, {}));
  for (auto _ : state) {
    SIOT_CHECK(persist.Log(batch, sync).ok());
  }
  state.SetItemsProcessed(state.iterations() * 64);
  state.SetLabel(sync ? "fsync-per-batch" : "os-buffered");
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalAppendBatch64)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

/// Builds a persisted service directory with `records` outcome records
/// spread over the shards; optionally compacted into checkpoints.
void BuildState(const std::string& dir, std::size_t shards,
                std::size_t records, bool checkpointed) {
  PersistenceOptions options;
  options.directory = dir;
  auto service =
      std::move(TrustService::Open(MakeConfig(shards), options)).value();
  SIOT_CHECK(service->RegisterTask("sense", {0}).ok());
  std::vector<siot::service::OutcomeReport> reports;
  for (std::size_t i = 0; i < records; ++i) {
    siot::service::OutcomeReport report;
    report.trustor = static_cast<siot::trust::AgentId>(i % 4096);
    report.trustee =
        static_cast<siot::trust::AgentId>(100000 + i / 4096);
    report.task = 0;
    report.outcome = {i % 3 != 0, 0.75, 0.125, 0.1};
    reports.push_back(report);
    if (reports.size() == 1024) {
      SIOT_CHECK(service->BatchReportOutcome(reports).ok());
      reports.clear();
    }
  }
  if (!reports.empty()) {
    SIOT_CHECK(service->BatchReportOutcome(reports).ok());
  }
  if (checkpointed) SIOT_CHECK(service->Checkpoint().ok());
}

/// Recovery wall time; args: records, shards, checkpointed.
void BM_Recovery(benchmark::State& state) {
  const auto records = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  const bool checkpointed = state.range(2) != 0;
  const std::string dir =
      BenchDir("recovery_" + std::to_string(records) + "_" +
               std::to_string(shards) + "_" +
               std::to_string(checkpointed ? 1 : 0));
  BuildState(dir, shards, records, checkpointed);
  PersistenceOptions options;
  options.directory = dir;
  std::size_t recovered_records = 0;
  for (auto _ : state) {
    auto service =
        std::move(TrustService::Open(MakeConfig(shards), options))
            .value();
    recovered_records = service->Stats().record_count;
    benchmark::DoNotOptimize(recovered_records);
  }
  SIOT_CHECK(recovered_records == records);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records));
  state.SetLabel(checkpointed ? "from-checkpoint" : "wal-replay");
  std::filesystem::remove_all(dir);
}

/// Full runs measure the sizes their names state. Quick mode (CI
/// bench-smoke) needs a comparable number per PR, not the full
/// 100k-record build, so it registers a 2000-record grid under its own
/// names rather than clamping these.
void RecoveryArgs(benchmark::internal::Benchmark* bench) {
  if (siot::bench::QuickMode()) {
    for (const std::int64_t shards : {1, 2, 8}) {
      bench->Args({2000, shards, 0})->Args({2000, shards, 1});
    }
  } else {
    bench->Args({10000, 1, 0})
        ->Args({10000, 1, 1})
        ->Args({10000, 2, 0})
        ->Args({10000, 2, 1})
        ->Args({10000, 8, 0})
        ->Args({10000, 8, 1})
        ->Args({100000, 8, 0})
        ->Args({100000, 8, 1});
  }
}
BENCHMARK(BM_Recovery)
    ->Apply(RecoveryArgs)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------- codec comparison --

/// One outcome op (2 intermediates) encoded with the chosen codec.
std::string EncodeBenchOp(bool binary) {
  const siot::trust::DelegationOutcome outcome{true, 0.8125, 0.0, 0.1};
  const std::vector<siot::trust::AgentId> intermediates{7, 9};
  return binary ? siot::service::EncodeOutcomeOpBinary(
                      1, 2, 0, outcome, false, intermediates)
                : siot::service::EncodeOutcomeOp(1, 2, 0, outcome, false,
                                                 intermediates);
}

/// Encode + append cost per op, text vs binary payloads (os-buffered:
/// isolates codec and frame cost from device latency). Arg 0 = binary.
void BM_WalAppendCodec(benchmark::State& state) {
  const bool binary = state.range(0) != 0;
  const std::string dir = BenchDir("wal_append_codec");
  PersistenceOptions options;
  options.directory = dir;
  ShardPersistence persist(&options, 0);
  siot::trust::TrustEngine engine(MakeConfig(1).engine);
  SIOT_CHECK(persist.Recover(&engine).ok());
  for (auto _ : state) {
    SIOT_CHECK(persist.Log({EncodeBenchOp(binary)}, /*sync=*/false).ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["payload_bytes"] =
      static_cast<double>(EncodeBenchOp(binary).size());
  state.SetLabel(binary ? "binary-v2" : "text-v1");
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalAppendCodec)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// Recovery replay of a single-shard WAL written entirely in one codec:
/// decode + apply throughput, the read side of the text-vs-binary trade.
/// Args: records, binary.
void BM_WalReplayCodec(benchmark::State& state) {
  const auto records = static_cast<std::size_t>(state.range(0));
  const bool binary = state.range(1) != 0;
  const std::string dir = BenchDir("wal_replay_codec");
  PersistenceOptions options;
  options.directory = dir;
  std::uint64_t wal_bytes = 0;
  {
    ShardPersistence persist(&options, 0);
    siot::trust::TrustEngine engine(MakeConfig(1).engine);
    SIOT_CHECK(persist.Recover(&engine).ok());
    const std::string task_op =
        binary ? siot::service::EncodeTaskOpBinary("sense", {0})
               : siot::service::EncodeTaskOp("sense", {0});
    SIOT_CHECK(persist.Log({task_op}, /*sync=*/false).ok());
    const std::vector<std::string> batch(1000, EncodeBenchOp(binary));
    for (std::size_t logged = 0; logged < records; logged += 1000) {
      SIOT_CHECK(persist.Log(batch, /*sync=*/false).ok());
    }
    wal_bytes = persist.wal_bytes();
  }
  for (auto _ : state) {
    ShardPersistence persist(&options, 0);
    siot::trust::TrustEngine engine(MakeConfig(1).engine);
    SIOT_CHECK(persist.Recover(&engine).ok());
    benchmark::DoNotOptimize(engine);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records));
  state.counters["wal_bytes"] = static_cast<double>(wal_bytes);
  state.SetLabel(binary ? "binary-v2" : "text-v1");
  std::filesystem::remove_all(dir);
}

/// Both codecs at one record count: the full size, or quick mode's own.
void CodecArgs(benchmark::internal::Benchmark* bench, std::int64_t full) {
  const std::int64_t records = siot::bench::QuickMode() ? 2000 : full;
  bench->Args({records, 0})->Args({records, 1});
}
BENCHMARK(BM_WalReplayCodec)
    ->Apply([](benchmark::internal::Benchmark* b) { CodecArgs(b, 20000); })
    ->Unit(benchmark::kMillisecond);

/// Heap allocations counted from construction to Report.
class AllocationCounter {
 public:
  AllocationCounter()
      : allocations_(g_allocations.load(std::memory_order_relaxed)),
        bytes_(g_allocated_bytes.load(std::memory_order_relaxed)) {}

  /// Sets per-shard (one shard per iteration) and per-record counters
  /// from the allocations since construction.
  void Report(benchmark::State& state, std::size_t records) const {
    const auto allocations = static_cast<double>(
        g_allocations.load(std::memory_order_relaxed) - allocations_);
    const auto bytes = static_cast<double>(
        g_allocated_bytes.load(std::memory_order_relaxed) - bytes_);
    const auto shards = static_cast<double>(state.iterations());
    const double per_record = shards * static_cast<double>(records);
    state.counters["allocs_per_shard"] = allocations / shards;
    state.counters["allocs_per_record"] = allocations / per_record;
    state.counters["alloc_bytes_per_record"] = bytes / per_record;
  }

 private:
  std::uint64_t allocations_;
  std::uint64_t bytes_;
};

/// A single-shard engine of `records` one-task records, 4096 trustors
/// deep: the state both checkpoint codec series encode or restore.
siot::trust::TrustEngine CodecEngine(std::size_t records) {
  siot::trust::TrustEngine engine(MakeConfig(1).engine);
  SIOT_CHECK(engine.catalog().AddUniform("sense", {0}).ok());
  for (std::size_t i = 0; i < records; ++i) {
    engine.ReportOutcome(static_cast<siot::trust::AgentId>(i % 4096),
                         static_cast<siot::trust::AgentId>(100000 +
                                                           i / 4096),
                         0, {i % 3 != 0, 0.75, 0.125, 0.1}, false);
  }
  return engine;
}

std::string EncodeCodec(std::size_t records, bool binary,
                        const siot::trust::TrustEngine& engine) {
  return binary ? siot::service::EncodeCheckpointBinary(records, engine,
                                                        nullptr)
                : siot::service::EncodeCheckpointText(records, engine);
}

/// Checkpoint restore wall time, text v1 vs binary v2 encodings of the
/// SAME engine state (single shard). This is the restore-side win the
/// binary checkpoint format is gated on: decode replaces the text
/// parser's line splitting and %.17g double parsing with fixed-stride
/// reads of raw IEEE bits. Each iteration restores one shard from its
/// file; the allocation counters cover the whole restore, file read
/// included. Args: records, binary.
void BM_CheckpointRestoreCodec(benchmark::State& state) {
  const auto records = static_cast<std::size_t>(state.range(0));
  const bool binary = state.range(1) != 0;
  const std::string dir = BenchDir("ckpt_restore_codec");
  const TrustServiceConfig config = MakeConfig(1);
  const std::string bytes = EncodeCodec(records, binary,
                                        CodecEngine(records));
  SIOT_CHECK(siot::WriteFileAtomic(
                 siot::service::ShardCheckpointPath(dir, 0), bytes)
                 .ok());
  PersistenceOptions options;
  options.directory = dir;
  const AllocationCounter allocations;
  for (auto _ : state) {
    ShardPersistence persist(&options, 0);
    siot::trust::TrustEngine loaded(config.engine);
    SIOT_CHECK(persist.Recover(&loaded).ok());
    // Validate in-loop: a restore that silently drops records would
    // otherwise make the fast path look even faster.
    SIOT_CHECK(loaded.store().size() == records);
    benchmark::DoNotOptimize(loaded);
  }
  allocations.Report(state, records);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records));
  state.counters["ckpt_bytes"] = static_cast<double>(bytes.size());
  state.SetLabel(binary ? "binary-v2" : "text-v1");
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CheckpointRestoreCodec)
    ->Apply([](benchmark::internal::Benchmark* b) { CodecArgs(b, 100000); })
    ->Unit(benchmark::kMillisecond);

/// Checkpoint encode wall time of the same single-shard state, per codec:
/// the cost every checkpoint pays before its write, on the service's
/// checkpointer thread. Args: records, binary.
void BM_CheckpointEncodeCodec(benchmark::State& state) {
  const auto records = static_cast<std::size_t>(state.range(0));
  const bool binary = state.range(1) != 0;
  const siot::trust::TrustEngine engine = CodecEngine(records);
  std::size_t ckpt_bytes = 0;
  const AllocationCounter allocations;
  for (auto _ : state) {
    const std::string bytes = EncodeCodec(records, binary, engine);
    ckpt_bytes = bytes.size();
    benchmark::DoNotOptimize(bytes.data());
  }
  allocations.Report(state, records);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records));
  state.counters["ckpt_bytes"] = static_cast<double>(ckpt_bytes);
  state.SetLabel(binary ? "binary-v2" : "text-v1");
}
BENCHMARK(BM_CheckpointEncodeCodec)
    ->Apply([](benchmark::internal::Benchmark* b) { CodecArgs(b, 100000); })
    ->Unit(benchmark::kMillisecond);

/// Durable single reports to one shard of `records` records, with an
/// inline checkpoint every 512 appends, while a second thread runs
/// PreEvaluate on the same shard: what checkpoints cost the serving
/// path. Items are the writer's reports (wall time). `reader_max_us` is
/// the reader's worst PreEvaluate latency: a reader waits for whatever
/// part of a checkpoint runs under the shard lock. `copy_ms` and
/// `encode_ms` time one engine copy (what the lock covers besides the
/// seal) and one binary encode (what the checkpointer does off it) of
/// the same shard. Args: records.
void BM_InlineCheckpointStall(benchmark::State& state) {
  constexpr std::size_t kEvery = 512;
  const auto records = static_cast<std::size_t>(state.range(0));
  const std::string dir = BenchDir("checkpoint_stall");
  PersistenceOptions options;
  options.directory = dir;
  options.sync_every_append = true;
  options.checkpoint_every_appends = kEvery;
  BuildState(dir, 1, records, /*checkpointed=*/true);
  auto service =
      std::move(TrustService::Open(MakeConfig(1), options)).value();
  SIOT_CHECK(service->Stats().record_count == records);

  std::atomic<bool> stop{false};
  double reader_max_us = 0;
  std::thread reader([&] {
    for (siot::trust::AgentId i = 0; !stop.load(); ++i) {
      const auto start = std::chrono::steady_clock::now();
      const auto tw = service->PreEvaluate(i % 4096, 100000, 0);
      const std::chrono::duration<double, std::micro> took =
          std::chrono::steady_clock::now() - start;
      SIOT_CHECK(tw.ok());
      reader_max_us = std::max(reader_max_us, took.count());
    }
  });
  siot::service::OutcomeReport report;
  report.task = 0;
  report.outcome = {true, 0.75, 0.125, 0.1};
  std::size_t i = 0;
  for (auto _ : state) {
    // Existing pairs only, so the shard keeps its size.
    report.trustor = static_cast<siot::trust::AgentId>(i % 4096);
    report.trustee = 100000;
    ++i;
    SIOT_CHECK(service->ReportOutcome(report).ok());
  }
  stop.store(true);
  reader.join();
  SIOT_CHECK(service->background_status().ok());

  // The engine is read while the checkpointer may still write its own
  // copy; no writer runs any more.
  const siot::trust::TrustEngine& engine = service->shard_engine(0);
  constexpr int kReps = 5;
  const auto copy_start = std::chrono::steady_clock::now();
  for (int r = 0; r < kReps; ++r) {
    const siot::trust::TrustEngine copy = engine;
    benchmark::DoNotOptimize(copy);
  }
  const auto encode_start = std::chrono::steady_clock::now();
  for (int r = 0; r < kReps; ++r) {
    const std::string bytes =
        siot::service::EncodeCheckpointBinary(1, engine, nullptr);
    benchmark::DoNotOptimize(bytes.data());
  }
  const auto encode_end = std::chrono::steady_clock::now();
  const std::chrono::duration<double, std::milli> copy_ms =
      encode_start - copy_start;
  const std::chrono::duration<double, std::milli> encode_ms =
      encode_end - encode_start;
  state.counters["reader_max_us"] = reader_max_us;
  state.counters["copy_ms"] = copy_ms.count() / kReps;
  state.counters["encode_ms"] = encode_ms.count() / kReps;
  state.SetItemsProcessed(state.iterations());
  service.reset();
  std::filesystem::remove_all(dir);
}
// Quick mode registers 2000 records under its own name; full runs
// measure e2ebench's shard size (10^5 records over 16 shards). A fixed
// iteration count makes every run take the same checkpoints (4 or 16).
BENCHMARK(BM_InlineCheckpointStall)
    ->Arg(siot::bench::QuickMode() ? 2000 : 6250)
    ->Iterations(siot::bench::QuickMode() ? 2048 : 8192)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------- checksum --

/// CRC-32C throughput over one buffer of the stated size (the JSON
/// reports bytes/s). Every WAL frame and checkpoint section is
/// checksummed on write and again on read. Args: bytes, kernel (0 = the
/// portable table loop, 1 = the kernel Crc32c dispatches to, SSE4.2 on
/// x86-64 CPUs that have it). The sizes are the same in quick mode.
void BM_Crc32c(benchmark::State& state) {
  const std::string buffer(static_cast<std::size_t>(state.range(0)), 'Z');
  const bool dispatched = state.range(1) != 0;
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = dispatched ? siot::Crc32c(buffer, crc)
                     : siot::internal::Crc32cPortable(buffer, crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(dispatched ? "dispatched" : "portable");
}
BENCHMARK(BM_Crc32c)
    ->ArgsProduct({{64, 4 << 10, 64 << 10, 1 << 20}, {0, 1}});

// --------------------------------------------- group commit scaling --

/// A flush device with a stable, serialized commit cost. Host fsync
/// latency on CI machines is bimodal (sub-µs when the page cache absorbs
/// the write, ~100µs+ when the device is hit) and ext4 already merges
/// concurrent per-file fsyncs in the journal, so raw fsync numbers make
/// the scaling series unreproducible. Modeling the device — every
/// durable commit costs ~10 ms (SD-card-class flash, the storage a SIoT
/// gateway actually has) and commits serialize — makes the series
/// deterministic: a single-shard report pays one commit PER CALL (its
/// inline fsync), a cross-shard batch one commit PER GROUP ROUND.
class SerializedFlushDevice {
 public:
  void Commit() {
    const siot::MutexLock guard(&mutex_);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

 private:
  siot::Mutex mutex_;
};
SerializedFlushDevice& FlushDevice() {
  static SerializedFlushDevice device;
  return device;
}

/// Durable report throughput at 1/2/8 concurrent writers on the modeled
/// device, for both sides of the flush rule. Arg 0: one ReportOutcome per
/// call, which fsyncs its shard inline. Arg 1: an 8-report cross-shard
/// batch per call, which pays one group-commit round. Items are reports.
/// In the single-report series, threads map to distinct shards, so it
/// measures flushes, not shard-lock contention.
void BM_DurableAppendScaling(benchmark::State& state) {
  constexpr std::size_t kShards = 8;
  const bool batched = state.range(0) != 0;
  static std::unique_ptr<TrustService> service;
  static std::string dir;
  if (state.thread_index() == 0) {
    dir = BenchDir("durable_scaling");
    PersistenceOptions options;
    options.directory = dir;
    options.sync_every_append = true;
    options.fault_hook = [](siot::service::PersistStage stage,
                            std::size_t) -> siot::Status {
      if (stage == siot::service::PersistStage::kWalBeforeSync ||
          stage == siot::service::PersistStage::kGroupCommitFlush) {
        FlushDevice().Commit();
      }
      return siot::Status::OK();
    };
    service =
        std::move(TrustService::Open(MakeConfig(kShards), options))
            .value();
    SIOT_CHECK(service->RegisterTask("sense", {0}).ok());
  }
  // Pure function of the thread index — no shared state to race on
  // before the loop barrier. A single report goes to the first trustor
  // routed to shard (thread_index mod kShards); a batch holds one report
  // for the first trustor past 1000 × (thread_index + 1) routed to each
  // shard.
  const auto first_trustor_on = [](std::size_t shard,
                                   siot::trust::AgentId from) {
    while (siot::service::ShardIndexForTrustor(from, kShards) != shard) {
      ++from;
    }
    return from;
  };
  const auto thread = static_cast<std::size_t>(state.thread_index());
  std::vector<siot::service::OutcomeReport> reports;
  for (std::size_t s = 0; s < (batched ? kShards : 1); ++s) {
    siot::service::OutcomeReport report;
    report.trustor =
        batched ? first_trustor_on(
                      s, static_cast<siot::trust::AgentId>(
                             1000 * (thread + 1)))
                : first_trustor_on(thread % kShards, 0);
    report.trustee = 100000 + static_cast<siot::trust::AgentId>(thread);
    report.task = 0;
    report.outcome = {true, 0.75, 0.125, 0.1};
    reports.push_back(report);
  }
  for (auto _ : state) {
    if (batched) {
      SIOT_CHECK(service->BatchReportOutcome(reports).ok());
    } else {
      SIOT_CHECK(service->ReportOutcome(reports[0]).ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(reports.size()));
  state.SetLabel(batched
                     ? "8-report cross-shard batch (modeled 10ms device)"
                     : "single report (modeled 10ms device)");
  if (state.thread_index() == 0) {
    const siot::service::TrustServiceStats stats = service->Stats();
    state.counters["fsyncs"] = static_cast<double>(stats.wal_fsyncs);
    state.counters["coalesced"] =
        static_cast<double>(stats.wal_syncs_coalesced);
    service.reset();
    std::filesystem::remove_all(dir);
  }
}
// UseRealTime: the modeled device SLEEPS, so CPU-time-based rates would
// flatter the serialized single-report baseline; wall time is the honest
// basis for the scaling ratio.
BENCHMARK(BM_DurableAppendScaling)
    ->Arg(0)
    ->Arg(1)
    ->Threads(1)
    ->Threads(2)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

// No paper artefact to reprint: these benches time the durable write
// path only.
SIOT_BENCH_MAIN([] {})
