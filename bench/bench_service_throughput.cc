// Copyright 2026 The siot-trust Authors.
// Service-throughput bench: the sharded TrustService under a mixed
// read/write delegation workload. Every trustor runs rounds of
//   BatchRequestDelegation (read) → BatchPreEvaluate (read) →
//   BatchReportOutcome (write)
// over its social-graph neighbors. The driver measures requests/sec at 1,
// 2, and 8 serving threads (trustor-partitioned, per-trustor RNG streams)
// and checks the 2- and 8-thread runs produce results identical to the
// single-threaded run — sharding by trustor makes the service
// deterministic under any thread count by construction. Wall-clock
// speedup is bounded by the machine's core count; the identity column is
// not. The BM_Engine* series time one TrustEngine alone — no validation,
// routing or shard lock — over requests built before the timed loop.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/table.h"
#include "graph/datasets.h"
#include "service/trust_service.h"
#include "trust/trust_engine.h"

// ------------------------------------------------ allocation counting --
// This binary replaces the global operator new, so the engine series can
// report the heap allocations one call makes (allocs_per_call). Counting
// costs one relaxed atomic add per allocation, in every series of the
// binary. Array and nothrow new reach this operator new; over-aligned new
// is not counted.

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// None of the three is inlined: g++ would otherwise see malloc or free
// at a call site, paired with the other side's operator, and warn of a
// mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace siot {
namespace {

using service::DelegationServiceRequest;
using service::OutcomeReport;
using service::PreEvaluateRequest;
using service::TrustService;
using trust::AgentId;
using trust::DelegationRequestResult;
using trust::TaskId;

constexpr std::uint64_t kSeed = 2026;
// Quick mode (CI bench-smoke) halves the rounds: the trend line wants a
// comparable cheap number per PR, not the full reproduction.
const std::size_t kRounds = bench::QuickMode() ? 2 : 4;
constexpr std::size_t kShards = 16;

// ------------------------------------------------------------ workload --

struct Workload {
  graph::SocialDataset dataset;
  std::vector<TaskId> tasks;

  static const Workload& Get() {
    static const Workload* workload = new Workload();
    return *workload;
  }

  std::size_t trustor_count() const { return dataset.graph.node_count(); }

  /// Deterministic per-trustor request mix; `rng` is the trustor's stream.
  DelegationServiceRequest Request(AgentId trustor, Rng& rng) const {
    DelegationServiceRequest request;
    request.trustor = trustor;
    request.task = tasks[rng.NextBounded(tasks.size())];
    const auto neighbors = dataset.graph.Neighbors(trustor);
    request.candidates.assign(neighbors.begin(), neighbors.end());
    if (rng.NextBounded(4) == 0) {
      request.self_estimates = trust::OutcomeEstimates{
          rng.NextDouble(), rng.NextDouble(), rng.NextDouble(),
          rng.NextDouble()};
    }
    return request;
  }

  OutcomeReport Report(const DelegationServiceRequest& request,
                       const DelegationRequestResult& result,
                       Rng& rng) const {
    OutcomeReport report;
    report.trustor = request.trustor;
    report.trustee = (result.trustee != trust::kNoAgent &&
                      !result.self_execution)
                         ? result.trustee
                         : request.candidates.front();
    report.task = request.task;
    report.outcome.success = rng.Bernoulli(0.7);
    report.outcome.gain = report.outcome.success ? rng.NextDouble() : 0.0;
    report.outcome.damage = report.outcome.success ? 0.0 : rng.NextDouble();
    report.outcome.cost = 0.25 * rng.NextDouble();
    report.trustor_was_abusive = rng.Bernoulli(0.1);
    return report;
  }

  static trust::TrustEngineConfig EngineConfig() {
    trust::TrustEngineConfig config;
    config.beta = trust::ForgettingFactors::Uniform(0.2);
    return config;
  }

  std::unique_ptr<TrustService> MakeService() const {
    service::TrustServiceConfig config;
    config.shard_count = kShards;
    config.engine = EngineConfig();
    auto service = std::make_unique<TrustService>(config);
    for (const auto& [name, characteristics] : kTaskTypes) {
      SIOT_CHECK(service->RegisterTask(name, characteristics).ok());
    }
    for (AgentId agent = 0; agent < trustor_count(); agent += 13) {
      service->SetReverseThreshold(agent, trust::kNoTask, 0.75);
    }
    return service;
  }

  /// One engine holding what every shard of MakeService's service holds.
  std::unique_ptr<trust::TrustEngine> MakeEngine() const {
    auto engine = std::make_unique<trust::TrustEngine>(EngineConfig());
    for (const auto& [name, characteristics] : kTaskTypes) {
      SIOT_CHECK(engine->catalog().AddUniform(name, characteristics).ok());
    }
    for (AgentId agent = 0; agent < trustor_count(); agent += 13) {
      engine->reverse_evaluator().SetThreshold(agent, trust::kNoTask, 0.75);
    }
    return engine;
  }

 private:
  inline static const std::vector<
      std::pair<std::string, std::vector<trust::CharacteristicId>>>
      kTaskTypes = {{"gps", {0}}, {"image", {1}}, {"traffic", {0, 1}}};

  Workload()
      : dataset(graph::LoadDataset(graph::SocialNetwork::kFacebook)) {
    tasks = {0, 1, 2};  // ids RegisterTask assigns in MakeService
  }
};

/// Per-trustor digest of everything a run produced — two runs are
/// identical iff their digest vectors match.
struct TrustorDigest {
  std::uint64_t trustee_sum = 0;
  std::uint64_t flags = 0;
  std::uint64_t value_bits = 0;
  bool operator==(const TrustorDigest&) const = default;
};

void FoldResult(const DelegationRequestResult& result, double pre_evaluated,
                TrustorDigest& digest) {
  digest.trustee_sum +=
      result.trustee == trust::kNoAgent ? 0xFFFFu : result.trustee;
  digest.flags = digest.flags * 31 +
                 (static_cast<std::uint64_t>(result.unavailable) << 2 |
                  static_cast<std::uint64_t>(result.self_execution) << 1 |
                  static_cast<std::uint64_t>(result.no_candidates));
  std::uint64_t bits = 0;
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::memcpy(&bits, &result.trustworthiness, sizeof(bits));
  digest.value_bits ^= bits;
  std::memcpy(&bits, &pre_evaluated, sizeof(bits));
  digest.value_bits ^= bits * 0x9E3779B97F4A7C15ull;
}

struct RunOutcome {
  double seconds = 0.0;
  std::size_t requests = 0;  ///< delegations + pre-evaluations + reports
  std::vector<TrustorDigest> digests;
  std::size_t record_count = 0;
};

/// Runs the full workload with `threads` serving threads over disjoint
/// trustor partitions, batch APIs only.
RunOutcome RunWorkload(std::size_t threads) {
  const Workload& workload = Workload::Get();
  const std::unique_ptr<TrustService> service_owner = workload.MakeService();
  TrustService& service = *service_owner;
  const std::size_t trustors = workload.trustor_count();
  RunOutcome outcome;
  outcome.digests.resize(trustors);
  std::atomic<std::size_t> requests{0};

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      const std::size_t chunk = trustors / threads;
      const std::size_t begin = w * chunk;
      const std::size_t end = w + 1 == threads ? trustors : begin + chunk;
      std::vector<Rng> streams;
      streams.reserve(end - begin);
      for (std::size_t t = begin; t < end; ++t) {
        streams.push_back(DeriveStream(kSeed, t));
      }
      std::size_t served = 0;
      for (std::size_t round = 0; round < kRounds; ++round) {
        std::vector<DelegationServiceRequest> delegations;
        std::vector<std::size_t> owners;  // trustor per request
        for (std::size_t t = begin; t < end; ++t) {
          DelegationServiceRequest request =
              workload.Request(static_cast<AgentId>(t), streams[t - begin]);
          if (request.candidates.empty()) continue;
          owners.push_back(t);
          delegations.push_back(std::move(request));
        }
        const std::vector<DelegationRequestResult> results =
            service.BatchRequestDelegation(delegations).value();

        std::vector<PreEvaluateRequest> queries;
        queries.reserve(delegations.size());
        for (std::size_t i = 0; i < delegations.size(); ++i) {
          queries.push_back({delegations[i].trustor,
                             delegations[i].candidates.front(),
                             delegations[i].task});
        }
        const std::vector<double> evaluations =
            service.BatchPreEvaluate(queries).value();

        std::vector<OutcomeReport> reports;
        reports.reserve(delegations.size());
        for (std::size_t i = 0; i < delegations.size(); ++i) {
          const std::size_t t = owners[i];
          FoldResult(results[i], evaluations[i], outcome.digests[t]);
          reports.push_back(workload.Report(delegations[i], results[i],
                                            streams[t - begin]));
        }
        SIOT_CHECK(service.BatchReportOutcome(reports).ok());
        served += 3 * delegations.size();
      }
      requests.fetch_add(served, std::memory_order_relaxed);
    });
  }
  for (std::thread& thread : pool) thread.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  outcome.seconds = std::chrono::duration<double>(elapsed).count();
  outcome.requests = requests.load();
  outcome.record_count = service.Stats().record_count;
  return outcome;
}

void PrintReproduction() {
  bench::PrintBanner(
      "Service throughput",
      "Sharded TrustService requests/sec under a mixed read/write "
      "delegation workload");
  const Workload& workload = Workload::Get();
  std::printf(
      "Facebook stand-in: %zu trustors, %zu shards, %zu rounds of "
      "delegate → pre-evaluate → report per trustor\n\n",
      workload.trustor_count(), kShards, kRounds);

  TextTable table("Mixed workload by serving threads (batch APIs)");
  table.SetHeader(
      {"threads", "requests", "ms", "req/s", "identical to 1-thread"});
  RunOutcome serial;
  const std::vector<std::size_t> thread_counts =
      bench::QuickMode() ? std::vector<std::size_t>{1, 2}
                         : std::vector<std::size_t>{1, 2, 8};
  for (const std::size_t threads : thread_counts) {
    const RunOutcome run = RunWorkload(threads);
    const bool identical =
        threads == 1 ||
        (run.digests == serial.digests &&
         run.record_count == serial.record_count);
    if (threads == 1) serial = run;
    table.AddRow({StrFormat("%zu", threads),
                  StrFormat("%zu", run.requests),
                  FormatDouble(run.seconds * 1e3, 1),
                  FormatDouble(static_cast<double>(run.requests) /
                                   run.seconds,
                               0),
                  threads == 1 ? "-" : (identical ? "yes" : "NO — BUG")});
  }
  std::fputs(table.Render().c_str(), stdout);
  std::printf(
      "hardware threads available: %u — wall-clock scaling is bounded by\n"
      "this; the identity column must read \"yes\" at every thread "
      "count.\n",
      std::thread::hardware_concurrency());
}

// ------------------------------------------------------------- kernels --

const TrustService& WarmService() {
  static const TrustService* service = [] {
    TrustService* warmed = Workload::Get().MakeService().release();
    std::vector<Rng> streams;
    const std::size_t trustors = Workload::Get().trustor_count();
    for (std::size_t t = 0; t < trustors; ++t) {
      streams.push_back(DeriveStream(kSeed, t));
    }
    for (std::size_t round = 0; round < 2; ++round) {
      for (std::size_t t = 0; t < trustors; ++t) {
        const DelegationServiceRequest request = Workload::Get().Request(
            static_cast<AgentId>(t), streams[t]);
        if (request.candidates.empty()) continue;
        const DelegationRequestResult result =
            warmed->RequestDelegation(request).value();
        SIOT_CHECK(
            warmed
                ->ReportOutcome(
                    Workload::Get().Report(request, result, streams[t]))
                .ok());
      }
    }
    return warmed;
  }();
  return *service;
}

void BM_ServicePreEvaluate(benchmark::State& state) {
  const TrustService& service = WarmService();
  const std::size_t trustors = Workload::Get().trustor_count();
  Rng rng(7);
  for (auto _ : state) {
    const auto t = static_cast<AgentId>(rng.NextBounded(trustors));
    const auto y = static_cast<AgentId>(rng.NextBounded(trustors));
    benchmark::DoNotOptimize(service.PreEvaluate(t, y, 0).value());
  }
}
BENCHMARK(BM_ServicePreEvaluate);

void BM_ServiceRequestDelegation(benchmark::State& state) {
  const TrustService& service = WarmService();
  const Workload& workload = Workload::Get();
  Rng rng(7);
  for (auto _ : state) {
    const auto t =
        static_cast<AgentId>(rng.NextBounded(workload.trustor_count()));
    Rng stream = DeriveStream(kSeed, t);
    benchmark::DoNotOptimize(
        service.RequestDelegation(workload.Request(t, stream)).value());
  }
}
BENCHMARK(BM_ServiceRequestDelegation);

void BM_ServiceBatchRequestDelegation(benchmark::State& state) {
  const TrustService& service = WarmService();
  const Workload& workload = Workload::Get();
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  std::vector<DelegationServiceRequest> requests;
  Rng rng(11);
  while (requests.size() < batch_size) {
    const auto t =
        static_cast<AgentId>(rng.NextBounded(workload.trustor_count()));
    Rng stream = DeriveStream(kSeed, t);
    DelegationServiceRequest request = workload.Request(t, stream);
    if (!request.candidates.empty()) requests.push_back(std::move(request));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        service.BatchRequestDelegation(requests).value());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_ServiceBatchRequestDelegation)->Arg(16)->Arg(256);

// ------------------------------------------------------ engine alone --

/// A TrustEngine warmed like WarmService's service, and 1024 non-empty
/// delegation requests drawn from the workload, built once.
struct EngineFixture {
  std::unique_ptr<trust::TrustEngine> engine;
  std::vector<DelegationServiceRequest> requests;

  static const EngineFixture& Get() {
    static const EngineFixture* fixture = new EngineFixture();
    return *fixture;
  }

 private:
  EngineFixture() : engine(Workload::Get().MakeEngine()) {
    const Workload& workload = Workload::Get();
    const std::size_t trustors = workload.trustor_count();
    std::vector<Rng> streams;
    for (std::size_t t = 0; t < trustors; ++t) {
      streams.push_back(DeriveStream(kSeed, t));
    }
    for (std::size_t round = 0; round < 2; ++round) {
      for (std::size_t t = 0; t < trustors; ++t) {
        const DelegationServiceRequest request =
            workload.Request(static_cast<AgentId>(t), streams[t]);
        if (request.candidates.empty()) continue;
        const DelegationRequestResult result = engine->RequestDelegation(
            request.trustor, request.task, request.candidates,
            request.self_estimates);
        const OutcomeReport report =
            workload.Report(request, result, streams[t]);
        engine->ReportOutcome(report.trustor, report.trustee, report.task,
                              report.outcome, report.trustor_was_abusive);
      }
    }
    Rng rng(7);
    while (requests.size() < 1024) {
      const auto t = static_cast<AgentId>(rng.NextBounded(trustors));
      Rng stream = DeriveStream(kSeed, t);
      DelegationServiceRequest request = workload.Request(t, stream);
      if (!request.candidates.empty()) requests.push_back(std::move(request));
    }
  }
};

/// Sets allocs_per_call from the allocations since construction.
class AllocationCounter {
 public:
  AllocationCounter()
      : allocations_(g_allocations.load(std::memory_order_relaxed)) {}

  void Report(benchmark::State& state, std::size_t calls) const {
    const auto allocations = static_cast<double>(
        g_allocations.load(std::memory_order_relaxed) - allocations_);
    state.counters["allocs_per_call"] =
        allocations / static_cast<double>(calls);
  }

 private:
  std::uint64_t allocations_;
};

void BM_EngineRequestDelegation(benchmark::State& state) {
  const EngineFixture& fixture = EngineFixture::Get();
  const std::vector<DelegationServiceRequest>& requests = fixture.requests;
  std::size_t next = 0;
  std::size_t candidates = 0;
  const AllocationCounter counter;
  for (auto _ : state) {
    const DelegationServiceRequest& request = requests[next];
    next = next + 1 == requests.size() ? 0 : next + 1;
    candidates += request.candidates.size();
    benchmark::DoNotOptimize(fixture.engine->RequestDelegation(
        request.trustor, request.task, request.candidates,
        request.self_estimates));
  }
  const auto calls = static_cast<std::size_t>(state.iterations());
  counter.Report(state, calls);
  state.counters["candidates_per_call"] =
      static_cast<double>(candidates) / static_cast<double>(calls);
}
BENCHMARK(BM_EngineRequestDelegation);

void BM_EngineEstimateOutcomes(benchmark::State& state) {
  const EngineFixture& fixture = EngineFixture::Get();
  struct Query {
    AgentId trustor;
    AgentId trustee;
    TaskId task;
  };
  std::vector<Query> queries;
  for (const DelegationServiceRequest& request : fixture.requests) {
    for (const AgentId candidate : request.candidates) {
      queries.push_back({request.trustor, candidate, request.task});
    }
  }
  std::size_t next = 0;
  const AllocationCounter counter;
  for (auto _ : state) {
    const Query& query = queries[next];
    next = next + 1 == queries.size() ? 0 : next + 1;
    benchmark::DoNotOptimize(fixture.engine->EstimateOutcomes(
        query.trustor, query.trustee, query.task));
  }
  counter.Report(state, static_cast<std::size_t>(state.iterations()));
}
BENCHMARK(BM_EngineEstimateOutcomes);

}  // namespace
}  // namespace siot

SIOT_BENCH_MAIN(siot::PrintReproduction)
