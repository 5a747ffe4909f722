// Copyright 2026 The siot-trust Authors.
// TrustService: shard replication, batch semantics, and the load-bearing
// guarantee — a multi-threaded run over sharded state is equivalent to a
// single-threaded run of the same per-trustor operation sequences against
// one TrustEngine.

#include "service/trust_service.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace siot::service {
namespace {

using trust::AgentId;
using trust::DelegationOutcome;
using trust::DelegationRequestResult;
using trust::OutcomeEstimates;
using trust::TaskId;

TrustServiceConfig MakeConfig(std::size_t shards) {
  TrustServiceConfig config;
  config.shard_count = shards;
  config.engine.beta = trust::ForgettingFactors::Uniform(0.2);
  config.engine.initial_estimates = {0.5, 0.5, 0.5, 0.5};
  return config;
}

TEST(TrustServiceTest, RegisterTaskReplicatesIdenticalIds) {
  TrustService service(MakeConfig(5));
  const TaskId gps = service.RegisterTask("gps", {0}).value();
  const TaskId image = service.RegisterTask("image", {1}).value();
  EXPECT_EQ(gps, 0u);
  EXPECT_EQ(image, 1u);
  // Duplicate names are rejected and leave every replica unchanged.
  EXPECT_FALSE(service.RegisterTask("gps", {0}).ok());
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    EXPECT_EQ(service.shard_engine(s).catalog().size(), 2u);
    EXPECT_EQ(service.shard_engine(s).catalog().FindByName("image").value(),
              image);
  }
}

TEST(TrustServiceTest, ShardCountClampedToOne) {
  TrustService service(MakeConfig(0));
  EXPECT_EQ(service.shard_count(), 1u);
  EXPECT_LT(service.ShardOf(12345), 1u);
}

TEST(TrustServiceTest, SingleOpsMatchUnshardedEngine) {
  TrustService service(MakeConfig(4));
  trust::TrustEngine reference(MakeConfig(4).engine);
  const TaskId task = service.RegisterTask("gps", {0}).value();
  ASSERT_EQ(reference.catalog().AddUniform("gps", {0}).value(), task);

  for (AgentId trustor = 0; trustor < 16; ++trustor) {
    const DelegationOutcome outcome{trustor % 2 == 0, 0.8, 0.1, 0.1};
    ASSERT_TRUE(
        service.ReportOutcome({trustor, trustor + 100, task, outcome, {},
                               false})
            .ok());
    reference.ReportOutcome(trustor, trustor + 100, task, outcome);
  }
  for (AgentId trustor = 0; trustor < 16; ++trustor) {
    EXPECT_EQ(service.PreEvaluate(trustor, trustor + 100, task).value(),
              reference.PreEvaluate(trustor, trustor + 100, task));
    const DelegationServiceRequest request{
        trustor, task, {trustor + 100, trustor + 101}, std::nullopt};
    const DelegationRequestResult a =
        service.RequestDelegation(request).value();
    const DelegationRequestResult b = reference.RequestDelegation(
        trustor, task, request.candidates);
    EXPECT_EQ(a.trustee, b.trustee);
    EXPECT_EQ(a.trustworthiness, b.trustworthiness);
    EXPECT_EQ(a.expected_profit, b.expected_profit);
  }
  const TrustServiceStats stats = service.Stats();
  EXPECT_EQ(stats.record_count, reference.store().size());
  EXPECT_EQ(stats.outcome_reports, 16u);
  EXPECT_EQ(stats.pre_evaluations, 16u);
  EXPECT_EQ(stats.delegation_requests, 16u);
}

TEST(TrustServiceTest, BatchResultsComeBackInInputOrder) {
  TrustService service(MakeConfig(8));
  const TaskId task = service.RegisterTask("gps", {0}).value();
  std::vector<OutcomeReport> reports;
  for (AgentId trustor = 0; trustor < 64; ++trustor) {
    reports.push_back({trustor, trustor + 1, task,
                       DelegationOutcome{true, 0.9, 0.0, 0.1}, {}, false});
  }
  ASSERT_TRUE(service.BatchReportOutcome(reports).ok());

  std::vector<PreEvaluateRequest> queries;
  for (AgentId trustor = 0; trustor < 64; ++trustor) {
    queries.push_back({trustor, trustor + 1, task});
  }
  const std::vector<double> batch =
      service.BatchPreEvaluate(queries).value();
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch[i],
              service
                  .PreEvaluate(queries[i].trustor, queries[i].trustee,
                               queries[i].task)
                  .value())
        << "query " << i;
  }
}

TEST(TrustServiceTest, MalformedTaskIdsAreRejectedNotFatal) {
  // The engine treats unknown task ids as programming errors (SIOT_CHECK);
  // the serving boundary must instead reject them as bad requests — one
  // malformed request in a batch must not crash every shard or mutate any
  // state.
  TrustService service(MakeConfig(4));
  const TaskId task = service.RegisterTask("gps", {0}).value();
  EXPECT_TRUE(service.PreEvaluate(0, 1, trust::kNoTask).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(service.RequestDelegation({0, task + 1, {1}, std::nullopt})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      service.ReportOutcome({0, 1, trust::kNoTask, {}, {}, false})
          .IsInvalidArgument());
  // Agent ids are validated too: a client echoing the kNoAgent trustee of
  // an unavailable result back into a report must not mint a record for
  // the sentinel agent, and a kNoAgent candidate would make the result
  // sentinel ambiguous.
  EXPECT_TRUE(
      service.ReportOutcome({0, trust::kNoAgent, task, {}, {}, false})
          .IsInvalidArgument());
  EXPECT_TRUE(service.PreEvaluate(trust::kNoAgent, 1, task).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(service.RequestDelegation({0, task, {1, trust::kNoAgent},
                                         std::nullopt})
                  .status()
                  .IsInvalidArgument());
  // Batch rejection is atomic: the one bad report poisons the whole batch.
  std::vector<OutcomeReport> reports = {
      {0, 1, task, trust::DelegationOutcome{true, 0.5, 0.0, 0.1}, {}, false},
      {1, 2, task + 7, trust::DelegationOutcome{true, 0.5, 0.0, 0.1}, {},
       false}};
  EXPECT_TRUE(service.BatchReportOutcome(reports).IsInvalidArgument());
  EXPECT_EQ(service.Stats().record_count, 0u);
  EXPECT_EQ(service.Stats().outcome_reports, 0u);
  // The service keeps serving valid traffic afterwards.
  EXPECT_TRUE(service.ReportOutcome(reports[0]).ok());
  EXPECT_EQ(service.Stats().record_count, 1u);
}

TEST(TrustServiceTest, AdminStateReplicatesToEveryShard) {
  TrustService service(MakeConfig(6));
  const TaskId task = service.RegisterTask("gps", {0}).value();
  // An unknown trustor's reverse trustworthiness is 0.5; a 0.9 threshold
  // makes trustee 7 refuse every trustor, whichever shard serves it.
  service.SetReverseThreshold(7, trust::kNoTask, 0.9);
  for (AgentId trustor = 0; trustor < 24; ++trustor) {
    if (trustor == 7) continue;  // asking oneself is no_candidates
    const DelegationRequestResult result =
        service.RequestDelegation({trustor, task, {7}, std::nullopt})
            .value();
    EXPECT_TRUE(result.unavailable) << "trustor " << trustor;
    EXPECT_EQ(result.refusals, (std::vector<AgentId>{7}));
  }
  // Environment indicators reach every shard's engine.
  service.SetEnvironmentIndicator(3, 0.5);
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    EXPECT_EQ(service.shard_engine(s).environment().Indicator(3), 0.5);
  }
}

// ---------------------------------------------------------------------
// Concurrency stress: T threads hammer the batch APIs over disjoint
// trustor partitions; the final state and every delegation result must
// equal a single-threaded reference run against one unsharded TrustEngine.
// ---------------------------------------------------------------------

constexpr AgentId kAgents = 192;
constexpr std::size_t kRounds = 12;
constexpr std::uint64_t kSeed = 2026;

struct StressScript {
  std::vector<TaskId> tasks;

  static std::vector<AgentId> Candidates(AgentId trustor) {
    // Includes the trustor itself every fourth agent (must be skipped).
    std::vector<AgentId> candidates = {(trustor + 1) % kAgents,
                                       (trustor + 2) % kAgents,
                                       (trustor + 3) % kAgents};
    if (trustor % 4 == 0) candidates.push_back(trustor);
    return candidates;
  }

  DelegationServiceRequest Request(AgentId trustor, Rng& rng) const {
    DelegationServiceRequest request;
    request.trustor = trustor;
    request.task = tasks[rng.NextBounded(tasks.size())];
    request.candidates = Candidates(trustor);
    if (rng.NextBounded(3) == 0) {
      request.self_estimates = OutcomeEstimates{
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
    if (rng.NextBounded(4) == 0) {
      report.intermediates = {(request.trustor + 7) % kAgents};
    }
    report.trustor_was_abusive = rng.Bernoulli(0.2);
    return report;
  }
};

TEST(TrustServiceStressTest, ParallelBatchesMatchSingleThreadedReference) {
  const TrustServiceConfig config = MakeConfig(8);

  // Reference: one engine, one thread, trustors in order within each round.
  trust::TrustEngine reference(config.engine);
  StressScript script;
  script.tasks = {reference.catalog().AddUniform("gps", {0}).value(),
                  reference.catalog().AddUniform("image", {1}).value(),
                  reference.catalog().AddUniform("traffic", {0, 1}).value()};
  // Trustees at multiples of 7 refuse unknown trustors; agents at
  // multiples of 5 sit in a hostile environment.
  for (AgentId agent = 0; agent < kAgents; agent += 7) {
    reference.reverse_evaluator().SetThreshold(agent, trust::kNoTask, 0.8);
  }
  for (AgentId agent = 0; agent < kAgents; agent += 5) {
    reference.environment().SetIndicator(agent, 0.5);
  }
  std::vector<Rng> reference_streams;
  for (AgentId t = 0; t < kAgents; ++t) {
    reference_streams.push_back(DeriveStream(kSeed, t));
  }
  std::vector<std::vector<DelegationRequestResult>> expected(
      kAgents, std::vector<DelegationRequestResult>(kRounds));
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (AgentId t = 0; t < kAgents; ++t) {
      Rng& rng = reference_streams[t];
      const DelegationServiceRequest request = script.Request(t, rng);
      const DelegationRequestResult result = reference.RequestDelegation(
          request.trustor, request.task, request.candidates,
          request.self_estimates);
      expected[t][round] = result;
      const OutcomeReport report = script.Report(request, result, rng);
      reference.ReportOutcome(report.trustor, report.trustee, report.task,
                              report.outcome, report.trustor_was_abusive,
                              report.intermediates);
    }
  }

  // Service under test: 8 threads, disjoint trustor partitions, batch APIs.
  TrustService service(config);
  ASSERT_EQ(service.RegisterTask("gps", {0}).value(), script.tasks[0]);
  ASSERT_EQ(service.RegisterTask("image", {1}).value(), script.tasks[1]);
  ASSERT_EQ(service.RegisterTask("traffic", {0, 1}).value(),
            script.tasks[2]);
  for (AgentId agent = 0; agent < kAgents; agent += 7) {
    service.SetReverseThreshold(agent, trust::kNoTask, 0.8);
  }
  for (AgentId agent = 0; agent < kAgents; agent += 5) {
    service.SetEnvironmentIndicator(agent, 0.5);
  }

  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<DelegationRequestResult>> actual(
      kAgents, std::vector<DelegationRequestResult>(kRounds));
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      // Worker w owns trustors [w * chunk, (w + 1) * chunk).
      const AgentId chunk = kAgents / kThreads;
      const AgentId begin = static_cast<AgentId>(w) * chunk;
      const AgentId end =
          w + 1 == kThreads ? kAgents : begin + chunk;
      std::vector<Rng> streams;
      for (AgentId t = begin; t < end; ++t) {
        streams.push_back(DeriveStream(kSeed, t));
      }
      for (std::size_t round = 0; round < kRounds; ++round) {
        std::vector<DelegationServiceRequest> requests;
        for (AgentId t = begin; t < end; ++t) {
          requests.push_back(script.Request(t, streams[t - begin]));
        }
        const std::vector<DelegationRequestResult> results =
            service.BatchRequestDelegation(requests).value();
        std::vector<OutcomeReport> reports;
        for (AgentId t = begin; t < end; ++t) {
          actual[t][round] = results[t - begin];
          reports.push_back(script.Report(requests[t - begin],
                                          results[t - begin],
                                          streams[t - begin]));
        }
        // EXPECT (not ASSERT): gtest fatal assertions must not run off the
        // main thread.
        EXPECT_TRUE(service.BatchReportOutcome(reports).ok());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Every delegation result equals the reference, bit for bit.
  for (AgentId t = 0; t < kAgents; ++t) {
    for (std::size_t round = 0; round < kRounds; ++round) {
      const DelegationRequestResult& a = expected[t][round];
      const DelegationRequestResult& b = actual[t][round];
      ASSERT_EQ(a.trustee, b.trustee) << "trustor " << t << " round "
                                      << round;
      EXPECT_EQ(a.no_candidates, b.no_candidates);
      EXPECT_EQ(a.unavailable, b.unavailable);
      EXPECT_EQ(a.self_execution, b.self_execution);
      EXPECT_EQ(a.trustworthiness, b.trustworthiness);
      EXPECT_EQ(a.expected_profit, b.expected_profit);
      EXPECT_EQ(a.refusals, b.refusals);
    }
  }

  // Final trust state equals the reference record for record.
  std::size_t service_records = 0;
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    service_records += service.shard_engine(s).store().size();
  }
  EXPECT_EQ(service_records, reference.store().size());
  for (const auto& [key, record] : reference.store().AllRecords()) {
    const auto& engine =
        service.shard_engine(service.ShardOf(key.trustor));
    const auto found = engine.store().Find(key.trustor, key.trustee,
                                           key.task);
    ASSERT_TRUE(found.has_value())
        << key.trustor << "→" << key.trustee << " task " << key.task;
    EXPECT_EQ(found->estimates, record.estimates);
    EXPECT_EQ(found->observations, record.observations);
  }
  const TrustServiceStats stats = service.Stats();
  EXPECT_EQ(stats.record_count, reference.store().size());
  EXPECT_EQ(stats.delegation_requests, kAgents * kRounds);
  EXPECT_EQ(stats.outcome_reports, kAgents * kRounds);
}

}  // namespace
}  // namespace siot::service
