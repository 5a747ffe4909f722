// Copyright 2026 The siot-trust Authors.
//
// siot_experiments — config-driven runner for the paper's experiments.
//
// Runs any of the §5 experiments with parameters overridden from
// key=value arguments or a config file, so sweeps beyond the paper's grid
// don't require recompilation:
//
//   siot_experiments experiment=mutuality network=facebook theta=0.45
//   siot_experiments experiment=transitivity characteristics=6 seed=7
//   siot_experiments experiment=delegation beta=0.8 iterations=5000
//   siot_experiments experiment=environment runs=200
//   siot_experiments experiment=serve shards=8 threads=4 rounds=2
//   siot_experiments experiment=persist shards=4 rounds=3 fsync=1
//   siot_experiments experiment=replicate shards=4 rounds=3
//   siot_experiments experiment=transit_serve shards=4 rounds=3 tasks=3
//   siot_experiments experiment=attack attack=onoff fractions=0.1,0.3
//   siot_experiments config=/path/to/file.cfg
//
// Prints the experiment's headline metrics as an aligned table and exits
// non-zero on configuration errors.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/table.h"
#include "graph/datasets.h"
#include "graph/graph.h"
#include "service/replication.h"
#include "service/trust_service.h"
#include "sim/adversary.h"
#include "sim/delegation_results_experiment.h"
#include "sim/environment_experiment.h"
#include "sim/mutuality_experiment.h"
#include "sim/transitivity_experiment.h"
#include "trust/overlay_builder.h"
#include "trust/transitivity.h"
#include "trust/trust_engine.h"
#include "trust/trust_store_io.h"

namespace siot {
namespace {

StatusOr<graph::SocialNetwork> ParseNetwork(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "facebook") return graph::SocialNetwork::kFacebook;
  if (lower == "google+" || lower == "googleplus" || lower == "gplus") {
    return graph::SocialNetwork::kGooglePlus;
  }
  if (lower == "twitter") return graph::SocialNetwork::kTwitter;
  return Status::InvalidArgument("unknown network '" + name +
                                 "' (facebook|google+|twitter)");
}

StatusOr<std::size_t> ParseThreads(const Config& config) {
  const std::int64_t threads = config.GetIntOr("threads", 1);
  // 0 means hardware concurrency; anything negative (or absurd) would be
  // cast to a huge std::size_t thread count for ParallelFor.
  if (threads < 0 || threads > 1024) {
    return Status::InvalidArgument(
        StrFormat("threads=%lld out of range [0, 1024]",
                  static_cast<long long>(threads)));
  }
  return static_cast<std::size_t>(threads);
}

// Reads a count option, `fallback` when absent. Negative values would be
// cast to huge std::size_t counts (the hazard ParseThreads guards for
// threads), so it is range-checked first.
StatusOr<std::size_t> ParseCount(const Config& config, const std::string& key,
                                 std::int64_t fallback, std::int64_t lo,
                                 std::int64_t hi) {
  const std::int64_t value = config.GetIntOr(key, fallback);
  if (value < lo || value > hi) {
    return Status::InvalidArgument(
        StrFormat("%s out of range [%lld, %lld]", key.c_str(),
                  static_cast<long long>(lo), static_cast<long long>(hi)));
  }
  return static_cast<std::size_t>(value);
}

// The directory of a durable `experiment` run: `dir=` when given, else
// <temp>/siot_<tag>_<seed>. The run needs a fresh directory (recovering
// pre-existing state would make its reference comparison meaningless), so
// the default is wiped; a user-named path is never deleted on our own
// initiative: a non-empty one needs an explicit wipe=1.
StatusOr<std::string> FreshRunDirectory(const Config& config,
                                        const std::string& experiment,
                                        const std::string& tag,
                                        std::uint64_t seed) {
  if (!config.Has("dir")) {
    const std::string dir = (std::filesystem::temp_directory_path() /
                             ("siot_" + tag + "_" + std::to_string(seed)))
                                .string();
    std::filesystem::remove_all(dir);
    return dir;
  }
  SIOT_ASSIGN_OR_RETURN(const std::string dir, config.GetString("dir"));
  if (std::filesystem::exists(dir) && !std::filesystem::is_empty(dir)) {
    if (!config.GetBoolOr("wipe", false)) {
      return Status::InvalidArgument(
          "dir=" + dir +
          " already exists and is not empty; pass wipe=1 to let the " +
          experiment + " experiment DELETE it and start fresh");
    }
    std::filesystem::remove_all(dir);
  }
  return dir;
}

// The synthetic outcome the service-level experiments report: success
// with probability 0.7 (gain 0.8, else damage 0.4; cost 0.1), and an
// abusive trustor with probability 0.1, drawn from `rng` in that order.
service::OutcomeReport SyntheticReport(trust::AgentId trustor,
                                       trust::AgentId trustee,
                                       trust::TaskId task, Rng& rng) {
  service::OutcomeReport report;
  report.trustor = trustor;
  report.trustee = trustee;
  report.task = task;
  report.outcome.success = rng.Bernoulli(0.7);
  report.outcome.gain = report.outcome.success ? 0.8 : 0.0;
  report.outcome.damage = report.outcome.success ? 0.0 : 0.4;
  report.outcome.cost = 0.1;
  report.trustor_was_abusive = rng.Bernoulli(0.1);
  return report;
}

Status RunMutuality(const Config& config) {
  SIOT_ASSIGN_OR_RETURN(
      const graph::SocialNetwork network,
      ParseNetwork(config.GetStringOr("network", "facebook")));
  const graph::SocialDataset dataset = graph::LoadDataset(network);
  sim::MutualityConfig mc;
  mc.seed = static_cast<std::uint64_t>(config.GetIntOr("seed", 2026));
  if (config.Has("theta")) {
    SIOT_ASSIGN_OR_RETURN(const double theta, config.GetDouble("theta"));
    mc.thetas = {theta};
  }
  mc.requests_per_trustor = static_cast<std::size_t>(
      config.GetIntOr("requests_per_trustor", 10));
  SIOT_ASSIGN_OR_RETURN(mc.threads, ParseThreads(config));
  const sim::MutualityResult result =
      sim::RunMutualityExperiment(dataset, mc);
  TextTable table(StrFormat("Mutuality (Fig. 7 setup) on %s",
                            std::string(graph::SocialNetworkName(network))
                                .c_str()));
  table.SetHeader({"theta", "success", "unavailable", "abuse"});
  for (const sim::MutualityPoint& point : result.points) {
    table.AddRow({FormatDouble(point.theta, 2),
                  FormatDouble(point.tally.success_rate(), 4),
                  FormatDouble(point.tally.unavailable_rate(), 4),
                  FormatDouble(point.tally.abuse_rate(), 4)});
  }
  std::fputs(table.Render().c_str(), stdout);
  return Status::OK();
}

Status RunTransitivity(const Config& config) {
  SIOT_ASSIGN_OR_RETURN(
      const graph::SocialNetwork network,
      ParseNetwork(config.GetStringOr("network", "facebook")));
  const graph::SocialDataset dataset = graph::LoadDataset(network);
  sim::TransitivityConfig tc;
  tc.seed = static_cast<std::uint64_t>(config.GetIntOr("seed", 2026));
  tc.world.characteristic_count = static_cast<std::size_t>(
      config.GetIntOr("characteristics", 5));
  tc.max_hops =
      static_cast<std::size_t>(config.GetIntOr("max_hops", 5));
  tc.omega1 = config.GetDoubleOr("omega1", 0.5);
  tc.omega2 = config.GetDoubleOr("omega2", 0.0);
  tc.requests_per_trustor = static_cast<std::size_t>(
      config.GetIntOr("requests_per_trustor", 3));
  tc.use_features = config.GetBoolOr("use_features", false);
  SIOT_ASSIGN_OR_RETURN(tc.threads, ParseThreads(config));
  const sim::TransitivityResult result =
      sim::RunTransitivityExperiment(dataset, tc);
  TextTable table(StrFormat(
      "Transitivity (Figs. 9-12 setup) on %s, %zu characteristics",
      std::string(graph::SocialNetworkName(network)).c_str(),
      tc.world.characteristic_count));
  table.SetHeader(
      {"method", "success", "unavailable", "avg trustees"});
  for (const auto& method : result.methods) {
    table.AddRow(
        {std::string(trust::TransitivityMethodName(method.method)),
         FormatDouble(method.tally.success_rate(), 4),
         FormatDouble(method.tally.unavailable_rate(), 4),
         FormatDouble(method.avg_potential_trustees, 2)});
  }
  std::fputs(table.Render().c_str(), stdout);
  return Status::OK();
}

Status RunDelegation(const Config& config) {
  SIOT_ASSIGN_OR_RETURN(
      const graph::SocialNetwork network,
      ParseNetwork(config.GetStringOr("network", "facebook")));
  const graph::SocialDataset dataset = graph::LoadDataset(network);
  sim::DelegationResultsConfig dc;
  dc.seed = static_cast<std::uint64_t>(config.GetIntOr("seed", 2026));
  dc.iterations =
      static_cast<std::size_t>(config.GetIntOr("iterations", 3000));
  dc.beta = config.GetDoubleOr("beta", 0.9);
  SIOT_ASSIGN_OR_RETURN(dc.threads, ParseThreads(config));
  const sim::DelegationResultsOutcome outcome =
      sim::RunDelegationResultsExperiment(dataset, dc);
  TextTable table(StrFormat(
      "Delegation results (Fig. 13 setup) on %s, beta=%.2f",
      std::string(graph::SocialNetworkName(network)).c_str(), dc.beta));
  table.SetHeader({"strategy", "final net profit"});
  for (const auto& strategy : outcome.strategies) {
    table.AddRow(
        {strategy.strategy == trust::SelectionStrategy::kMaxNetProfit
             ? "second (Eq. 23)"
             : "first (max success rate)",
         FormatDouble(strategy.final_profit, 4)});
  }
  std::fputs(table.Render().c_str(), stdout);
  return Status::OK();
}

Status RunEnvironment(const Config& config) {
  sim::EnvironmentTrackingConfig ec;
  ec.seed = static_cast<std::uint64_t>(config.GetIntOr("seed", 2026));
  ec.runs = static_cast<std::size_t>(config.GetIntOr("runs", 100));
  ec.beta = config.GetDoubleOr("beta", 0.9);
  ec.intrinsic_success_rate = config.GetDoubleOr("intrinsic", 0.8);
  const sim::EnvironmentTrackingResult result =
      sim::RunEnvironmentTrackingExperiment(ec);
  TextTable table("Environment tracking (Fig. 15 setup)");
  table.SetHeader(
      {"iteration", "expected", "no-env", "traditional", "proposed"});
  const std::size_t step =
      std::max<std::size_t>(result.iteration.size() / 10, 1);
  for (std::size_t t = 0; t < result.iteration.size(); t += step) {
    // Always include the final (converged) iteration Fig. 15 cares about.
    if (t + step >= result.iteration.size()) t = result.iteration.size() - 1;
    table.AddRow({FormatDouble(result.iteration[t], 0),
                  FormatDouble(result.expected[t], 3),
                  FormatDouble(result.no_environment[t], 3),
                  FormatDouble(result.traditional[t], 3),
                  FormatDouble(result.proposed[t], 3)});
  }
  std::fputs(table.Render().c_str(), stdout);
  return Status::OK();
}

// One serve-mode run: the trustors are cut into `threads` chunks, and
// ParallelFor runs one chunk per item, each driving delegation +
// outcome-report batches against a sharded TrustService over the
// dataset's neighbor lists, with a per-trustor RNG stream. Returns requests served, elapsed
// seconds, and an order-independent digest for the determinism check.
struct ServeRun {
  std::size_t requests = 0;
  double seconds = 0.0;
  std::uint64_t digest = 0;
  std::size_t records = 0;
};

ServeRun RunServeWorkload(const graph::SocialDataset& dataset,
                          std::size_t shards, std::size_t threads,
                          std::size_t rounds, std::uint64_t seed) {
  service::TrustServiceConfig sc;
  sc.shard_count = shards;
  sc.engine.beta = trust::ForgettingFactors::Uniform(0.2);
  service::TrustService svc(sc);
  const trust::TaskId task = svc.RegisterTask("sense", {0}).value();
  const std::size_t trustors = dataset.graph.node_count();
  for (trust::AgentId agent = 0; agent < trustors; agent += 13) {
    svc.SetReverseThreshold(agent, trust::kNoTask, 0.75);
  }

  std::vector<std::uint64_t> digests(trustors, 0);
  std::atomic<std::size_t> requests{0};
  const auto start = std::chrono::steady_clock::now();
  ParallelFor(threads, threads, [&](std::size_t w) {
    const std::size_t chunk = trustors / threads;
    const std::size_t begin = w * chunk;
    const std::size_t end = w + 1 == threads ? trustors : begin + chunk;
    std::vector<Rng> streams;
    for (std::size_t t = begin; t < end; ++t) {
      streams.push_back(DeriveStream(seed, t));
    }
    std::size_t served = 0;
    for (std::size_t round = 0; round < rounds; ++round) {
      std::vector<service::DelegationServiceRequest> batch;
      std::vector<std::size_t> owners;
      for (std::size_t t = begin; t < end; ++t) {
        const auto neighbors =
            dataset.graph.Neighbors(static_cast<graph::NodeId>(t));
        if (neighbors.empty()) continue;
        service::DelegationServiceRequest request;
        request.trustor = static_cast<trust::AgentId>(t);
        request.task = task;
        request.candidates.assign(neighbors.begin(), neighbors.end());
        owners.push_back(t);
        batch.push_back(std::move(request));
      }
      const auto results = svc.BatchRequestDelegation(batch).value();
      std::vector<service::OutcomeReport> reports;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::size_t t = owners[i];
        digests[t] = digests[t] * 31 +
                     (results[i].trustee == trust::kNoAgent
                          ? 0xFFFFu
                          : results[i].trustee);
        reports.push_back(SyntheticReport(
            batch[i].trustor,
            results[i].trustee != trust::kNoAgent
                ? results[i].trustee
                : batch[i].candidates.front(),
            task, streams[t - begin]));
      }
      SIOT_CHECK(svc.BatchReportOutcome(reports).ok());
      served += 2 * batch.size();
    }
    requests.fetch_add(served, std::memory_order_relaxed);
  });
  const auto elapsed = std::chrono::steady_clock::now() - start;

  ServeRun run;
  run.seconds = std::chrono::duration<double>(elapsed).count();
  run.requests = requests.load();
  for (std::size_t t = 0; t < trustors; ++t) {
    run.digest ^= digests[t] * 0x9E3779B97F4A7C15ull + t;
  }
  run.records = svc.Stats().record_count;
  return run;
}

Status RunServe(const Config& config) {
  SIOT_ASSIGN_OR_RETURN(
      const graph::SocialNetwork network,
      ParseNetwork(config.GetStringOr("network", "facebook")));
  const graph::SocialDataset dataset = graph::LoadDataset(network);
  SIOT_ASSIGN_OR_RETURN(const std::size_t shards,
                        ParseCount(config, "shards", 8, 1, 4096));
  SIOT_ASSIGN_OR_RETURN(const std::size_t rounds,
                        ParseCount(config, "rounds", 2, 1, 1000000));
  const auto seed = static_cast<std::uint64_t>(config.GetIntOr("seed", 2026));
  SIOT_ASSIGN_OR_RETURN(std::size_t threads, ParseThreads(config));
  if (threads == 0) {
    threads = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  }

  const ServeRun reference =
      RunServeWorkload(dataset, shards, 1, rounds, seed);
  TextTable table(StrFormat(
      "TrustService serve smoke on %s (%zu shards, %zu rounds)",
      std::string(graph::SocialNetworkName(network)).c_str(), shards,
      rounds));
  table.SetHeader(
      {"threads", "requests", "ms", "req/s", "identical to 1-thread"});
  const auto add_row = [&table](std::size_t t, const ServeRun& run,
                                const char* identical) {
    table.AddRow({StrFormat("%zu", t), StrFormat("%zu", run.requests),
                  FormatDouble(run.seconds * 1e3, 1),
                  FormatDouble(static_cast<double>(run.requests) /
                                   std::max(run.seconds, 1e-9),
                               0),
                  identical});
  };
  add_row(1, reference, "-");
  bool identical = true;
  if (threads > 1) {
    const ServeRun run =
        RunServeWorkload(dataset, shards, threads, rounds, seed);
    identical = run.digest == reference.digest &&
                run.records == reference.records;
    add_row(threads, run, identical ? "yes" : "NO — BUG");
  }
  std::fputs(table.Render().c_str(), stdout);
  // The determinism check is the point of this smoke path: a divergent
  // multi-threaded run must fail the process (and with it the smoke_serve
  // CTest and the TSan CI job), not just print a sad table cell.
  if (!identical) {
    return Status::Internal(StrFormat(
        "serve run with %zu threads diverged from the 1-thread reference",
        threads));
  }
  return Status::OK();
}

// Persist mode: a durable TrustService is driven through `rounds`
// rounds of delegation + outcome batches, with a full process-style
// RESTART (close + recover from checkpoint + WAL) between rounds; an
// in-memory reference service runs the identical workload without
// restarts. After every recovery the per-shard engine states must match
// the reference byte for byte — the restart literally may not change a
// thing.
Status RunPersist(const Config& config) {
  SIOT_ASSIGN_OR_RETURN(const std::size_t shards,
                        ParseCount(config, "shards", 4, 1, 4096));
  SIOT_ASSIGN_OR_RETURN(const std::size_t rounds,
                        ParseCount(config, "rounds", 3, 1, 100000));
  SIOT_ASSIGN_OR_RETURN(const std::size_t agent_count,
                        ParseCount(config, "agents", 48, 4, 1000000));
  const auto agents = static_cast<trust::AgentId>(agent_count);
  const auto seed =
      static_cast<std::uint64_t>(config.GetIntOr("seed", 2026));
  SIOT_ASSIGN_OR_RETURN(const std::string dir,
                        FreshRunDirectory(config, "persist", "persist", seed));

  service::TrustServiceConfig sc;
  sc.shard_count = shards;
  sc.engine.beta = trust::ForgettingFactors::Uniform(0.2);
  service::PersistenceOptions options;
  options.directory = dir;
  options.sync_every_append = config.GetBoolOr("fsync", false);
  options.checkpoint_every_appends = static_cast<std::size_t>(
      config.GetIntOr("checkpoint_every", 32));

  // Reference: identical workload, no persistence, no restarts.
  service::TrustService reference(sc);
  SIOT_ASSIGN_OR_RETURN(const trust::TaskId task,
                        reference.RegisterTask("sense", {0}));
  {
    SIOT_ASSIGN_OR_RETURN(auto service,
                          service::TrustService::Open(sc, options));
    SIOT_ASSIGN_OR_RETURN(const trust::TaskId replica,
                          service->RegisterTask("sense", {0}));
    SIOT_CHECK(replica == task);
    for (trust::AgentId agent = 0; agent < agents; agent += 7) {
      SIOT_RETURN_IF_ERROR(
          service->SetReverseThreshold(agent, trust::kNoTask, 0.75));
      reference.SetReverseThreshold(agent, trust::kNoTask, 0.75);
    }
  }

  std::vector<Rng> streams;
  std::vector<Rng> reference_streams;
  for (trust::AgentId t = 0; t < agents; ++t) {
    streams.push_back(DeriveStream(seed, t));
    reference_streams.push_back(DeriveStream(seed, t));
  }
  const auto drive_round =
      [&](service::TrustService* svc,
          std::vector<Rng>& rngs) -> StatusOr<std::size_t> {
    std::vector<service::DelegationServiceRequest> requests;
    for (trust::AgentId t = 0; t < agents; ++t) {
      service::DelegationServiceRequest request;
      request.trustor = t;
      request.task = task;
      request.candidates = {(t + 1) % agents, (t + 2) % agents,
                            (t + 3) % agents};
      requests.push_back(std::move(request));
    }
    SIOT_ASSIGN_OR_RETURN(const auto results,
                          svc->BatchRequestDelegation(requests));
    std::vector<service::OutcomeReport> reports;
    for (trust::AgentId t = 0; t < agents; ++t) {
      reports.push_back(SyntheticReport(
          t,
          results[t].trustee != trust::kNoAgent
              ? results[t].trustee
              : requests[t].candidates.front(),
          task, rngs[t]));
    }
    SIOT_RETURN_IF_ERROR(svc->BatchReportOutcome(reports));
    return 2 * requests.size();
  };

  TextTable table(StrFormat(
      "Durable TrustService restart smoke (%zu shards, %zu agents, "
      "fsync=%s)",
      shards, static_cast<std::size_t>(agents),
      options.sync_every_append ? "on" : "off"));
  table.SetHeader(
      {"round", "recover ms", "requests", "records", "state identical"});
  bool all_identical = true;
  for (std::size_t round = 0; round < rounds; ++round) {
    // Restart: every round recovers the service from disk anew.
    const auto start = std::chrono::steady_clock::now();
    SIOT_ASSIGN_OR_RETURN(auto service,
                          service::TrustService::Open(sc, options));
    const double recover_ms =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count() *
        1e3;
    SIOT_ASSIGN_OR_RETURN(const std::size_t requests,
                          drive_round(service.get(), streams));
    SIOT_ASSIGN_OR_RETURN(const std::size_t reference_requests,
                          drive_round(&reference, reference_streams));
    SIOT_CHECK(requests == reference_requests);
    bool identical = true;
    for (std::size_t s = 0; s < shards; ++s) {
      if (trust::SerializeTrustEngineState(service->shard_engine(s)) !=
          trust::SerializeTrustEngineState(reference.shard_engine(s))) {
        identical = false;
      }
    }
    all_identical = all_identical && identical;
    table.AddRow({StrFormat("%zu", round), FormatDouble(recover_ms, 2),
                  StrFormat("%zu", requests),
                  StrFormat("%zu", service->Stats().record_count),
                  identical ? "yes" : "NO — BUG"});
  }
  std::fputs(table.Render().c_str(), stdout);
  if (!config.Has("dir")) std::filesystem::remove_all(dir);
  // Divergence must fail the process (and the smoke_persist CTest), not
  // just print a sad table cell.
  if (!all_identical) {
    return Status::Internal(
        "recovered state diverged from the in-memory reference");
  }
  return Status::OK();
}

// Deterministic social substrate for the service-level experiments: a
// ring over the agents, each linked to its 3 successors — exactly the
// candidate sets the replicate/persist workloads delegate over.
std::shared_ptr<const graph::Graph> BuildRingGraph(trust::AgentId agents) {
  graph::GraphBuilder builder(agents);
  for (trust::AgentId t = 0; t < agents; ++t) {
    for (trust::AgentId d = 1; d <= 3; ++d) {
      builder.AddEdge(t, (t + d) % agents);
    }
  }
  return std::make_shared<graph::Graph>(builder.Build());
}

// Replicate mode: a durable leader is driven through `rounds` rounds of
// delegation + outcome batches while a WAL-tailing follower catches up
// after each round; follower state must match the leader byte for byte
// at every synchronized position. Then the leader is killed and the
// follower PROMOTES: it must fence the directory, keep every
// acknowledged write, and serve writes of its own — the full failover
// story in one smoke run.
Status RunReplicate(const Config& config) {
  SIOT_ASSIGN_OR_RETURN(const std::size_t shards,
                        ParseCount(config, "shards", 4, 1, 4096));
  SIOT_ASSIGN_OR_RETURN(const std::size_t rounds,
                        ParseCount(config, "rounds", 3, 1, 100000));
  SIOT_ASSIGN_OR_RETURN(const std::size_t agent_count,
                        ParseCount(config, "agents", 48, 4, 1000000));
  const auto agents = static_cast<trust::AgentId>(agent_count);
  const auto seed =
      static_cast<std::uint64_t>(config.GetIntOr("seed", 2026));
  SIOT_ASSIGN_OR_RETURN(const std::string dir,
                        FreshRunDirectory(config, "replicate", "replicate", seed));

  service::TrustServiceConfig sc;
  sc.shard_count = shards;
  sc.engine.beta = trust::ForgettingFactors::Uniform(0.2);
  service::PersistenceOptions options;
  options.directory = dir;
  options.checkpoint_every_appends = static_cast<std::size_t>(
      config.GetIntOr("checkpoint_every", 64));

  SIOT_ASSIGN_OR_RETURN(auto leader,
                        service::TrustService::Open(sc, options));
  SIOT_ASSIGN_OR_RETURN(const trust::TaskId task,
                        leader->RegisterTask("sense", {0}));
  for (trust::AgentId agent = 0; agent < agents; agent += 7) {
    SIOT_RETURN_IF_ERROR(
        leader->SetReverseThreshold(agent, trust::kNoTask, 0.75));
  }
  service::ReplicaOptions replica_options;
  replica_options.directory = dir;
  // Follower-served transitive reads ride along so the round summary can
  // show snapshot staleness next to replication lag.
  replica_options.overlay_graph = BuildRingGraph(agents);
  replica_options.transitivity.max_hops = 4;
  replica_options.transitivity.omega2 = 0.0;
  SIOT_ASSIGN_OR_RETURN(auto replica,
                        service::ReplicaService::Open(sc, replica_options));

  std::vector<Rng> streams;
  for (trust::AgentId t = 0; t < agents; ++t) {
    streams.push_back(DeriveStream(seed, t));
  }
  const auto drive_round = [&](service::TrustService* svc)
      -> StatusOr<std::size_t> {
    std::vector<service::DelegationServiceRequest> requests;
    for (trust::AgentId t = 0; t < agents; ++t) {
      service::DelegationServiceRequest request;
      request.trustor = t;
      request.task = task;
      request.candidates = {(t + 1) % agents, (t + 2) % agents,
                            (t + 3) % agents};
      requests.push_back(std::move(request));
    }
    SIOT_ASSIGN_OR_RETURN(const auto results,
                          svc->BatchRequestDelegation(requests));
    std::vector<service::OutcomeReport> reports;
    for (trust::AgentId t = 0; t < agents; ++t) {
      reports.push_back(SyntheticReport(
          t,
          results[t].trustee != trust::kNoAgent
              ? results[t].trustee
              : requests[t].candidates.front(),
          task, streams[t]));
    }
    SIOT_RETURN_IF_ERROR(svc->BatchReportOutcome(reports));
    return 2 * requests.size();
  };
  const auto states_of = [&](const auto& svc) {
    std::vector<std::string> states;
    for (std::size_t s = 0; s < shards; ++s) {
      states.push_back(
          trust::SerializeTrustEngineState(svc.shard_engine(s)));
    }
    return states;
  };

  TextTable table(StrFormat(
      "WAL-tailing replication smoke (%zu shards, %zu agents)", shards,
      static_cast<std::size_t>(agents)));
  table.SetHeader({"round", "requests", "catch-up ms", "records",
                   "seq lag", "byte lag", "snap age ms",
                   "follower identical"});
  bool all_identical = true;
  for (std::size_t round = 0; round < rounds; ++round) {
    SIOT_ASSIGN_OR_RETURN(const std::size_t requests,
                          drive_round(leader.get()));
    const auto start = std::chrono::steady_clock::now();
    SIOT_RETURN_IF_ERROR(replica->AwaitPositions(
        leader->WalPositions(), std::chrono::milliseconds(10000)));
    const double catch_up_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    // Staleness evidence for both read paths: per-shard replication lag
    // (summed) and the age of the follower-served overlay snapshot.
    SIOT_RETURN_IF_ERROR(replica->BuildOverlaySnapshot());
    std::uint64_t seq_lag = 0;
    std::uint64_t byte_lag = 0;
    for (const service::ShardReplicationLag& lag :
         replica->ReplicationLag()) {
      seq_lag += lag.seq_lag;
      byte_lag += lag.byte_lag;
    }
    const service::OverlaySnapshotInfo overlay = replica->OverlayInfo();
    const bool identical = states_of(*leader) == states_of(*replica);
    all_identical = all_identical && identical;
    table.AddRow(
        {StrFormat("%zu", round), StrFormat("%zu", requests),
         FormatDouble(catch_up_ms, 2),
         StrFormat("%zu", replica->Stats().record_count),
         StrFormat("%llu", static_cast<unsigned long long>(seq_lag)),
         StrFormat("%llu", static_cast<unsigned long long>(byte_lag)),
         StrFormat("%lld",
                   static_cast<long long>(overlay.age.count())),
         identical ? "yes" : "NO — BUG"});
  }

  // Failover: kill the leader, promote the follower, and prove the
  // promoted service kept every acknowledged write and accepts new ones.
  const std::vector<std::string> acknowledged = states_of(*leader);
  leader.reset();
  const auto promote_start = std::chrono::steady_clock::now();
  SIOT_ASSIGN_OR_RETURN(auto promoted, replica->Promote(options));
  const double promote_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - promote_start)
          .count();
  const bool promote_identical = states_of(*promoted) == acknowledged;
  all_identical = all_identical && promote_identical;
  SIOT_ASSIGN_OR_RETURN(const std::size_t post_requests,
                        drive_round(promoted.get()));
  table.AddRow({"promote", StrFormat("%zu", post_requests),
                FormatDouble(promote_ms, 2),
                StrFormat("%zu", promoted->Stats().record_count), "-", "-",
                "-", promote_identical ? "yes" : "NO — BUG"});
  std::fputs(table.Render().c_str(), stdout);
  promoted.reset();
  if (!config.Has("dir")) std::filesystem::remove_all(dir);
  // Divergence must fail the process (and the smoke_replicate CTest),
  // not just print a sad table cell.
  if (!all_identical) {
    return Status::Internal(
        "follower state diverged from the leader (or promote lost "
        "acknowledged writes)");
  }
  return Status::OK();
}

// Transit-serve mode: the follower-served transitive read path end to
// end. A durable leader takes outcome batches; a WAL-tailing follower
// catches up, freezes an overlay snapshot at the leader's exact WAL
// positions, and serves transitive queries from it. Every round the
// follower's snapshot is byte-compared against one built from a
// single-threaded, unsharded reference engine driven with the identical
// ops — the sharded/replicated/snapshot pipeline must change NOTHING —
// and a batch of queries is answered both ways and compared
// result-for-result. Divergence fails the process.
Status RunTransitServe(const Config& config) {
  SIOT_ASSIGN_OR_RETURN(const std::size_t shards,
                        ParseCount(config, "shards", 4, 1, 4096));
  SIOT_ASSIGN_OR_RETURN(const std::size_t rounds,
                        ParseCount(config, "rounds", 3, 1, 100000));
  SIOT_ASSIGN_OR_RETURN(const std::size_t agent_count,
                        ParseCount(config, "agents", 64, 4, 1000000));
  SIOT_ASSIGN_OR_RETURN(const std::size_t task_count,
                        ParseCount(config, "tasks", 3, 1, 64));
  SIOT_ASSIGN_OR_RETURN(const std::size_t characteristic_count,
                        ParseCount(config, "characteristics", 4, 1, 32));
  SIOT_ASSIGN_OR_RETURN(const std::size_t queries,
                        ParseCount(config, "queries", 8, 0, 100000));
  const auto agents = static_cast<trust::AgentId>(agent_count);
  const auto seed =
      static_cast<std::uint64_t>(config.GetIntOr("seed", 2026));
  SIOT_ASSIGN_OR_RETURN(const std::string dir,
                        FreshRunDirectory(config, "transit_serve", "transit", seed));

  service::TrustServiceConfig sc;
  sc.shard_count = shards;
  sc.engine.beta = trust::ForgettingFactors::Uniform(0.2);
  service::PersistenceOptions options;
  options.directory = dir;
  options.checkpoint_every_appends = static_cast<std::size_t>(
      config.GetIntOr("checkpoint_every", 64));

  trust::TransitivityParams params;
  params.omega1 = config.GetDoubleOr("omega1", 0.5);
  params.omega2 = config.GetDoubleOr("omega2", 0.0);
  params.max_hops =
      static_cast<std::size_t>(config.GetIntOr("max_hops", 4));

  SIOT_ASSIGN_OR_RETURN(auto leader,
                        service::TrustService::Open(sc, options));
  // The oracle: one unsharded engine fed the identical op stream.
  trust::TrustEngine reference(sc.engine);
  for (std::size_t j = 0; j < task_count; ++j) {
    std::vector<trust::CharacteristicId> chars = {
        static_cast<trust::CharacteristicId>(j % characteristic_count)};
    const auto second = static_cast<trust::CharacteristicId>(
        (j + 1) % characteristic_count);
    if (second != chars.front()) chars.push_back(second);
    const std::string name = StrFormat("task%zu", j);
    SIOT_ASSIGN_OR_RETURN(const trust::TaskId leader_id,
                          leader->RegisterTask(name, chars));
    SIOT_ASSIGN_OR_RETURN(const trust::TaskId reference_id,
                          reference.catalog().AddUniform(name, chars));
    SIOT_CHECK(leader_id == reference_id);
  }

  const std::shared_ptr<const graph::Graph> social = BuildRingGraph(agents);
  service::ReplicaOptions replica_options;
  replica_options.directory = dir;
  replica_options.overlay_graph = social;
  replica_options.transitivity = params;
  SIOT_ASSIGN_OR_RETURN(auto replica,
                        service::ReplicaService::Open(sc, replica_options));

  std::vector<Rng> streams;
  for (trust::AgentId t = 0; t < agents; ++t) {
    streams.push_back(DeriveStream(seed, t));
  }
  // One rng stream per trustor decides every op ONCE; the decisions are
  // applied to leader and reference alike, so the two see the same
  // per-pair op order — the invariant the byte comparison rests on.
  const auto drive_round = [&]() -> StatusOr<std::size_t> {
    std::vector<service::OutcomeReport> reports;
    for (trust::AgentId t = 0; t < agents; ++t) {
      Rng& rng = streams[t];
      const auto trustee = static_cast<trust::AgentId>(
          (t + 1 + static_cast<trust::AgentId>(rng.UniformInt(0, 2))) %
          agents);
      const auto task = static_cast<trust::TaskId>(
          rng.UniformInt(0, static_cast<std::int64_t>(task_count) - 1));
      reports.push_back(SyntheticReport(t, trustee, task, rng));
    }
    SIOT_RETURN_IF_ERROR(leader->BatchReportOutcome(reports));
    for (const service::OutcomeReport& report : reports) {
      reference.ReportOutcome(report.trustor, report.trustee, report.task,
                              report.outcome, report.trustor_was_abusive);
    }
    return reports.size();
  };

  Rng query_rng = DeriveStream(seed, agents + 1);
  constexpr trust::TransitivityMethod kMethods[] = {
      trust::TransitivityMethod::kTraditional,
      trust::TransitivityMethod::kConservative,
      trust::TransitivityMethod::kAggressive,
  };

  TextTable table(StrFormat(
      "Follower-served transitivity (%zu shards, %zu agents, %zu tasks)",
      shards, static_cast<std::size_t>(agents), task_count));
  table.SetHeader({"round", "ops", "catch-up ms", "assembly ms", "version",
                   "queries", "snapshot+queries identical"});
  bool all_identical = true;
  for (std::size_t round = 0; round < rounds; ++round) {
    SIOT_ASSIGN_OR_RETURN(const std::size_t ops, drive_round());
    const std::vector<service::ShardWalPosition> positions =
        leader->WalPositions();
    const auto start = std::chrono::steady_clock::now();
    SIOT_RETURN_IF_ERROR(replica->AwaitPositions(
        positions, std::chrono::milliseconds(10000)));
    const double catch_up_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    SIOT_RETURN_IF_ERROR(replica->BuildOverlaySnapshot());

    // The follower quiesced at the leader's exact WAL positions, so the
    // snapshot's version vector must equal them — and the snapshot bytes
    // must equal a reference build at that same version.
    trust::SnapshotVersion version;
    for (const service::ShardWalPosition& position : positions) {
      version.applied_seq.push_back(position.last_seq);
    }
    const std::shared_ptr<const trust::VersionedOverlaySnapshot>
        follower_snapshot = replica->CurrentOverlaySnapshot();
    SIOT_CHECK(follower_snapshot != nullptr);
    bool identical = follower_snapshot->version() == version;
    const trust::ShardedStoreOverlay reference_overlay(
        {&reference.store()}, reference.normalizer(),
        [](trust::AgentId) { return std::size_t{0}; });
    const trust::VersionedOverlaySnapshot reference_snapshot(
        social, reference.catalog(), reference_overlay, version);
    identical = identical &&
                trust::SerializeOverlaySnapshot(*follower_snapshot) ==
                    trust::SerializeOverlaySnapshot(reference_snapshot);

    // Query equivalence: the follower's sealed snapshot search against a
    // search over the reference snapshot, across all three §4.3 methods.
    const trust::TransitivitySearch reference_search(
        reference_snapshot.snapshot(), reference_snapshot.catalog(), params);
    for (std::size_t q = 0; q < queries; ++q) {
      service::TransitiveTrustRequest request;
      request.trustor = static_cast<trust::AgentId>(query_rng.UniformInt(
          0, static_cast<std::int64_t>(agents) - 1));
      request.task = static_cast<trust::TaskId>(query_rng.UniformInt(
          0, static_cast<std::int64_t>(task_count) - 1));
      request.method = kMethods[q % 3];
      SIOT_ASSIGN_OR_RETURN(const service::TransitiveTrustResult answer,
                            replica->TransitiveTrust(request));
      identical = identical && answer.version == version;
      const trust::TransitivityResult expected =
          reference_search.FindPotentialTrustees(
              request.trustor, reference_snapshot.catalog().Get(request.task),
              request.method);
      if (answer.result.trustees.size() != expected.trustees.size()) {
        identical = false;
        continue;
      }
      for (std::size_t i = 0; i < expected.trustees.size(); ++i) {
        const trust::PotentialTrustee& got = answer.result.trustees[i];
        const trust::PotentialTrustee& want = expected.trustees[i];
        if (got.agent != want.agent ||
            got.trustworthiness != want.trustworthiness ||
            got.per_characteristic != want.per_characteristic) {
          identical = false;
        }
      }
    }
    all_identical = all_identical && identical;
    const service::OverlaySnapshotInfo info = replica->OverlayInfo();
    table.AddRow(
        {StrFormat("%zu", round), StrFormat("%zu", ops),
         FormatDouble(catch_up_ms, 2),
         StrFormat("%lld",
                   static_cast<long long>(info.last_assembly_cost.count())),
         trust::FormatSnapshotVersion(version),
         StrFormat("%zu", queries), identical ? "yes" : "NO — BUG"});
  }
  std::fputs(table.Render().c_str(), stdout);
  replica.reset();
  leader.reset();
  if (!config.Has("dir")) std::filesystem::remove_all(dir);
  // Divergence must fail the process (and the smoke_transit_serve CTest),
  // not just print a sad table cell.
  if (!all_identical) {
    return Status::Internal(
        "follower-served snapshot or query answers diverged from the "
        "single-engine reference");
  }
  return Status::OK();
}

// Attack mode: each configured adversary fraction runs the selected
// attack twice — once against an in-memory TrustService with a 1-thread
// runner (the reference), once against a DURABLE TrustService
// (WAL + checkpoints + optional group commit, exercised under the
// adversarial write pattern) with the configured thread count. The two
// runs must produce bit-identical resilience tables and serialized
// shard states; the per-round resilience table and a cross-fraction
// summary are printed.
Status RunAttack(const Config& config) {
  sim::AttackSimConfig acfg;
  SIOT_ASSIGN_OR_RETURN(acfg.agents,
                        ParseCount(config, "agents", 64, 8, 100000));
  SIOT_ASSIGN_OR_RETURN(acfg.rounds,
                        ParseCount(config, "rounds", 20, 1, 10000));
  SIOT_ASSIGN_OR_RETURN(acfg.shard_count,
                        ParseCount(config, "shards", 8, 1, 4096));
  SIOT_ASSIGN_OR_RETURN(acfg.candidates_per_trustor,
                        ParseCount(config, "candidates", 8, 1, 256));
  SIOT_ASSIGN_OR_RETURN(const std::size_t threads, ParseThreads(config));
  const std::string attack_name =
      ToLower(config.GetStringOr("attack", "onoff"));
  const std::optional<sim::AttackType> attack =
      sim::ParseAttackType(attack_name);
  if (!attack.has_value()) {
    return Status::InvalidArgument(
        "unknown attack '" + attack_name +
        "' (none|onoff|badmouth|whitewash|collusion)");
  }
  std::vector<double> fractions;
  for (const std::string& token :
       Split(config.GetStringOr("fractions", "0.1,0.3"), ',')) {
    SIOT_ASSIGN_OR_RETURN(const double fraction, ParseDouble(token));
    if (fraction < 0.0 || fraction > 1.0) {
      return Status::InvalidArgument("fractions entries must be in [0, 1]");
    }
    fractions.push_back(fraction);
  }
  if (fractions.empty() || fractions.size() > 16) {
    return Status::InvalidArgument("fractions needs 1-16 entries");
  }
  const auto seed = static_cast<std::uint64_t>(config.GetIntOr("seed", 2026));

  SIOT_ASSIGN_OR_RETURN(const std::string dir,
                        FreshRunDirectory(config, "attack", "attack", seed));

  acfg.theta = config.GetDoubleOr("theta", 0.5);
  acfg.detect_percentile = config.GetDoubleOr("detect_percentile", 0.25);
  acfg.seed = seed;
  acfg.attack.type = *attack;

  TextTable summary(StrFormat(
      "Attack summary: %s (%zu agents, %zu rounds, %zu shards, "
      "%zu threads durable vs 1-thread in-memory)",
      sim::AttackTypeName(*attack), acfg.agents, acfg.rounds,
      acfg.shard_count, threads == 0 ? 0 : threads));
  summary.SetHeader({"fraction", "misdeleg", "unavail", "abuse", "honest tw",
                     "attacker tw", "detect round", "ww", "recovery",
                     "durable identical"});
  bool all_identical = true;
  for (std::size_t index = 0; index < fractions.size(); ++index) {
    acfg.attack.adversary_fraction = fractions[index];
    const service::TrustServiceConfig sc = sim::AttackServiceConfig(acfg);

    sim::AttackSimConfig reference_config = acfg;
    reference_config.threads = 1;
    sim::AttackSimResult reference;
    {
      service::TrustService memory(sc);
      SIOT_ASSIGN_OR_RETURN(reference,
                            sim::RunAttackSimulation(memory, reference_config));
    }

    sim::AttackSimConfig durable_config = acfg;
    durable_config.threads = threads;
    const std::string fraction_dir = dir + "/f" + std::to_string(index);
    std::filesystem::remove_all(fraction_dir);
    service::PersistenceOptions options;
    options.directory = fraction_dir;
    options.sync_every_append = config.GetBoolOr("fsync", false);
    options.checkpoint_every_appends =
        static_cast<std::size_t>(config.GetIntOr("checkpoint_every", 64));
    sim::AttackSimResult durable;
    {
      SIOT_ASSIGN_OR_RETURN(auto service,
                            service::TrustService::Open(sc, options));
      SIOT_ASSIGN_OR_RETURN(durable,
                            sim::RunAttackSimulation(*service, durable_config));
    }
    const bool identical = durable == reference;
    all_identical = all_identical && identical;

    TextTable table(StrFormat(
        "Adversarial resilience: %s, adversary fraction %s (durable path)",
        sim::AttackTypeName(*attack),
        FormatDouble(fractions[index], 2).c_str()));
    table.SetHeader({"round", "misdeleg", "unavail", "abuse", "honest tw",
                     "attacker tw", "detected", "ww"});
    for (const sim::ResilienceRoundMetrics& row : durable.rounds) {
      table.AddRow({StrFormat("%zu", row.round),
                    FormatDouble(row.misdelegation_rate, 3),
                    FormatDouble(row.unavailable_rate, 3),
                    FormatDouble(row.abuse_rate, 3),
                    FormatDouble(row.honest_mean_trust, 3),
                    FormatDouble(row.attacker_mean_trust, 3),
                    row.attacker_detected ? "yes" : "no",
                    StrFormat("%zu", row.whitewashes)});
    }
    std::fputs(table.Render().c_str(), stdout);

    summary.AddRow(
        {FormatDouble(fractions[index], 2),
         FormatDouble(durable.misdelegation_rate, 3),
         FormatDouble(durable.unavailable_rate, 3),
         FormatDouble(durable.abuse_rate, 3),
         FormatDouble(durable.final_honest_trust, 3),
         FormatDouble(durable.final_attacker_trust, 3),
         durable.time_to_detect.has_value()
             ? StrFormat("%zu", *durable.time_to_detect)
             : "-",
         StrFormat("%zu", durable.whitewashes),
         durable.whitewash_recovery.has_value()
             ? FormatDouble(*durable.whitewash_recovery, 1)
             : "-",
         identical ? "yes" : "NO — BUG"});
  }
  std::fputs(summary.Render().c_str(), stdout);
  if (!config.Has("dir")) std::filesystem::remove_all(dir);
  // Divergence must fail the process (and the smoke_attack CTest), not
  // just print a sad table cell.
  if (!all_identical) {
    return Status::Internal(
        "durable attack run diverged from the in-memory 1-thread "
        "reference");
  }
  return Status::OK();
}

Status Run(int argc, char** argv) {
  // Accept both bare key=value tokens and GNU-style --key=value flags
  // (e.g. --threads=4): leading dashes are stripped before parsing.
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc - 1));
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    arg.erase(0, arg.find_first_not_of('-'));
    args.push_back(std::move(arg));
  }
  std::vector<const char*> arg_ptrs;
  arg_ptrs.reserve(args.size());
  for (const std::string& arg : args) arg_ptrs.push_back(arg.c_str());
  SIOT_ASSIGN_OR_RETURN(
      Config config,
      Config::FromArgs(static_cast<int>(arg_ptrs.size()), arg_ptrs.data()));
  if (config.Has("config")) {
    SIOT_ASSIGN_OR_RETURN(const std::string path,
                          config.GetString("config"));
    SIOT_ASSIGN_OR_RETURN(const Config from_file, Config::FromFile(path));
    // Command-line keys override file keys.
    Config merged = from_file;
    for (const auto& [key, value] : config.values()) {
      merged.Set(key, value);
    }
    config = merged;
  }
  const std::string experiment =
      ToLower(config.GetStringOr("experiment", ""));
  if (experiment == "mutuality") return RunMutuality(config);
  if (experiment == "transitivity") return RunTransitivity(config);
  if (experiment == "delegation") return RunDelegation(config);
  if (experiment == "environment") return RunEnvironment(config);
  if (experiment == "serve") return RunServe(config);
  if (experiment == "persist") return RunPersist(config);
  if (experiment == "replicate") return RunReplicate(config);
  if (experiment == "transit_serve") return RunTransitServe(config);
  if (experiment == "attack") return RunAttack(config);
  return Status::InvalidArgument(
      "usage: siot_experiments experiment=<mutuality|transitivity|"
      "delegation|environment|serve|persist|replicate|transit_serve|"
      "attack> [network=...] [seed=...] [--threads=N] [key=value...] "
      "[config=<file>]");
}

}  // namespace
}  // namespace siot

int main(int argc, char** argv) {
  const siot::Status status = siot::Run(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
