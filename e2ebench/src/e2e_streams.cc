// Copyright 2026 The siot-trust Authors.

#include "e2e_streams.h"

#include <algorithm>
#include <cstdio>

#include "common/macros.h"

namespace siot::e2e {

namespace {

/// Stream tags, so the graph, the warm-up and each client draw from
/// independent child streams of one seed.
constexpr std::uint64_t kGraphTag = 0x6EA9;
constexpr std::uint64_t kQualityTag = 0x9A11;
constexpr std::uint64_t kWarmTag = 0xAA53;
constexpr std::uint64_t kClientTag = 0xC11E;

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"decide-10k", WorkloadKind::kDecide, 10'000, 10, 0, 3},
      {"report-10k", WorkloadKind::kReport, 10'000, 10, 0, 3},
      {"transit-2k", WorkloadKind::kTransit, 2'000, 5, 0, 2},
      {"restart-100k", WorkloadKind::kRestart, 10'000, 10, 10'000, 1},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

const std::vector<TaskDef>& Tasks() {
  static const std::vector<TaskDef> kTasks = {
      {"gps", {0}}, {"image", {1}}, {"traffic", {0, 1}}};
  return kTasks;
}

graph::CommunityGraphParams GraphParams(std::size_t agents) {
  graph::CommunityGraphParams params;
  params.node_count = agents;
  params.community_count = std::max<std::size_t>(agents / 40, 1);
  params.size_alpha = 0.0;
  params.size_evenness = 2.0;
  params.min_community_size = 8;
  params.p_intra = 0.5;
  params.ring_bridges = 2;
  params.shortcut_bridges = agents / 10;
  params.target_edge_count = agents * kMeanDegree / 2;
  params.force_connected = true;
  return params;
}

StatusOr<graph::Graph> GenerateWorkloadGraph(std::size_t agents,
                                             std::uint64_t seed) {
  Rng rng(MixSeed(seed, kGraphTag));
  SIOT_ASSIGN_OR_RETURN(graph::CommunityGraph generated,
                        graph::GenerateCommunityGraph(GraphParams(agents), rng));
  return std::move(generated.graph);
}

double AgentQuality(std::uint64_t seed, trust::AgentId agent) {
  const std::uint64_t bits = MixSeed(MixSeed(seed, kQualityTag), agent);
  const double unit = static_cast<double>(bits >> 11) * 0x1.0p-53;
  return 0.3 + 0.65 * unit;
}

service::OutcomeReport DrawOutcome(std::uint64_t seed, trust::AgentId trustor,
                                   trust::AgentId trustee, trust::TaskId task,
                                   Rng& rng) {
  service::OutcomeReport report;
  report.trustor = trustor;
  report.trustee = trustee;
  report.task = task;
  report.outcome.success = rng.Bernoulli(AgentQuality(seed, trustee));
  report.outcome.gain = report.outcome.success ? rng.Uniform(0.5, 1.0) : 0.0;
  report.outcome.damage = report.outcome.success ? 0.0 : rng.Uniform(0.2, 0.8);
  report.outcome.cost = rng.Uniform(0.05, 0.3);
  report.trustor_was_abusive = rng.Bernoulli(0.1);
  return report;
}

std::vector<service::OutcomeReport> WarmReports(const graph::Graph& graph,
                                                std::uint64_t seed,
                                                trust::AgentId trustor,
                                                std::size_t count) {
  Rng rng(MixSeed(MixSeed(seed, kWarmTag), trustor));
  const auto neighbours = graph.Neighbors(trustor);
  // Candidate (trustee, task) pairs: every neighbour × {gps, image}.
  const std::size_t pairs = neighbours.size() * 2;
  std::vector<service::OutcomeReport> reports;
  reports.reserve(count);
  for (const std::size_t pick :
       rng.SampleWithoutReplacement(pairs, std::min(count, pairs))) {
    reports.push_back(DrawOutcome(seed, trustor, neighbours[pick / 2],
                                  static_cast<trust::TaskId>(pick % 2), rng));
  }
  // A neighbourhood too small for `count` distinct pairs tops up with
  // non-neighbours, so the record count is exactly agents × count.
  const auto agents = static_cast<trust::AgentId>(graph.node_count());
  while (reports.size() < count) {
    const auto trustee = static_cast<trust::AgentId>(rng.NextBounded(agents));
    const auto task = static_cast<trust::TaskId>(rng.NextBounded(2));
    const bool taken =
        trustee == trustor ||
        std::any_of(reports.begin(), reports.end(), [&](const auto& r) {
          return r.trustee == trustee && r.task == task;
        });
    if (!taken) reports.push_back(DrawOutcome(seed, trustor, trustee, task, rng));
  }
  return reports;
}

RequestStream::RequestStream(const graph::Graph& graph, std::uint64_t seed,
                             std::size_t client, std::size_t clients)
    : graph_(graph),
      seed_(seed),
      client_(client),
      clients_(clients),
      owned_((graph.node_count() - client + clients - 1) / clients),
      rng_(MixSeed(MixSeed(seed, kClientTag), client)) {
  SIOT_CHECK(client < clients && owned_ > 0);
}

trust::AgentId RequestStream::NextTrustor() {
  return static_cast<trust::AgentId>(client_ +
                                     clients_ * rng_.NextBounded(owned_));
}

service::DelegationServiceRequest RequestStream::NextDelegation() {
  service::DelegationServiceRequest request;
  request.trustor = NextTrustor();
  request.task = static_cast<trust::TaskId>(rng_.NextBounded(kTaskCount));
  const auto neighbours = graph_.Neighbors(request.trustor);
  request.candidates.assign(neighbours.begin(), neighbours.end());
  if (rng_.NextBounded(4) == 0) {
    trust::OutcomeEstimates self;
    self.success_rate = rng_.Uniform(0.3, 0.9);
    self.gain = rng_.Uniform(0.3, 0.9);
    self.damage = rng_.Uniform(0.1, 0.5);
    self.cost = rng_.Uniform(0.1, 0.4);
    request.self_estimates = self;
  }
  return request;
}

service::OutcomeReport RequestStream::Outcome(trust::AgentId trustor,
                                              trust::AgentId trustee,
                                              trust::TaskId task) {
  return DrawOutcome(seed_, trustor, trustee, task, rng_);
}

service::OutcomeReport RequestStream::NextReport() {
  const trust::AgentId trustor = NextTrustor();
  const auto neighbours = graph_.Neighbors(trustor);
  const trust::AgentId trustee =
      neighbours[rng_.NextBounded(neighbours.size())];
  const auto task = static_cast<trust::TaskId>(rng_.NextBounded(kTaskCount));
  service::OutcomeReport report = Outcome(trustor, trustee, task);
  const std::size_t relays = rng_.NextBounded(3);
  for (std::size_t i = 0; i < relays; ++i) {
    report.intermediates.push_back(
        neighbours[rng_.NextBounded(neighbours.size())]);
  }
  return report;
}

service::TransitiveTrustRequest RequestStream::NextTransit() {
  service::TransitiveTrustRequest request;
  request.trustor = NextTrustor();
  request.task = static_cast<trust::TaskId>(rng_.NextBounded(kTaskCount));
  request.method = static_cast<trust::TransitivityMethod>(rng_.NextBounded(3));
  return request;
}

std::string StreamFingerprint(const graph::Graph& graph, std::uint64_t seed,
                              WorkloadKind kind, std::size_t client,
                              std::size_t clients, std::size_t count) {
  RequestStream stream(graph, seed, client, clients);
  std::string out;
  char line[160];
  const auto append_report = [&](const service::OutcomeReport& r) {
    std::snprintf(line, sizeof(line), "R %u %u %u %d %a %a %a %d %zu|",
                  r.trustor, r.trustee, r.task, r.outcome.success ? 1 : 0,
                  r.outcome.gain, r.outcome.damage, r.outcome.cost,
                  r.trustor_was_abusive ? 1 : 0, r.intermediates.size());
    out += line;
    for (const trust::AgentId relay : r.intermediates) {
      out += std::to_string(relay) + ",";
    }
  };
  for (std::size_t i = 0; i < count; ++i) {
    switch (kind) {
      case WorkloadKind::kDecide: {
        const auto request = stream.NextDelegation();
        std::snprintf(line, sizeof(line), "D %u %u %zu %d|", request.trustor,
                      request.task, request.candidates.size(),
                      request.self_estimates.has_value() ? 1 : 0);
        out += line;
        if (!request.candidates.empty()) {
          append_report(stream.Outcome(request.trustor,
                                       request.candidates.front(),
                                       request.task));
        }
        break;
      }
      case WorkloadKind::kReport:
      case WorkloadKind::kRestart:
        append_report(stream.NextReport());
        break;
      case WorkloadKind::kTransit: {
        const auto request = stream.NextTransit();
        std::snprintf(line, sizeof(line), "T %u %u %d|", request.trustor,
                      request.task, static_cast<int>(request.method));
        out += line;
        break;
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace siot::e2e
