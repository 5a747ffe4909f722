// Copyright 2026 The siot-trust Authors.
// Workload definitions and seeded inputs of the end-to-end benchmark:
// the four workloads and the sizes their names state, the social graph,
// the warm-up history, and each client's request stream. Everything here
// is a pure function of the --seed argument, so one seed gives one input
// set and one request stream per client.

#ifndef SIOT_E2EBENCH_E2E_STREAMS_H_
#define SIOT_E2EBENCH_E2E_STREAMS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "service/overlay_serving.h"
#include "service/trust_service.h"
#include "trust/types.h"

namespace siot::e2e {

enum class WorkloadKind { kDecide, kReport, kTransit, kRestart };

/// One workload: the sizes its name states and the load that drives it.
struct WorkloadSpec {
  std::string_view name;
  WorkloadKind kind;
  /// Agents = graph nodes.
  std::size_t agents;
  /// Distinct (trustor, trustee, task) records written per agent at
  /// warm-up; agents × this is the record count the name states.
  std::size_t records_per_agent;
  /// Outcome frames left in the WAL tail after the last checkpoint
  /// (restart only; they re-report existing records).
  std::size_t wal_tail_frames;
  /// Closed-loop client threads.
  std::size_t clients;
};

/// The four workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();

/// Null when `name` is not a workload.
const WorkloadSpec* FindWorkload(std::string_view name);

/// Mean degree every workload graph is pinned to (the paper's Table 1
/// networks average 20–29).
inline constexpr std::size_t kMeanDegree = 24;

/// The registered tasks, in id order: gps {0}, image {1}, traffic {0, 1}.
/// Warm-up only records gps and image, so traffic is answered by Eq. 4
/// inference or the initial estimates.
inline constexpr std::size_t kTaskCount = 3;
struct TaskDef {
  const char* name;
  std::vector<trust::CharacteristicId> characteristics;
};
const std::vector<TaskDef>& Tasks();

/// Every kThresholdStride-th agent refuses delegations below θ = 0.75.
inline constexpr std::size_t kThresholdStride = 13;
inline constexpr double kThreshold = 0.75;

/// Planted-community parameters for `agents` nodes with mean degree
/// kMeanDegree (the edge count is pinned exactly).
graph::CommunityGraphParams GraphParams(std::size_t agents);

/// The workload graph for `seed`.
StatusOr<graph::Graph> GenerateWorkloadGraph(std::size_t agents,
                                             std::uint64_t seed);

/// Hidden execution quality of `agent` (its success probability), a pure
/// function of (seed, agent).
double AgentQuality(std::uint64_t seed, trust::AgentId agent);

/// Draws one delegation outcome of `trustee` for `trustor`.
service::OutcomeReport DrawOutcome(std::uint64_t seed, trust::AgentId trustor,
                                   trust::AgentId trustee, trust::TaskId task,
                                   Rng& rng);

/// Warm-up history of `trustor`: exactly `count` reports on distinct
/// (trustee, task) pairs, trustees drawn from its neighbours (then from
/// other agents when the neighbourhood is too small), tasks gps or image.
std::vector<service::OutcomeReport> WarmReports(const graph::Graph& graph,
                                                std::uint64_t seed,
                                                trust::AgentId trustor,
                                                std::size_t count);

/// One client's seeded request stream. Client `client` of `clients` owns
/// the trustors congruent to it modulo `clients`, so clients never share a
/// trustor and per-trustor results do not depend on thread interleaving.
class RequestStream {
 public:
  RequestStream(const graph::Graph& graph, std::uint64_t seed,
                std::size_t client, std::size_t clients);

  trust::AgentId NextTrustor();

  /// decide: candidates = all neighbours; one request in four carries
  /// self-estimates (Eq. 24).
  service::DelegationServiceRequest NextDelegation();

  /// The outcome a delegation to `trustee` produced.
  service::OutcomeReport Outcome(trust::AgentId trustor,
                                 trust::AgentId trustee, trust::TaskId task);

  /// report: random neighbour trustee, 0–2 relay intermediates (Eq. 29).
  service::OutcomeReport NextReport();

  /// transit: task and §4.3 method drawn uniformly.
  service::TransitiveTrustRequest NextTransit();

 private:
  const graph::Graph& graph_;
  std::uint64_t seed_;
  std::size_t client_;
  std::size_t clients_;
  std::size_t owned_;
  Rng rng_;
};

/// Canonical text of the first `count` requests of `kind`'s stream for
/// one client — what the self-test compares across seeds. Delegation
/// streams take trustee = first candidate as the response.
std::string StreamFingerprint(const graph::Graph& graph, std::uint64_t seed,
                              WorkloadKind kind, std::size_t client,
                              std::size_t clients, std::size_t count);

}  // namespace siot::e2e

#endif  // SIOT_E2EBENCH_E2E_STREAMS_H_
