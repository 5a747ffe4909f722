// Copyright 2026 The siot-trust Authors.

#include "sim/transitivity_experiment.h"

#include "common/macros.h"
#include "common/parallel_for.h"
#include "trust/overlay_snapshot.h"

namespace siot::sim {

const TransitivityMethodResult& TransitivityResult::ForMethod(
    trust::TransitivityMethod method) const {
  for (const auto& m : methods) {
    if (m.method == method) return m;
  }
  SIOT_CHECK_MSG(false, "method not present in result");
  return methods.front();
}

namespace {

/// Per-trustor measurement slot — each parallel work item writes only its
/// own slot; aggregation walks the slots in trustor order.
struct TrustorStats {
  DelegationTally tally;
  std::size_t inquired = 0;
  std::size_t potential_sum = 0;
  std::size_t samples = 0;
};

}  // namespace

TransitivityResult RunTransitivityExperiment(
    const graph::SocialDataset& dataset, const TransitivityConfig& config) {
  const graph::Graph& graph = dataset.graph;
  Rng rng(config.seed);

  SiotWorld world =
      config.use_features
          ? SiotWorld::BuildFromFeatures(graph, dataset.features,
                                         dataset.feature_count, config.world,
                                         rng)
          : SiotWorld::BuildRandom(graph, config.world, rng);

  const Population population =
      BuildPopulation(graph, config.population, rng);

  // Pre-draw each trustor's request sequence so all three methods answer
  // the SAME requests — the comparison isolates the transfer scheme.
  std::vector<std::vector<trust::TaskId>> requests(graph.node_count());
  for (trust::AgentId x : population.trustors) {
    for (std::size_t r = 0; r < config.requests_per_trustor; ++r) {
      requests[x].push_back(world.SampleRequest(rng));
    }
  }
  const std::uint64_t outcome_seed = rng.Next();

  // Materialize the direct-experience overlay once, build ONE
  // snapshot-backed search over it, and precompute the per-task hop caches
  // for every requested task — the builds are independent, so they fan out
  // over the threads. After preparation every query only reads the caches,
  // so all threads (and all three methods) share the single search.
  const trust::TrustOverlaySnapshot snapshot(graph, world);

  trust::TransitivityParams params;
  params.omega1 = config.omega1;
  params.omega2 = config.omega2;
  params.max_hops = config.max_hops;
  params.trustee_eligible = [&population](trust::AgentId agent) {
    return population.IsTrustee(agent);
  };
  trust::TransitivitySearch search(snapshot, world.catalog(), params);
  {
    std::vector<trust::TaskId> requested;
    for (trust::AgentId x : population.trustors) {
      requested.insert(requested.end(), requests[x].begin(),
                       requests[x].end());
    }
    search.PrepareTasks(requested, config.threads);
  }

  TransitivityResult result;
  result.network = dataset.network;
  result.characteristic_count = config.world.characteristic_count;

  for (const trust::TransitivityMethod method : kAllTransitivityMethods) {
    const std::uint64_t method_seed =
        MixSeed(outcome_seed, static_cast<std::uint64_t>(method) + 100);
    std::vector<TrustorStats> stats(population.trustors.size());
    ParallelFor(
        config.threads, population.trustors.size(),
        [&](std::size_t index) {
          const trust::AgentId x = population.trustors[index];
          Rng outcome_rng = DeriveStream(method_seed, x);
          TrustorStats& slot = stats[index];
          for (const trust::TaskId request : requests[x]) {
            const trust::Task& task = world.catalog().Get(request);
            const trust::TransitivityResult found =
                search.FindPotentialTrustees(x, task, method);
            slot.inquired += found.inquired_nodes;
            slot.potential_sum += found.trustees.size();
            ++slot.samples;
            if (found.trustees.empty()) {
              slot.tally.AddUnavailable();
              continue;
            }
            // Delegate to the potential trustee with the highest
            // transferred trustworthiness; the outcome follows its hidden
            // competence.
            const trust::AgentId chosen = found.trustees.front().agent;
            const bool success =
                outcome_rng.Bernoulli(world.Competence(chosen, request));
            if (success) {
              slot.tally.AddSuccess(/*abusive=*/false);
            } else {
              slot.tally.AddFailure(/*abusive=*/false);
            }
          }
        });

    TransitivityMethodResult method_result;
    method_result.method = method;
    std::size_t potential_sum = 0;
    std::size_t potential_samples = 0;
    method_result.inquired_per_trustor.reserve(stats.size());
    for (const TrustorStats& slot : stats) {
      method_result.tally.Merge(slot.tally);
      method_result.inquired_per_trustor.push_back(slot.inquired);
      potential_sum += slot.potential_sum;
      potential_samples += slot.samples;
    }
    method_result.avg_potential_trustees =
        potential_samples == 0
            ? 0.0
            : static_cast<double>(potential_sum) /
                  static_cast<double>(potential_samples);
    result.methods.push_back(std::move(method_result));
  }
  return result;
}

}  // namespace siot::sim
