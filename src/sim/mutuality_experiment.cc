// Copyright 2026 The siot-trust Authors.

#include "sim/mutuality_experiment.h"

#include "common/macros.h"
#include "common/parallel_for.h"
#include "trust/mutual.h"

namespace siot::sim {

MutualityResult RunMutualityExperiment(const graph::SocialDataset& dataset,
                                       const MutualityConfig& config) {
  MutualityResult result;
  result.network = dataset.network;
  const graph::Graph& graph = dataset.graph;

  Rng rng(config.seed);
  const Population population =
      BuildPopulation(graph, config.population, rng);

  // Hidden trustor legitimacy: probability of responsible use.
  std::vector<double> legitimacy(graph.node_count(), 1.0);
  for (trust::AgentId x : population.trustors) {
    legitimacy[x] = rng.NextDouble();
  }
  // Forward trustworthiness the trustor assigns each adjacent trustee
  // (pre-evaluation); drawn once up front so every θ point ranks the same
  // candidates identically, and shared read-only across workers.
  std::vector<std::vector<trust::ScoredCandidate>> candidates(
      graph.node_count());
  for (trust::AgentId x : population.trustors) {
    for (trust::AgentId y : graph.Neighbors(x)) {
      if (!population.IsTrustee(y)) continue;
      candidates[x].push_back({y, rng.NextDouble()});
    }
  }
  const std::uint64_t theta_seed = rng.Next();

  const trust::TaskId task = 0;  // single task type τ in this experiment

  result.points.resize(config.thetas.size());
  ParallelFor(config.threads, config.thetas.size(), [&](std::size_t index) {
    const double theta = config.thetas[index];
    // Fresh reverse evaluator per θ; one θ for every trustee.
    trust::ReverseEvaluator evaluator;
    evaluator.SetDefaultThreshold(theta);
    Rng theta_rng = DeriveStream(theta_seed, index);

    // Warm-up: trustees accumulate usage statistics about adjacent
    // trustors (responsible with probability = legitimacy).
    for (trust::AgentId x : population.trustors) {
      for (const trust::ScoredCandidate& candidate : candidates[x]) {
        for (std::size_t u = 0; u < config.warmup_uses; ++u) {
          evaluator.RecordUsage(candidate.agent, x,
                                !theta_rng.Bernoulli(legitimacy[x]));
        }
      }
    }

    // Measured phase.
    MutualityPoint point;
    point.theta = theta;
    for (trust::AgentId x : population.trustors) {
      for (std::size_t r = 0; r < config.requests_per_trustor; ++r) {
        const trust::MutualSelection selection =
            trust::SelectTrusteeMutually(evaluator, x, task, candidates[x]);
        if (selection.trustee == trust::kNoAgent) {
          point.tally.AddUnavailable();
          continue;
        }
        const bool abusive = !theta_rng.Bernoulli(legitimacy[x]);
        point.tally.AddSuccess(abusive);
        // Post-evaluation: the trustee records how its resources were used,
        // sharpening future reverse evaluations.
        evaluator.RecordUsage(selection.trustee, x, abusive);
      }
    }
    result.points[index] = point;
  });
  return result;
}

}  // namespace siot::sim
