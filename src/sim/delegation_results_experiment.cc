// Copyright 2026 The siot-trust Authors.

#include "sim/delegation_results_experiment.h"

#include <unordered_map>

#include "common/macros.h"
#include "common/parallel_for.h"

namespace siot::sim {

namespace {

/// Hidden ground truth of one (trustor, trustee) pairing.
struct PairTruth {
  double success_rate;  ///< Trustee's actual success probability.
  double gain;          ///< Realized gain on success.
  double damage;        ///< Realized damage on failure.
  double cost;          ///< Realized cost either way.
};

}  // namespace

const StrategyTrace& DelegationResultsOutcome::ForStrategy(
    trust::SelectionStrategy strategy) const {
  for (const auto& s : strategies) {
    if (s.strategy == strategy) return s;
  }
  SIOT_CHECK_MSG(false, "strategy not present in outcome");
  return strategies.front();
}

DelegationResultsOutcome RunDelegationResultsExperiment(
    const graph::SocialDataset& dataset,
    const DelegationResultsConfig& config) {
  const graph::Graph& graph = dataset.graph;
  Rng rng(config.seed);
  const Population population =
      BuildPopulation(graph, config.population, rng);

  // "Every trustor selects its trustee among the potential trustees":
  // every trustee-role node is a candidate for every trustor.
  const std::vector<trust::AgentId>& candidate_pool = population.trustees;

  // Hidden truths per trustee ("we assign each potential trustee random
  // values of the expected success rate, gain, damage, and cost"), fixed
  // across both strategies.
  std::unordered_map<trust::AgentId, PairTruth> truths;
  for (trust::AgentId y : candidate_pool) {
    truths[y] = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble(),
                 rng.NextDouble()};
  }
  auto truth = [&](trust::AgentId y) -> const PairTruth& {
    return truths.at(y);
  };

  const trust::ForgettingFactors beta =
      trust::ForgettingFactors::Uniform(config.beta);

  DelegationResultsOutcome outcome;
  outcome.network = dataset.network;

  const std::uint64_t strategy_seed_base = rng.Next();

  for (const trust::SelectionStrategy strategy :
       {trust::SelectionStrategy::kMaxSuccessRate,
        trust::SelectionStrategy::kMaxNetProfit}) {
    const std::uint64_t strategy_seed = MixSeed(
        strategy_seed_base, static_cast<std::uint64_t>(strategy) + 17);
    // Each trustor's learning loop touches only its own estimates, so the
    // trustors run in parallel; per-trustor profit traces are merged in
    // trustor order afterwards to keep the output bit-identical for every
    // thread count.
    std::vector<std::vector<double>> profits(population.trustors.size());
    if (!candidate_pool.empty()) {
      ParallelFor(
          config.threads, population.trustors.size(),
          [&](std::size_t index) {
            const trust::AgentId x = population.trustors[index];
            Rng trustor_rng = DeriveStream(strategy_seed, x);
            // Estimates start random: the trustor initially misjudges
            // everyone and must learn the trustees' behavior from
            // delegation results.
            std::vector<trust::OutcomeEstimates> estimates(
                candidate_pool.size());
            for (auto& est : estimates) {
              est = {trustor_rng.NextDouble(), trustor_rng.NextDouble(),
                     trustor_rng.NextDouble(), trustor_rng.NextDouble()};
            }
            std::vector<double>& profit_trace = profits[index];
            profit_trace.resize(config.iterations);
            for (std::size_t iter = 0; iter < config.iterations; ++iter) {
              // Select by strategy.
              const auto best =
                  trust::SelectBestCandidate(estimates, strategy);
              SIOT_CHECK(best.ok());
              const trust::AgentId y = candidate_pool[best.value()];
              // Delegate and observe.
              const PairTruth& t = truth(y);
              const bool success = trustor_rng.Bernoulli(t.success_rate);
              const double profit =
                  success ? t.gain - t.cost : -t.damage - t.cost;
              profit_trace[iter] = profit;
              // Post-evaluation (Eqs. 19–22).
              trust::DelegationOutcome observed;
              observed.success = success;
              observed.gain = success ? t.gain : 0.0;
              observed.damage = success ? 0.0 : t.damage;
              observed.cost = t.cost;
              estimates[best.value()] = trust::UpdateEstimates(
                  estimates[best.value()], observed, beta);
            }
          });
    }
    IterationTrace trace(config.iterations);
    for (const std::vector<double>& profit_trace : profits) {
      for (std::size_t iter = 0; iter < profit_trace.size(); ++iter) {
        trace.Add(iter, profit_trace[iter]);
      }
    }

    // Downsample the trace.
    StrategyTrace strategy_trace;
    strategy_trace.strategy = strategy;
    const std::vector<double> mean = trace.Mean();
    const std::size_t stride =
        std::max<std::size_t>(1, config.iterations / config.trace_points);
    for (std::size_t i = 0; i < config.iterations; i += stride) {
      // Average the window for a smoother trace.
      double sum = 0.0;
      std::size_t count = 0;
      for (std::size_t j = i; j < std::min(i + stride, config.iterations);
           ++j) {
        sum += mean[j];
        ++count;
      }
      strategy_trace.iteration.push_back(i);
      strategy_trace.mean_profit.push_back(sum /
                                           static_cast<double>(count));
    }
    const std::size_t tail_start =
        config.iterations - std::max<std::size_t>(1, config.iterations / 10);
    double tail_sum = 0.0;
    std::size_t tail_count = 0;
    for (std::size_t i = tail_start; i < config.iterations; ++i) {
      tail_sum += mean[i];
      ++tail_count;
    }
    strategy_trace.final_profit =
        tail_sum / static_cast<double>(tail_count);
    outcome.strategies.push_back(std::move(strategy_trace));
  }
  return outcome;
}

}  // namespace siot::sim
