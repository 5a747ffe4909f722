// Copyright 2026 The siot-trust Authors.
// Shared sweep for Figs. 9–11: the §5.5 transitivity experiment over
// characteristic counts {4,5,6,7} × three networks × three methods.

#ifndef SIOT_BENCH_TRANSITIVITY_SWEEP_H_
#define SIOT_BENCH_TRANSITIVITY_SWEEP_H_

#include <cstdio>
#include <vector>

#include "common/string_util.h"
#include "common/table.h"
#include "graph/datasets.h"
#include "sim/transitivity_experiment.h"

namespace siot::bench {

struct SweepPoint {
  graph::SocialNetwork network;
  std::size_t characteristics;
  sim::TransitivityResult result;
};

/// Runs the full sweep. `threads` is each experiment run's ParallelFor
/// thread count; the results are bit-identical for every thread count.
inline std::vector<SweepPoint> RunTransitivitySweep(std::uint64_t seed,
                                                    std::size_t threads = 1) {
  std::vector<SweepPoint> points;
  for (const graph::SocialNetwork network : graph::kAllNetworks) {
    const graph::SocialDataset dataset = graph::LoadDataset(network);
    for (const std::size_t chars : {4ul, 5ul, 6ul, 7ul}) {
      sim::TransitivityConfig config;
      config.world.characteristic_count = chars;
      config.requests_per_trustor = 3;
      config.seed = seed;
      config.threads = threads;
      points.push_back(
          {network, chars, sim::RunTransitivityExperiment(dataset, config)});
    }
  }
  return points;
}

/// Prints one metric of the sweep as the paper's figure series: one row
/// per (network, method), one column per characteristic count.
template <typename MetricFn>
void PrintSweepMetric(const std::vector<SweepPoint>& points,
                      const char* metric_name, MetricFn metric,
                      int decimals) {
  TextTable table;
  table.SetHeader({"Series", "4 chars", "5 chars", "6 chars", "7 chars"});
  for (const graph::SocialNetwork network : graph::kAllNetworks) {
    for (const trust::TransitivityMethod method :
         {trust::TransitivityMethod::kAggressive,
          trust::TransitivityMethod::kConservative,
          trust::TransitivityMethod::kTraditional}) {
      std::vector<std::string> row = {
          std::string(graph::SocialNetworkName(network)) + " " +
          std::string(trust::TransitivityMethodName(method))};
      for (const SweepPoint& point : points) {
        if (point.network != network) continue;
        row.push_back(
            FormatDouble(metric(point.result.ForMethod(method)), decimals));
      }
      table.AddRow(row);
    }
  }
  std::printf("%s by number of characteristics in the network:\n",
              metric_name);
  std::fputs(table.Render().c_str(), stdout);
}

}  // namespace siot::bench

#endif  // SIOT_BENCH_TRANSITIVITY_SWEEP_H_
