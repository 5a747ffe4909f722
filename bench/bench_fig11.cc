// Copyright 2026 The siot-trust Authors.
// Fig. 11 — average numbers of potential trustees vs number of
// characteristics in the network, for the three transitivity methods.

#include "bench/bench_util.h"
#include "bench/transitivity_sweep.h"
#include "trust/overlay_snapshot.h"

namespace siot {
namespace {

void PrintReproduction() {
  bench::PrintBanner("Figure 11",
                     "Average numbers of potential trustees vs number of "
                     "characteristics (3 transitivity methods)");
  const auto points = bench::RunTransitivitySweep(2026);
  bench::PrintSweepMetric(
      points, "Average number of potential trustees",
      [](const sim::TransitivityMethodResult& r) {
        return r.avg_potential_trustees;
      },
      2);
  std::printf(
      "\nPaper's reading (§5.5): the more potential trustees a trustor can\n"
      "find, the better the chance a task is accomplished; the aggressive\n"
      "method guarantees the most potential trustees, the traditional\n"
      "method the fewest.\n");
}

void BM_PotentialTrusteeCount(benchmark::State& state) {
  const graph::SocialDataset dataset =
      graph::LoadDataset(graph::SocialNetwork::kGooglePlus);
  Rng rng(5);
  sim::WorldConfig world_config;
  world_config.characteristic_count =
      static_cast<std::size_t>(state.range(0));
  const sim::SiotWorld world =
      sim::SiotWorld::BuildRandom(dataset.graph, world_config, rng);
  trust::TransitivityParams params;
  params.omega1 = 0.0;
  params.omega2 = 0.0;
  const trust::TrustOverlaySnapshot snapshot(dataset.graph, world);
  const trust::TransitivitySearch search(snapshot, world.catalog(), params);
  Rng request_rng(6);
  for (auto _ : state) {
    const trust::TaskId request = world.SampleRequest(request_rng);
    const auto result = search.FindPotentialTrustees(
        1, world.catalog().Get(request),
        trust::TransitivityMethod::kAggressive);
    benchmark::DoNotOptimize(result.trustees.size());
  }
}
BENCHMARK(BM_PotentialTrusteeCount)->Arg(4)->Arg(7);

}  // namespace
}  // namespace siot

SIOT_BENCH_MAIN(siot::PrintReproduction)
