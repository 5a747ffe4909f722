// Copyright 2026 The siot-trust Authors.
// Fig. 9 — success rates of task delegation vs number of characteristics
// in the network, for the traditional / conservative / aggressive trust
// transitivity methods on the three social networks.

#include "bench/bench_util.h"
#include "bench/transitivity_sweep.h"
#include "trust/overlay_snapshot.h"

namespace siot {
namespace {

void PrintReproduction() {
  bench::PrintBanner("Figure 9",
                     "Success rates of task delegation vs number of "
                     "characteristics (3 transitivity methods)");
  const auto points = bench::RunTransitivitySweep(2026);
  bench::PrintSweepMetric(
      points, "Success rate",
      [](const sim::TransitivityMethodResult& r) {
        return r.tally.success_rate();
      },
      3);
  std::printf(
      "\nPaper's reading (§5.5): success rates decrease as characteristics\n"
      "multiply; conservative and aggressive transitivity beat the\n"
      "traditional transfer (aggressive improves success by > 0.2), with\n"
      "aggressive slightly ahead of conservative.\n");
}

void BM_TransitivitySearch(benchmark::State& state) {
  const graph::SocialDataset dataset =
      graph::LoadDataset(graph::SocialNetwork::kFacebook);
  Rng rng(7);
  sim::WorldConfig world_config;
  world_config.characteristic_count = 6;
  const sim::SiotWorld world =
      sim::SiotWorld::BuildRandom(dataset.graph, world_config, rng);
  trust::TransitivityParams params;
  params.omega1 = 0.0;
  params.omega2 = 0.0;
  const trust::TrustOverlaySnapshot snapshot(dataset.graph, world);
  const trust::TransitivitySearch search(snapshot, world.catalog(), params);
  const auto method =
      static_cast<trust::TransitivityMethod>(state.range(0));
  Rng request_rng(9);
  for (auto _ : state) {
    const trust::TaskId request = world.SampleRequest(request_rng);
    benchmark::DoNotOptimize(search.FindPotentialTrustees(
        0, world.catalog().Get(request), method));
  }
}
BENCHMARK(BM_TransitivitySearch)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace siot

SIOT_BENCH_MAIN(siot::PrintReproduction)
