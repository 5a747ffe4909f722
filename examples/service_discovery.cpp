// Copyright 2026 The siot-trust Authors.
//
// Transitivity of trust for service discovery (§4.3): a smart-city node
// needs an air-quality service it has no direct experience with, so trust
// must travel through intermediate social nodes. The example builds a
// small social IoT over the bundled Facebook-like connectivity and
// contrasts the traditional exact-task transfer (Eq. 5) with the paper's
// conservative and aggressive characteristic-based schemes (Eqs. 7–17).
//
// Build: cmake --build build && ./build/examples/service_discovery

#include <cstdio>

#include "common/rng.h"
#include "common/string_util.h"
#include "graph/datasets.h"
#include "sim/network_setup.h"
#include "trust/overlay_snapshot.h"
#include "trust/transitivity.h"

using namespace siot;

int main() {
  // Connectivity: the bundled Facebook-like sub-network (347 nodes).
  const graph::SocialDataset dataset =
      graph::LoadDataset(graph::SocialNetwork::kFacebook);
  std::printf("Social IoT: %zu nodes, %zu edges (Facebook-like)\n\n",
              dataset.graph.node_count(), dataset.graph.edge_count());

  // World: 6 characteristics (PM2.5, NO2, O3, humidity, temp, wind),
  // every node experienced two tasks built from them.
  Rng rng(7);
  sim::WorldConfig world_config;
  world_config.characteristic_count = 6;
  const sim::SiotWorld world =
      sim::SiotWorld::BuildRandom(dataset.graph, world_config, rng);

  // The request: a fused air-quality index needing two characteristics.
  const trust::TaskId request = world.SampleRequest(rng);
  const trust::Task& task = world.catalog().Get(request);
  std::printf("Requested task '%s' (%zu characteristics, mask 0x%llx)\n\n",
              task.name().c_str(), task.characteristic_count(),
              static_cast<unsigned long long>(task.mask()));

  trust::TransitivityParams params;
  params.omega1 = 0.5;  // recommendation gate (§4.3)
  params.omega2 = 0.0;  // rank every covered candidate
  params.max_hops = 5;
  const trust::TrustOverlaySnapshot snapshot(dataset.graph, world);
  const trust::TransitivitySearch search(snapshot, world.catalog(), params);

  // Request from a well-connected node (the "ego" of a big circle).
  trust::AgentId requester = 0;
  for (graph::NodeId v = 0; v < dataset.graph.node_count(); ++v) {
    if (dataset.graph.Degree(v) > dataset.graph.Degree(requester)) {
      requester = v;
    }
  }
  std::printf("Requester: node %u (degree %zu)\n\n", requester,
              dataset.graph.Degree(requester));
  std::printf("%-14s %10s %14s %12s  best candidates\n", "Method",
              "trustees", "inquired", "best TW");
  for (const trust::TransitivityMethod method :
       {trust::TransitivityMethod::kTraditional,
        trust::TransitivityMethod::kConservative,
        trust::TransitivityMethod::kAggressive}) {
    const trust::TransitivityResult result =
        search.FindPotentialTrustees(requester, task, method);
    const std::string best_tw =
        result.trustees.empty()
            ? std::string("-")
            : FormatDouble(result.trustees.front().trustworthiness, 3);
    std::printf("%-14s %10zu %14zu %12s  ",
                std::string(trust::TransitivityMethodName(method)).c_str(),
                result.trustees.size(), result.inquired_nodes,
                best_tw.c_str());
    for (std::size_t i = 0; i < std::min<std::size_t>(3,
                                                      result.trustees.size());
         ++i) {
      std::printf("#%u(%.2f) ", result.trustees[i].agent,
                  result.trustees[i].trustworthiness);
    }
    std::printf("\n");
  }

  std::printf(
      "\nThe characteristic-based schemes reach trustees the exact-task\n"
      "transfer cannot, at the price of interrogating more nodes — the\n"
      "trade-off Figs. 9-12 of the paper quantify. Within the proposed\n"
      "pair, the aggressive scheme lets each characteristic travel its own\n"
      "path (Fig. 5b), finding the most candidates.\n");
  return 0;
}
