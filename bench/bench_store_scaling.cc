// Copyright 2026 The siot-trust Authors.
// Store-scaling bench: quantifies the pair-major TrustStore against the
// original flat-scan layout, on the largest bundled dataset (Google+). The
// old layout kept every (trustor, trustee, task) record in one hash map, so
// every DirectExperience lookup scanned the ENTIRE store — capturing the
// overlay snapshot the transitivity search runs on was O(E · total-records)
// instead of O(E · tasks-per-pair). This binary times that snapshot build
// over both layouts, checks that searches over the two snapshots return
// identical results, times the snapshot search, and shows the parallel
// runner scaling the full experiment with bit-identical output.

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/table.h"
#include "graph/datasets.h"
#include "sim/network_setup.h"
#include "sim/transitivity_experiment.h"
#include "trust/overlay_builder.h"
#include "trust/overlay_snapshot.h"
#include "trust/transitivity.h"
#include "trust/trust_store.h"

namespace siot {
namespace {

// ------------------------------------------------------------------------
// Flat-scan baseline: the pre-pair-major store layout. One hash map over
// full (trustor, trustee, task) keys; per-pair queries scan every record.
// Kept verbatim here as the measured "before".
// ------------------------------------------------------------------------

class FlatTrustStore {
 public:
  void Put(trust::AgentId trustor, trust::AgentId trustee,
           trust::TaskId task, const trust::OutcomeEstimates& estimates) {
    records_[trust::TrustKey{trustor, trustee, task}] =
        trust::TrustRecord{estimates, 0};
  }

  std::optional<trust::TrustRecord> Find(trust::AgentId trustor,
                                         trust::AgentId trustee,
                                         trust::TaskId task) const {
    const auto it = records_.find(trust::TrustKey{trustor, trustee, task});
    if (it == records_.end()) return std::nullopt;
    return it->second;
  }

  std::vector<trust::TaskId> ExperiencedTasks(
      trust::AgentId trustor, trust::AgentId trustee) const {
    std::vector<trust::TaskId> tasks;
    for (const auto& [key, record] : records_) {
      if (key.trustor == trustor && key.trustee == trustee) {
        tasks.push_back(key.task);
      }
    }
    std::sort(tasks.begin(), tasks.end());
    return tasks;
  }

  std::size_t size() const { return records_.size(); }

 private:
  std::unordered_map<trust::TrustKey, trust::TrustRecord,
                     trust::TrustKeyHash>
      records_;
};

/// The overlay over the pre-pair-major store: one full-store scan for the
/// task list, then one hash probe per task.
class FlatScanOverlay : public trust::TrustOverlay {
 public:
  FlatScanOverlay(const FlatTrustStore& store,
                  const trust::Normalizer& normalizer)
      : store_(store), normalizer_(normalizer) {}

  std::vector<trust::TaskExperience> DirectExperience(
      trust::AgentId observer, trust::AgentId subject) const override {
    std::vector<trust::TaskExperience> out;
    for (trust::TaskId task : store_.ExperiencedTasks(observer, subject)) {
      const auto record = store_.Find(observer, subject, task);
      if (record.has_value()) {
        out.push_back({task, trust::TrustworthinessFromEstimates(
                                 record->estimates, normalizer_)});
      }
    }
    return out;
  }

 private:
  const FlatTrustStore& store_;
  trust::Normalizer normalizer_;
};

// ------------------------------------------------------------------------
// Shared fixture: Google+ world, both stores populated identically — for
// every directed edge (u, v), the records u holds about v's experienced
// tasks.
// ------------------------------------------------------------------------

struct Fixture {
  graph::SocialDataset dataset;
  sim::SiotWorld world;
  trust::Normalizer normalizer{trust::NormalizationRange::kUnit, 1.0};
  FlatTrustStore flat_store;
  trust::TrustStore pair_store;
  std::vector<std::pair<trust::AgentId, trust::TaskId>> queries;

  static const Fixture& Get() {
    static const Fixture* fixture = new Fixture();
    return *fixture;
  }

  /// The pair-major store as the overlay a one-shard service reads.
  trust::ShardedStoreOverlay PairOverlay() const {
    return trust::ShardedStoreOverlay(
        {&pair_store}, normalizer,
        [](trust::AgentId) { return std::size_t{0}; });
  }

 private:
  Fixture()
      : dataset(graph::LoadDataset(graph::SocialNetwork::kGooglePlus)),
        world(MakeWorld(dataset)) {
    const graph::Graph& graph = dataset.graph;
    for (graph::NodeId u = 0; u < graph.node_count(); ++u) {
      for (graph::NodeId v : graph.Neighbors(u)) {
        for (const trust::TaskExperience& exp :
             world.DirectExperience(u, v)) {
          // Estimates whose Eq. 18 trustworthiness is exp.trustworthiness
          // under the unit normalizer: raw profit S·G − (1−S)·D − C with
          // G=1, D=1, C=0 equals 2S−1, and N maps [-2,1] → [0,1].
          const double s = (3.0 * exp.trustworthiness - 1.0) / 2.0;
          const trust::OutcomeEstimates estimates{s, 1.0, 1.0, 0.0};
          flat_store.Put(u, v, exp.task, estimates);
          pair_store.Put(u, v, exp.task, estimates);
        }
      }
    }
    Rng rng(17);
    for (int i = 0; i < 16; ++i) {
      queries.emplace_back(
          static_cast<trust::AgentId>(rng.NextBounded(graph.node_count())),
          world.SampleRequest(rng));
    }
  }

  static sim::SiotWorld MakeWorld(const graph::SocialDataset& dataset) {
    Rng rng(2026);
    sim::WorldConfig config;
    config.characteristic_count = 6;
    return sim::SiotWorld::BuildRandom(dataset.graph, config, rng);
  }
};

trust::TransitivityParams SweepParams() {
  trust::TransitivityParams params;
  params.omega1 = 0.5;
  params.omega2 = 0.0;
  params.max_hops = 5;
  return params;
}

bool SameResult(const trust::TransitivityResult& a,
                const trust::TransitivityResult& b) {
  if (a.inquired_nodes != b.inquired_nodes ||
      a.trustees.size() != b.trustees.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.trustees.size(); ++i) {
    if (a.trustees[i].agent != b.trustees[i].agent ||
        a.trustees[i].trustworthiness != b.trustees[i].trustworthiness ||
        a.trustees[i].per_characteristic !=
            b.trustees[i].per_characteristic) {
      return false;
    }
  }
  return true;
}

double MillisPerQuery(const trust::TransitivitySearch& search,
                      std::vector<trust::TransitivityResult>* results) {
  const Fixture& fixture = Fixture::Get();
  const auto start = std::chrono::steady_clock::now();
  for (const auto& [trustor, task] : fixture.queries) {
    for (const trust::TransitivityMethod method :
         sim::kAllTransitivityMethods) {
      results->push_back(search.FindPotentialTrustees(
          trustor, fixture.world.catalog().Get(task), method));
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count() /
         static_cast<double>(fixture.queries.size() * 3);
}

/// Captures `overlay` over the fixture's graph; `*ms` gets the build's
/// wall-clock time.
std::unique_ptr<trust::TrustOverlaySnapshot> TimedSnapshot(
    const trust::TrustOverlay& overlay, double* ms) {
  const auto start = std::chrono::steady_clock::now();
  auto snapshot = std::make_unique<trust::TrustOverlaySnapshot>(
      Fixture::Get().dataset.graph, overlay);
  *ms = std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
  return snapshot;
}

void PrintReproduction() {
  bench::PrintBanner(
      "Store scaling",
      "Pair-major TrustStore + overlay snapshot vs the flat-scan baseline "
      "(§5.5 workload)");
  const Fixture& fixture = Fixture::Get();
  std::printf(
      "Google+ stand-in: %zu nodes, %zu directed edges, %zu trust "
      "records\n\n",
      fixture.dataset.graph.node_count(),
      2 * fixture.dataset.graph.edge_count(), fixture.pair_store.size());

  const FlatScanOverlay flat_overlay(fixture.flat_store, fixture.normalizer);
  const trust::ShardedStoreOverlay pair_overlay = fixture.PairOverlay();
  double flat_ms = 0.0;
  double pair_ms = 0.0;
  const auto flat_snapshot = TimedSnapshot(flat_overlay, &flat_ms);
  const auto pair_snapshot = TimedSnapshot(pair_overlay, &pair_ms);
  const trust::TransitivitySearch flat_search(
      *flat_snapshot, fixture.world.catalog(), SweepParams());
  const trust::TransitivitySearch pair_search(
      *pair_snapshot, fixture.world.catalog(), SweepParams());

  // The two snapshots must be interchangeable: the same queries over each
  // give identical answers. The search is timed over the pair-major one.
  std::vector<trust::TransitivityResult> flat_results, pair_results;
  MillisPerQuery(flat_search, &flat_results);
  const double search_ms = MillisPerQuery(pair_search, &pair_results);
  bool identical = true;
  for (std::size_t i = 0; i < flat_results.size(); ++i) {
    identical = identical && SameResult(flat_results[i], pair_results[i]);
  }

  TextTable table("Overlay snapshot build (one pass over every directed "
                  "edge)");
  table.SetHeader({"store", "build ms", "speedup vs flat"});
  table.AddRow({"flat-scan store (baseline)", FormatDouble(flat_ms, 3),
                "1.0"});
  table.AddRow({"pair-major store", FormatDouble(pair_ms, 3),
                FormatDouble(flat_ms / pair_ms, 1)});
  std::fputs(table.Render().c_str(), stdout);
  std::printf(
      "snapshot search + task cache: %s ms/query (%zu queries, 3 methods "
      "each)\n",
      FormatDouble(search_ms, 3).c_str(), fixture.queries.size());
  std::printf("search results identical across stores: %s\n\n",
              identical ? "yes" : "NO — BUG");

  // Parallel runner: full §5.5 experiment on the same dataset, wall-clock
  // by thread count, asserting bit-identical outputs.
  sim::TransitivityConfig config;
  config.world.characteristic_count = 6;
  config.seed = 2026;
  TextTable scaling("Full experiment wall-clock by threads (seed 2026)");
  scaling.SetHeader({"threads", "ms", "speedup", "identical to serial"});
  sim::TransitivityResult serial;
  double serial_ms = 0.0;
  const std::vector<std::size_t> thread_counts =
      bench::QuickMode() ? std::vector<std::size_t>{1, 2}
                         : std::vector<std::size_t>{1, 2, 4, 8};
  for (const std::size_t threads : thread_counts) {
    config.threads = threads;
    const auto start = std::chrono::steady_clock::now();
    const sim::TransitivityResult result =
        sim::RunTransitivityExperiment(fixture.dataset, config);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const double ms =
        std::chrono::duration<double, std::milli>(elapsed).count();
    bool same = true;
    if (threads == 1) {
      serial = result;
      serial_ms = ms;
    } else {
      for (std::size_t m = 0; m < serial.methods.size(); ++m) {
        const auto& a = serial.methods[m];
        const auto& b = result.methods[m];
        same = same && a.tally.successes == b.tally.successes &&
               a.tally.failures == b.tally.failures &&
               a.tally.unavailable == b.tally.unavailable &&
               a.avg_potential_trustees == b.avg_potential_trustees &&
               a.inquired_per_trustor == b.inquired_per_trustor;
      }
    }
    scaling.AddRow({StrFormat("%zu", threads), FormatDouble(ms, 1),
                    FormatDouble(serial_ms / ms, 2),
                    threads == 1 ? "-" : (same ? "yes" : "NO — BUG")});
  }
  std::fputs(scaling.Render().c_str(), stdout);
  std::printf(
      "hardware threads available: %u — wall-clock speedup is bounded by\n"
      "this; the determinism column must read \"yes\" at every thread "
      "count.\n",
      std::thread::hardware_concurrency());
}

// ------------------------------------------------------------- kernels --

void BM_ExperiencedTasksFlatScan(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  Rng rng(3);
  const std::size_t n = fixture.dataset.graph.node_count();
  for (auto _ : state) {
    const auto u = static_cast<trust::AgentId>(rng.NextBounded(n));
    const auto v = static_cast<trust::AgentId>(rng.NextBounded(n));
    benchmark::DoNotOptimize(fixture.flat_store.ExperiencedTasks(u, v));
  }
}
BENCHMARK(BM_ExperiencedTasksFlatScan);

void BM_ExperiencedTasksPairMajor(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  Rng rng(3);
  const std::size_t n = fixture.dataset.graph.node_count();
  for (auto _ : state) {
    const auto u = static_cast<trust::AgentId>(rng.NextBounded(n));
    const auto v = static_cast<trust::AgentId>(rng.NextBounded(n));
    benchmark::DoNotOptimize(fixture.pair_store.ExperiencedTasks(u, v));
  }
}
BENCHMARK(BM_ExperiencedTasksPairMajor);

void BM_SearchSnapshot(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  const trust::ShardedStoreOverlay overlay = fixture.PairOverlay();
  const trust::TrustOverlaySnapshot snapshot(fixture.dataset.graph,
                                             overlay);
  const trust::TransitivitySearch search(snapshot, fixture.world.catalog(),
                                         SweepParams());
  const auto method = static_cast<trust::TransitivityMethod>(state.range(0));
  std::size_t q = 0;
  for (auto _ : state) {
    const auto& [trustor, task] =
        fixture.queries[q++ % fixture.queries.size()];
    benchmark::DoNotOptimize(search.FindPotentialTrustees(
        trustor, fixture.world.catalog().Get(task), method));
  }
}
BENCHMARK(BM_SearchSnapshot)->Arg(0)->Arg(1)->Arg(2);

void BM_SnapshotBuild(benchmark::State& state) {
  const Fixture& fixture = Fixture::Get();
  const trust::ShardedStoreOverlay overlay = fixture.PairOverlay();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trust::TrustOverlaySnapshot(fixture.dataset.graph, overlay));
  }
}
BENCHMARK(BM_SnapshotBuild);

}  // namespace
}  // namespace siot

SIOT_BENCH_MAIN(siot::PrintReproduction)
