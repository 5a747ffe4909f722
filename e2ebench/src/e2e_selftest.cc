// Copyright 2026 The siot-trust Authors.
// Self-test of the benchmark's own code: the percentile rule, request
// stream determinism and the traced-run residual arithmetic. Exits
// non-zero on the first failed expectation.
//
//   ./.bench_build/siot_e2e_selftest

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "e2e_stats.h"
#include "e2e_streams.h"

namespace siot::e2e {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;
}

void TestPercentiles() {
  Expect(SamplesBeyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  Expect(SamplesBeyond(999, 0.99) == 9, "999 samples leave 9 beyond p99");
  const LatencySummary small = Summarize(Ramp(999));
  Expect(!small.p99.has_value(), "p99 withheld with fewer than 10 beyond it");
  Expect(small.count == 999 && small.p50 == 500.0, "p50 and count of 999");
  const LatencySummary full = Summarize(Ramp(1000));
  Expect(full.p99.has_value() && *full.p99 == 990.0,
         "p99 of 1..1000 is 990 with exactly 10 beyond it");
  Expect(full.p50 == 500.0 && full.mean == 500.5, "p50 and mean of 1..1000");
  Expect(DescribeLatency(small, "us").find("n=999") != std::string::npos,
         "the description prints the sample count");
  Expect(DescribeLatency(full, "us").find("n=1000") != std::string::npos &&
             DescribeLatency(full, "us").find("p99 990.0") !=
                 std::string::npos,
         "the description prints p99 and the sample count");
  Expect(Summarize({}).count == 0, "an empty series summarizes to n=0");
}

void TestResidual() {
  const std::vector<LayerTerm> terms = {{10.0, 64}, {2.5, 64}, {900.0, 1}};
  Expect(std::fabs(Residual(2000.0, terms) - 300.0) < 1e-9,
         "residual = e2e mean - sum(layer mean x calls per op)");
  Expect(Residual(5.0, {}) == 5.0, "no layer terms leave the whole call");
  const std::vector<LayerTerm> over = {{8.0, 1}};
  Expect(Residual(5.0, over) == -3.0, "a slower replay gives a negative residual");
}

void TestStreams() {
  auto graph = GenerateWorkloadGraph(2000, 7);
  Expect(graph.ok(), "a 2000-agent graph generates");
  if (!graph.ok()) return;
  const double degree = graph->AverageDegree();
  Expect(std::fabs(degree - static_cast<double>(kMeanDegree)) < 1e-9,
         "the graph's mean degree is pinned to 24");
  auto again = GenerateWorkloadGraph(2000, 7);
  Expect(again.ok() && again->Neighbors(17).size() == graph->Neighbors(17).size(),
         "one seed gives one graph");
  for (const WorkloadKind kind :
       {WorkloadKind::kDecide, WorkloadKind::kReport, WorkloadKind::kTransit}) {
    const std::string a = StreamFingerprint(*graph, 11, kind, 1, 3, 200);
    const std::string b = StreamFingerprint(*graph, 11, kind, 1, 3, 200);
    const std::string c = StreamFingerprint(*graph, 12, kind, 1, 3, 200);
    const std::string d = StreamFingerprint(*graph, 11, kind, 2, 3, 200);
    Expect(!a.empty() && a == b, "one seed gives one request stream");
    Expect(a != c, "a different seed gives a different request stream");
    Expect(a != d, "different clients get different request streams");
  }
  // Clients own disjoint trustors.
  bool disjoint = true;
  for (std::size_t client = 0; client < 3; ++client) {
    RequestStream stream(*graph, 5, client, 3);
    for (int i = 0; i < 500; ++i) {
      if (stream.NextTrustor() % 3 != client) disjoint = false;
    }
  }
  Expect(disjoint, "each client draws only its own trustors");
  const auto warm = WarmReports(*graph, 3, 42, 10);
  bool distinct = warm.size() == 10;
  for (std::size_t i = 0; i < warm.size(); ++i) {
    for (std::size_t j = i + 1; j < warm.size(); ++j) {
      if (warm[i].trustee == warm[j].trustee && warm[i].task == warm[j].task) {
        distinct = false;
      }
    }
  }
  Expect(distinct, "warm-up writes exactly 10 distinct records per agent");
  Expect(FindWorkload("decide-10k") != nullptr &&
             FindWorkload("restart-100k")->agents *
                     FindWorkload("restart-100k")->records_per_agent ==
                 100'000,
         "workload names state their sizes");
}

}  // namespace
}  // namespace siot::e2e

int main() {
  siot::e2e::TestPercentiles();
  siot::e2e::TestResidual();
  siot::e2e::TestStreams();
  std::printf("%s\n", siot::e2e::failures == 0 ? "all self-tests passed"
                                               : "self-tests FAILED");
  return siot::e2e::failures == 0 ? 0 : 1;
}
