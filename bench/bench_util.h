// Copyright 2026 The siot-trust Authors.
// Shared scaffolding for the reproduction benches. Every bench binary
// reproduces one table or figure of the paper: it first prints the
// regenerated rows/series (next to the paper's reported values where the
// paper gives exact numbers), then runs google-benchmark timings of the
// kernels involved.

#ifndef SIOT_BENCH_BENCH_UTIL_H_
#define SIOT_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

namespace siot::bench {

/// A fresh, empty scratch directory under the system temp directory,
/// named by `tag` and the process id: a fixed path would let two
/// concurrent bench runs (e.g. a baseline and a candidate) truncate each
/// other's WAL mid-tail. The caller removes it.
inline std::string BenchDir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("siot_bench_" + std::to_string(::getpid()) + "_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// True when SIOT_BENCH_QUICK is set (to anything but "0"): the CI
/// bench-smoke mode. Benches shrink their workload sizes so the binary
/// finishes in seconds while still exercising every code path and
/// emitting the same JSON schema — per-PR trend tracking needs cheap,
/// comparable numbers, not the full reproduction.
inline bool QuickMode() {
  const char* env = std::getenv("SIOT_BENCH_QUICK");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

/// `full`, clamped to `quick` when QuickMode() is on.
inline std::size_t QuickClamp(std::size_t full, std::size_t quick) {
  return QuickMode() && quick < full ? quick : full;
}

/// Prints the bench banner: which paper artefact this binary regenerates.
inline void PrintBanner(const char* artefact, const char* description) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s — %s\n", artefact, description);
  std::printf("Lin & Dong, \"Clarifying Trust in Social Internet of Things\" "
              "(TKDE / ICDE'18)\n");
  std::printf("==============================================================="
              "=================\n\n");
}

/// Standard main body: print the reproduction, then run the registered
/// google-benchmark timings.
#define SIOT_BENCH_MAIN(print_reproduction)                       \
  int main(int argc, char** argv) {                               \
    print_reproduction();                                         \
    ::benchmark::Initialize(&argc, argv);                         \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {   \
      return 1;                                                   \
    }                                                             \
    std::printf("\n-- kernel timings (google-benchmark) --\n");   \
    ::benchmark::RunSpecifiedBenchmarks();                        \
    ::benchmark::Shutdown();                                      \
    return 0;                                                     \
  }

}  // namespace siot::bench

#endif  // SIOT_BENCH_BENCH_UTIL_H_
