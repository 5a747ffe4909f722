// Copyright 2026 The siot-trust Authors.
// Allocation budget of the engine's read path. This binary replaces the
// global operator new with a counting one, so a test can state how many
// heap allocations a call makes: PreEvaluate and EstimateOutcomes make
// none on any branch of the fallback chain (direct record, Eq. 4
// inference, first-contact estimates), and RequestDelegation makes one
// for its ranking, plus one when it returns refusals. Sanitizer builds
// interpose their own allocator, so there the counts say nothing and the
// tests skip.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "trust/trust_engine.h"

#if defined(SIOT_SANITIZED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#define SIOT_ALLOC_COUNTS_MEANINGLESS 1
#endif

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Not inlined: g++ would otherwise see malloc or free at a call site,
// paired with the other side's operator, and warn of a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace siot::trust {
namespace {

std::uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

constexpr AgentId kTrustor = 0;
constexpr std::size_t kCandidates = 24;

/// Task ids of the catalog Populate registers.
struct Tasks {
  TaskId gps = kNoTask;
  TaskId image = kNoTask;
  TaskId traffic = kNoTask;
};

/// Gives `engine`'s trustor 24 candidates that reach all three branches
/// of the fallback chain for task "traffic": a direct record (agents
/// 1–8), Eq. 4 over "gps" and "image" records (9–16), and no covering
/// experience (17–24: only "gps", or nothing at all).
Tasks Populate(TrustEngine& engine) {
  Tasks tasks;
  tasks.gps = engine.catalog().Add("gps", {{0, 2.0}, {2, 1.0}}).value();
  tasks.image = engine.catalog().Add("image", {{1, 1.0}, {3, 0.5}}).value();
  tasks.traffic =
      engine.catalog().Add("traffic", {{0, 1.0}, {1, 3.0}}).value();
  TrustStore& store = engine.store();
  for (AgentId y = 1; y <= kCandidates; ++y) {
    const double s = 0.03 * y;
    if (y <= 8) {
      store.Put(kTrustor, y, tasks.traffic, {s, 0.6, 0.3, 0.1});
    } else if (y <= 16) {
      store.Put(kTrustor, y, tasks.gps, {s, 0.8, 0.2, 0.1});
      store.Put(kTrustor, y, tasks.image, {1.0 - s, 0.4, 0.5, 0.2});
    } else if (y <= 20) {
      store.Put(kTrustor, y, tasks.gps, {s, 0.8, 0.2, 0.1});
    }
  }
  return tasks;
}

std::vector<AgentId> Candidates() {
  std::vector<AgentId> candidates;
  for (AgentId y = 1; y <= kCandidates; ++y) candidates.push_back(y);
  return candidates;
}

class EngineAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef SIOT_ALLOC_COUNTS_MEANINGLESS
    GTEST_SKIP() << "sanitizer build: its allocator makes counts meaningless";
#endif
    tasks_ = Populate(engine_);
  }

  TrustEngine engine_;
  Tasks tasks_;
  const std::vector<AgentId> candidates_ = Candidates();
};

TEST_F(EngineAllocTest, PreEvaluateAndEstimateOutcomesAllocateNothing) {
  double sink = 0.0;
  const std::uint64_t before = Allocations();
  for (const AgentId y : candidates_) {
    for (const TaskId task : {tasks_.gps, tasks_.image, tasks_.traffic}) {
      sink += engine_.PreEvaluate(kTrustor, y, task);
      sink += engine_.EstimateOutcomes(kTrustor, y, task).success_rate;
    }
  }
  const std::uint64_t allocations = Allocations() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_TRUE(sink > 0.0);
}

TEST_F(EngineAllocTest, RequestDelegationAllocatesOnceForItsRanking) {
  for (const SelectionStrategy strategy :
       {SelectionStrategy::kMaxNetProfit,
        SelectionStrategy::kMaxSuccessRate}) {
    TrustEngineConfig config;
    config.strategy = strategy;
    TrustEngine engine(config);
    Populate(engine);
    for (const bool with_self : {false, true}) {
      const std::optional<OutcomeEstimates> self =
          with_self ? std::optional<OutcomeEstimates>(
                          OutcomeEstimates{0.0, 0.0, 1.0, 1.0})
                    : std::nullopt;
      const std::uint64_t before = Allocations();
      const DelegationRequestResult result = engine.RequestDelegation(
          kTrustor, tasks_.traffic, candidates_, self);
      const std::uint64_t allocations = Allocations() - before;
      ASSERT_NE(result.trustee, kNoAgent);
      ASSERT_FALSE(result.self_execution);
      ASSERT_TRUE(result.refusals.empty());
      EXPECT_EQ(allocations, 1u);
    }
  }
}

TEST_F(EngineAllocTest, RefusalsCostOneMoreAllocation) {
  // Every candidate but agent 1 refuses, so the walk records the
  // refusals of everyone ranked above it.
  for (AgentId y = 2; y <= kCandidates; ++y) {
    engine_.reverse_evaluator().SetThreshold(y, kNoTask, 2.0);
  }
  std::uint64_t before = Allocations();
  DelegationRequestResult result =
      engine_.RequestDelegation(kTrustor, tasks_.traffic, candidates_);
  std::uint64_t allocations = Allocations() - before;
  EXPECT_EQ(result.trustee, 1u);
  EXPECT_FALSE(result.refusals.empty());
  // The refusals vector alone allocates, so this also shows the counter
  // sees the engine's allocations.
  EXPECT_EQ(allocations, 2u);

  // Nobody accepts: the trustor executes itself.
  engine_.reverse_evaluator().SetThreshold(1, kNoTask, 2.0);
  before = Allocations();
  result = engine_.RequestDelegation(kTrustor, tasks_.traffic, candidates_,
                                     OutcomeEstimates{0.0, 0.0, 1.0, 1.0});
  allocations = Allocations() - before;
  EXPECT_TRUE(result.unavailable);
  EXPECT_TRUE(result.self_execution);
  EXPECT_EQ(result.refusals.size(), kCandidates);
  EXPECT_EQ(allocations, 2u);
}

}  // namespace
}  // namespace siot::trust
