// Copyright 2026 The siot-trust Authors.

#include "trust/trust_store.h"

#include <gtest/gtest.h>

#include <span>

namespace siot::trust {
namespace {

TEST(TrustStoreTest, FindMissingIsNullopt) {
  TrustStore store;
  EXPECT_FALSE(store.Find(0, 1, 0).has_value());
  EXPECT_FALSE(store.Has(0, 1, 0));
  EXPECT_EQ(store.size(), 0u);
}

TEST(TrustStoreTest, GetOrCreateUsesDefaults) {
  TrustStore store;
  store.SetDefaultEstimates({0.9, 0.8, 0.1, 0.2});
  const TrustRecord& record = store.GetOrCreate(1, 2, 3);
  EXPECT_DOUBLE_EQ(record.estimates.success_rate, 0.9);
  EXPECT_DOUBLE_EQ(record.estimates.gain, 0.8);
  EXPECT_EQ(record.observations, 0u);
  EXPECT_TRUE(store.Has(1, 2, 3));
}

TEST(TrustStoreTest, RecordsAreDirectional) {
  TrustStore store;
  store.Put(1, 2, 0, {0.9, 0.5, 0.5, 0.5});
  EXPECT_TRUE(store.Has(1, 2, 0));
  EXPECT_FALSE(store.Has(2, 1, 0));  // reverse direction is separate
}

TEST(TrustStoreTest, RecordsArePerTask) {
  TrustStore store;
  store.Put(1, 2, 0, {0.9, 0.5, 0.5, 0.5});
  EXPECT_FALSE(store.Has(1, 2, 1));
}

TEST(TrustStoreTest, PutOverwrites) {
  TrustStore store;
  store.Put(1, 2, 0, {0.9, 0.5, 0.5, 0.5});
  store.Put(1, 2, 0, {0.1, 0.5, 0.5, 0.5});
  EXPECT_DOUBLE_EQ(store.Find(1, 2, 0)->estimates.success_rate, 0.1);
}

TEST(TrustStoreTest, RecordOutcomeAppliesForgetting) {
  TrustStore store;
  store.SetDefaultEstimates({1.0, 0.0, 0.0, 0.0});
  const auto& est = store.RecordOutcome(
      1, 2, 0, {/*success=*/false, 0.0, 0.5, 0.1},
      ForgettingFactors::Uniform(0.5));
  EXPECT_NEAR(est.success_rate, 0.5, 1e-12);
  EXPECT_NEAR(est.damage, 0.25, 1e-12);
  EXPECT_NEAR(est.cost, 0.05, 1e-12);
  EXPECT_EQ(store.Find(1, 2, 0)->observations, 1u);
}

TEST(TrustStoreTest, RecordOutcomeAccumulatesObservations) {
  TrustStore store;
  const ForgettingFactors beta = ForgettingFactors::Uniform(0.1);
  for (int i = 0; i < 5; ++i) {
    store.RecordOutcome(1, 2, 0, {true, 1.0, 0.0, 0.0}, beta);
  }
  EXPECT_EQ(store.Find(1, 2, 0)->observations, 5u);
  EXPECT_GT(store.Find(1, 2, 0)->estimates.success_rate, 0.9);
}

// A pair's records live in their own buffer: inserting 10^5 other pairs
// grows the pair index many times, yet the GetOrCreate reference and the
// PairRecords span taken before still read the pair's values.
TEST(TrustStoreTest, PairReferencesSurviveInsertingOtherPairs) {
  TrustStore store;
  store.Put(1, 2, 4, {0.25, 0.5, 0.125, 0.0625});
  TrustRecord& record = store.GetOrCreate(1, 2, 3);
  record.observations = 7;
  const std::span<const PairTaskRecord> records = store.PairRecords(1, 2);
  ASSERT_EQ(records.size(), 2u);
  const std::size_t pairs_before = store.pair_count();
  for (AgentId other = 0; other < 100000; ++other) {
    store.Put(other + 10, other, 0, {0.5, 0.5, 0.5, 0.5});
  }
  ASSERT_EQ(store.pair_count(), pairs_before + 100000);
  EXPECT_EQ(record.observations, 7u);
  EXPECT_EQ(&store.GetOrCreate(1, 2, 3), &record);
  EXPECT_EQ(records[0].task, 3u);
  EXPECT_EQ(records[0].record.observations, 7u);
  EXPECT_EQ(records[1].task, 4u);
  EXPECT_EQ(records[1].record.estimates,
            (OutcomeEstimates{0.25, 0.5, 0.125, 0.0625}));
  EXPECT_EQ(store.PairRecords(1, 2).data(), records.data());
}

TEST(TrustStoreTest, PairsFilledInTurnKeepTheirRecords) {
  // Each pair's records are written one after another, as a restore of
  // a pair-major checkpoint writes them: a pair's run grows in place
  // while it ends the used part of the store's current chunk, and moves
  // when it reaches the chunk's end. With k tasks per pair, for every k
  // from 1 to 8, runs end at every offset, so some reach a chunk's end
  // mid-pair.
  for (TaskId tasks = 1; tasks <= 8; ++tasks) {
    TrustStore store;
    constexpr AgentId kPairs = 3000;
    for (AgentId pair = 0; pair < kPairs; ++pair) {
      for (TaskId task = 0; task < tasks; ++task) {
        store.PutRecord(pair, pair + 1, task,
                        {{0.5, 0.25, 0.125, 0.0625}, pair * 8 + task});
      }
    }
    ASSERT_EQ(store.size(), static_cast<std::size_t>(kPairs) * tasks);
    for (AgentId pair = 0; pair < kPairs; ++pair) {
      const auto records = store.PairRecords(pair, pair + 1);
      ASSERT_EQ(records.size(), tasks) << "pair " << pair;
      for (TaskId task = 0; task < tasks; ++task) {
        EXPECT_EQ(records[task].task, task);
        EXPECT_EQ(records[task].record.observations, pair * 8 + task);
      }
    }
  }
}

TEST(TrustStoreTest, ExperiencedTasksSorted) {
  TrustStore store;
  store.Put(1, 2, 7, {});
  store.Put(1, 2, 3, {});
  store.Put(1, 2, 5, {});
  store.Put(1, 9, 1, {});  // different trustee: excluded
  store.Put(4, 2, 2, {});  // different trustor: excluded
  EXPECT_EQ(store.ExperiencedTasks(1, 2), (std::vector<TaskId>{3, 5, 7}));
  EXPECT_TRUE(store.ExperiencedTasks(8, 8).empty());
}

TEST(TrustStoreTest, TrustworthinessUsesEq18) {
  TrustStore store;
  store.Put(1, 2, 0, {1.0, 1.0, 0.0, 0.0});  // raw profit 1 -> unit 1.0
  store.Put(1, 3, 0, {0.0, 0.0, 1.0, 1.0});  // raw profit -2 -> unit 0.0
  const Normalizer n(NormalizationRange::kUnit, 1.0);
  EXPECT_DOUBLE_EQ(store.Trustworthiness(1, 2, 0, n).value(), 1.0);
  EXPECT_DOUBLE_EQ(store.Trustworthiness(1, 3, 0, n).value(), 0.0);
  EXPECT_FALSE(store.Trustworthiness(1, 4, 0, n).has_value());
}

TEST(TrustStoreTest, ClearEmpties) {
  TrustStore store;
  store.Put(1, 2, 0, {});
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.Has(1, 2, 0));
}

TEST(TrustKeyTest, HashDistinguishesComponents) {
  TrustKeyHash hash;
  const TrustKey a{1, 2, 3};
  const TrustKey b{2, 1, 3};
  const TrustKey c{1, 2, 4};
  // Not a strict requirement of unordered_map, but catching gross hash
  // collapse (e.g., ignoring a field) here is cheap.
  EXPECT_NE(hash(a), hash(b));
  EXPECT_NE(hash(a), hash(c));
}

}  // namespace
}  // namespace siot::trust
