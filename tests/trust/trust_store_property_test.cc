// Copyright 2026 The siot-trust Authors.
// Property tests: the pair-major TrustStore must answer every query
// identically to a straightforward reference implementation (one ordered
// map over full (trustor, trustee, task) keys) under randomized workloads.

#include <map>
#include <set>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "trust/environment.h"
#include "trust/trust_store.h"

namespace siot::trust {
namespace {

/// Reference model: the obviously-correct flat ordered map.
class ReferenceStore {
 public:
  using Key = std::tuple<AgentId, AgentId, TaskId>;

  void SetDefaultEstimates(const OutcomeEstimates& estimates) {
    default_estimates_ = estimates;
  }

  std::optional<TrustRecord> Find(AgentId trustor, AgentId trustee,
                                  TaskId task) const {
    const auto it = records_.find({trustor, trustee, task});
    if (it == records_.end()) return std::nullopt;
    return it->second;
  }

  bool Has(AgentId trustor, AgentId trustee, TaskId task) const {
    return records_.contains({trustor, trustee, task});
  }

  TrustRecord& GetOrCreate(AgentId trustor, AgentId trustee, TaskId task) {
    return records_
        .try_emplace({trustor, trustee, task},
                     TrustRecord{default_estimates_, 0})
        .first->second;
  }

  void Put(AgentId trustor, AgentId trustee, TaskId task,
           const OutcomeEstimates& estimates) {
    records_[{trustor, trustee, task}] = TrustRecord{estimates, 0};
  }

  void PutRecord(AgentId trustor, AgentId trustee, TaskId task,
                 const TrustRecord& record) {
    records_[{trustor, trustee, task}] = record;
  }

  void RecordOutcome(AgentId trustor, AgentId trustee, TaskId task,
                     const DelegationOutcome& outcome,
                     const ForgettingFactors& beta) {
    TrustRecord& record = GetOrCreate(trustor, trustee, task);
    record.estimates = UpdateEstimates(record.estimates, outcome, beta);
    ++record.observations;
  }

  std::vector<TaskId> ExperiencedTasks(AgentId trustor,
                                       AgentId trustee) const {
    std::vector<TaskId> tasks;
    for (const auto& [key, record] : records_) {
      if (std::get<0>(key) == trustor && std::get<1>(key) == trustee) {
        tasks.push_back(std::get<2>(key));
      }
    }
    return tasks;  // map order is already (trustor, trustee, task)
  }

  std::vector<std::pair<TrustKey, TrustRecord>> AllRecords() const {
    std::vector<std::pair<TrustKey, TrustRecord>> out;
    out.reserve(records_.size());
    for (const auto& [key, record] : records_) {
      out.emplace_back(TrustKey{std::get<0>(key), std::get<1>(key),
                                std::get<2>(key)},
                       record);
    }
    return out;
  }

  std::size_t size() const { return records_.size(); }

 private:
  std::map<Key, TrustRecord> records_;
  OutcomeEstimates default_estimates_;
};

void ExpectSameRecord(const std::optional<TrustRecord>& actual,
                      const std::optional<TrustRecord>& expected) {
  ASSERT_EQ(actual.has_value(), expected.has_value());
  if (!actual.has_value()) return;
  EXPECT_EQ(actual->estimates, expected->estimates);
  EXPECT_EQ(actual->observations, expected->observations);
}

/// Checks every query of `store` against `reference` on every key in an
/// id universe of `agents` agents and `tasks` tasks.
void ExpectSameContents(const TrustStore& store,
                        const ReferenceStore& reference, std::uint64_t agents,
                        std::uint64_t tasks) {
  EXPECT_EQ(store.size(), reference.size());
  for (AgentId trustor = 0; trustor < agents; ++trustor) {
    for (AgentId trustee = 0; trustee < agents; ++trustee) {
      EXPECT_EQ(store.ExperiencedTasks(trustor, trustee),
                reference.ExperiencedTasks(trustor, trustee));
      for (TaskId task = 0; task < tasks; ++task) {
        EXPECT_EQ(store.Has(trustor, trustee, task),
                  reference.Has(trustor, trustee, task));
        ExpectSameRecord(store.Find(trustor, trustee, task),
                         reference.Find(trustor, trustee, task));
      }
    }
  }
  // AllRecords: same keys, same records, same canonical order.
  const auto actual = store.AllRecords();
  const auto expected = reference.AllRecords();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].first, expected[i].first) << "index " << i;
    EXPECT_EQ(actual[i].second.estimates, expected[i].second.estimates);
    EXPECT_EQ(actual[i].second.observations,
              expected[i].second.observations);
  }
}

/// Applies `ops` random mutations to both stores, then checks every query
/// agrees on every key in a (small) id universe.
void RunAgreementWorkload(std::uint64_t seed, std::size_t ops,
                          std::uint64_t agents, std::uint64_t tasks) {
  Rng rng(seed);
  TrustStore store;
  ReferenceStore reference;
  const OutcomeEstimates defaults{0.7, 0.6, 0.2, 0.1};
  store.SetDefaultEstimates(defaults);
  reference.SetDefaultEstimates(defaults);

  for (std::size_t op = 0; op < ops; ++op) {
    const auto trustor = static_cast<AgentId>(rng.NextBounded(agents));
    const auto trustee = static_cast<AgentId>(rng.NextBounded(agents));
    const auto task = static_cast<TaskId>(rng.NextBounded(tasks));
    switch (rng.NextBounded(4)) {
      case 0: {
        const OutcomeEstimates estimates{rng.NextDouble(), rng.NextDouble(),
                                         rng.NextDouble(),
                                         rng.NextDouble()};
        store.Put(trustor, trustee, task, estimates);
        reference.Put(trustor, trustee, task, estimates);
        break;
      }
      case 1: {
        const TrustRecord record{{rng.NextDouble(), rng.NextDouble(),
                                  rng.NextDouble(), rng.NextDouble()},
                                 rng.NextBounded(50)};
        store.PutRecord(trustor, trustee, task, record);
        reference.PutRecord(trustor, trustee, task, record);
        break;
      }
      case 2: {
        store.GetOrCreate(trustor, trustee, task);
        reference.GetOrCreate(trustor, trustee, task);
        break;
      }
      default: {
        const DelegationOutcome outcome{rng.Bernoulli(0.5),
                                        rng.NextDouble(), rng.NextDouble(),
                                        rng.NextDouble()};
        const ForgettingFactors beta = ForgettingFactors::Uniform(0.3);
        store.RecordOutcome(trustor, trustee, task, outcome, beta);
        reference.RecordOutcome(trustor, trustee, task, outcome, beta);
        break;
      }
    }
  }

  ExpectSameContents(store, reference, agents, tasks);
}

TEST(TrustStorePropertyTest, AgreesWithReferenceSmallDense) {
  // Few ids, many ops: heavy overwrite/upsert collisions.
  RunAgreementWorkload(/*seed=*/1, /*ops=*/2000, /*agents=*/6, /*tasks=*/4);
}

TEST(TrustStorePropertyTest, AgreesWithReferenceSparse) {
  // Many ids, few ops: mostly singleton pairs.
  RunAgreementWorkload(/*seed=*/2, /*ops=*/600, /*agents=*/24,
                       /*tasks=*/8);
}

TEST(TrustStorePropertyTest, AgreesWithReferenceManyTasksPerPair) {
  // One pair hot path: per-pair vectors grow long and stay sorted.
  RunAgreementWorkload(/*seed=*/3, /*ops=*/1500, /*agents=*/2,
                       /*tasks=*/40);
}

/// The record arena under churn: every (trustor, trustee, task) key of
/// pairs holding 1–8 tasks is inserted in a seeded random order, so a
/// pair's run sometimes grows in place, sometimes moves away from a full
/// run, and the runs it leaves behind are reused by later ones. Every
/// step is checked against the ordered-map model, a span held into one
/// pair must survive every insertion into other pairs, and a copy and a
/// move taken midway must carry on exactly like the original.
void RunArenaChurnWorkload(std::uint64_t seed) {
  constexpr AgentId kAgents = 24;
  constexpr TaskId kTasks = 16;
  Rng rng(seed);
  std::vector<std::tuple<AgentId, AgentId, TaskId>> inserts;
  for (AgentId trustor = 0; trustor < kAgents; ++trustor) {
    for (AgentId trustee = 0; trustee < kAgents; ++trustee) {
      if (!rng.Bernoulli(0.5)) continue;
      std::vector<TaskId> tasks(kTasks);
      for (TaskId t = 0; t < kTasks; ++t) tasks[t] = t;
      const std::size_t count = 1 + rng.NextBounded(8);
      for (std::size_t i = 0; i < count; ++i) {
        std::swap(tasks[i], tasks[i + rng.NextBounded(kTasks - i)]);
        inserts.emplace_back(trustor, trustee, tasks[i]);
      }
    }
  }
  for (std::size_t i = inserts.size(); i > 1; --i) {
    std::swap(inserts[i - 1], inserts[rng.NextBounded(i)]);
  }

  const OutcomeEstimates defaults{0.7, 0.6, 0.2, 0.1};
  TrustStore original;
  original.SetDefaultEstimates(defaults);
  ReferenceStore reference;
  reference.SetDefaultEstimates(defaults);
  TrustStore copy;
  TrustStore moved;
  ReferenceStore frozen;
  TrustStore* live = &original;

  // One pair whose span is held across other pairs' insertions.
  const auto [held_trustor, held_trustee, held_task] = inserts.front();
  std::span<const PairTaskRecord> held;
  std::set<const PairTaskRecord*> vacated;
  std::size_t moves = 0;
  std::size_t reuses = 0;
  for (std::size_t i = 0; i < inserts.size(); ++i) {
    if (i == inserts.size() / 3) {
      copy = original;
      frozen = reference;
      live = &copy;
      ExpectSameContents(copy, reference, kAgents, kTasks);
      held = copy.PairRecords(held_trustor, held_trustee);
      vacated.clear();
    }
    if (i == 2 * inserts.size() / 3) {
      moved = std::move(copy);
      live = &moved;
      held = moved.PairRecords(held_trustor, held_trustee);
    }
    const auto [trustor, trustee, task] = inserts[i];
    const PairTaskRecord* before = live->PairRecords(trustor, trustee).data();
    switch (rng.NextBounded(4)) {
      case 0: {
        const OutcomeEstimates estimates{rng.NextDouble(), rng.NextDouble(),
                                         rng.NextDouble(), rng.NextDouble()};
        live->Put(trustor, trustee, task, estimates);
        reference.Put(trustor, trustee, task, estimates);
        break;
      }
      case 1: {
        const TrustRecord record{{rng.NextDouble(), rng.NextDouble(),
                                  rng.NextDouble(), rng.NextDouble()},
                                 rng.NextBounded(50)};
        live->PutRecord(trustor, trustee, task, record);
        reference.PutRecord(trustor, trustee, task, record);
        break;
      }
      case 2: {
        live->GetOrCreate(trustor, trustee, task).observations = i;
        reference.GetOrCreate(trustor, trustee, task).observations = i;
        break;
      }
      default: {
        const DelegationOutcome outcome{rng.Bernoulli(0.5), rng.NextDouble(),
                                        rng.NextDouble(), rng.NextDouble()};
        const ForgettingFactors beta = ForgettingFactors::Uniform(0.3);
        live->RecordOutcome(trustor, trustee, task, outcome, beta);
        reference.RecordOutcome(trustor, trustee, task, outcome, beta);
        break;
      }
    }
    const std::span<const PairTaskRecord> after =
        live->PairRecords(trustor, trustee);
    if (before != nullptr && after.data() != before) {
      ++moves;
      vacated.insert(before);
    }
    if (after.data() != before && vacated.erase(after.data()) > 0) ++reuses;

    // The pair just written reads back like the model.
    const std::vector<TaskId> tasks = reference.ExperiencedTasks(trustor,
                                                                 trustee);
    ASSERT_EQ(live->ExperiencedTasks(trustor, trustee), tasks);
    ASSERT_EQ(after.size(), tasks.size());
    for (const PairTaskRecord& entry : after) {
      const auto expected = reference.Find(trustor, trustee, entry.task);
      ASSERT_TRUE(expected.has_value());
      EXPECT_EQ(entry.record.estimates, expected->estimates);
      EXPECT_EQ(entry.record.observations, expected->observations);
    }
    // A random key (present or not) agrees too.
    const auto probe_trustor = static_cast<AgentId>(rng.NextBounded(kAgents));
    const auto probe_trustee = static_cast<AgentId>(rng.NextBounded(kAgents));
    const auto probe_task = static_cast<TaskId>(rng.NextBounded(kTasks));
    ExpectSameRecord(live->Find(probe_trustor, probe_trustee, probe_task),
                     reference.Find(probe_trustor, probe_trustee, probe_task));

    // The held span moves only when its own pair is written.
    if (trustor == held_trustor && trustee == held_trustee) {
      held = after;
    } else {
      ASSERT_EQ(live->PairRecords(held_trustor, held_trustee).data(),
                held.data());
      ASSERT_EQ(held.front().task,
                reference.ExperiencedTasks(held_trustor, held_trustee)
                    .front());
    }
  }
  ExpectSameContents(*live, reference, kAgents, kTasks);
  // The copy shares nothing with the store it was taken from.
  ExpectSameContents(original, frozen, kAgents, kTasks);
  // The workload really moved runs and reused the runs they left.
  EXPECT_GT(moves, 100u);
  EXPECT_GT(reuses, 10u);
}

TEST(TrustStorePropertyTest, ArenaChurnAgreesWithReference) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    SCOPED_TRACE(seed);
    RunArenaChurnWorkload(seed);
  }
}

TEST(TrustStorePropertyTest, PairRecordsMatchesExperiencedTasks) {
  Rng rng(4);
  TrustStore store;
  for (int i = 0; i < 300; ++i) {
    store.Put(static_cast<AgentId>(rng.NextBounded(5)),
              static_cast<AgentId>(rng.NextBounded(5)),
              static_cast<TaskId>(rng.NextBounded(12)),
              {rng.NextDouble(), rng.NextDouble(), rng.NextDouble(),
               rng.NextDouble()});
  }
  for (AgentId trustor = 0; trustor < 5; ++trustor) {
    for (AgentId trustee = 0; trustee < 5; ++trustee) {
      const auto records = store.PairRecords(trustor, trustee);
      const auto tasks = store.ExperiencedTasks(trustor, trustee);
      ASSERT_EQ(records.size(), tasks.size());
      for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].task, tasks[i]);
        const auto found = store.Find(trustor, trustee, records[i].task);
        ASSERT_TRUE(found.has_value());
        EXPECT_EQ(found->estimates, records[i].record.estimates);
      }
    }
  }
}

TEST(TrustStorePropertyTest, EnvironmentRecordOutcomeMatchesManualUpdate) {
  TrustStore store;
  store.SetDefaultEstimates({0.5, 0.5, 0.5, 0.5});
  const DelegationOutcome outcome{true, 0.8, 0.0, 0.2};
  const ForgettingFactors beta = ForgettingFactors::Uniform(0.4);
  const double env = 0.6;
  const OutcomeEstimates expected = UpdateEstimatesWithEnvironment(
      {0.5, 0.5, 0.5, 0.5}, outcome, beta, env);
  const OutcomeEstimates& actual =
      store.RecordOutcome(1, 2, 3, outcome, beta, env);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(store.Find(1, 2, 3)->observations, 1u);
}

TEST(TrustStorePropertyTest, PairCountTracksDistinctPairs) {
  TrustStore store;
  store.Put(1, 2, 0, {});
  store.Put(1, 2, 1, {});
  store.Put(2, 1, 0, {});
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.pair_count(), 2u);
  store.Clear();
  EXPECT_EQ(store.pair_count(), 0u);
}

}  // namespace
}  // namespace siot::trust
