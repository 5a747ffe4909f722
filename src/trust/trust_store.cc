// Copyright 2026 The siot-trust Authors.

#include "trust/trust_store.h"

#include <algorithm>

#include "trust/environment.h"

namespace siot::trust {

namespace {

/// First entry with entry.task >= task in a pair's sorted record vector.
std::vector<PairTaskRecord>::iterator LowerBoundTask(
    std::vector<PairTaskRecord>& entries, TaskId task) {
  return std::lower_bound(entries.begin(), entries.end(), task,
                          [](const PairTaskRecord& entry, TaskId t) {
                            return entry.task < t;
                          });
}

const PairTaskRecord* FindTask(const std::vector<PairTaskRecord>& entries,
                               TaskId task) {
  const auto it = std::lower_bound(entries.begin(), entries.end(), task,
                                   [](const PairTaskRecord& entry, TaskId t) {
                                     return entry.task < t;
                                   });
  if (it == entries.end() || it->task != task) return nullptr;
  return &*it;
}

}  // namespace

std::optional<TrustRecord> TrustStore::Find(AgentId trustor, AgentId trustee,
                                            TaskId task) const {
  const auto* entries = pairs_.Find(PairKey{trustor, trustee});
  if (entries == nullptr) return std::nullopt;
  const PairTaskRecord* entry = FindTask(*entries, task);
  if (entry == nullptr) return std::nullopt;
  return entry->record;
}

bool TrustStore::Has(AgentId trustor, AgentId trustee, TaskId task) const {
  const auto* entries = pairs_.Find(PairKey{trustor, trustee});
  return entries != nullptr && FindTask(*entries, task) != nullptr;
}

TrustRecord& TrustStore::Upsert(AgentId trustor, AgentId trustee, TaskId task,
                                const TrustRecord& init, bool* inserted) {
  std::vector<PairTaskRecord>& entries =
      *pairs_.FindOrInsert(PairKey{trustor, trustee}).first;
  const auto it = LowerBoundTask(entries, task);
  if (it != entries.end() && it->task == task) {
    *inserted = false;
    return it->record;
  }
  *inserted = true;
  ++record_count_;
  return entries.insert(it, PairTaskRecord{task, init})->record;
}

TrustRecord& TrustStore::GetOrCreate(AgentId trustor, AgentId trustee,
                                     TaskId task) {
  bool inserted = false;
  return Upsert(trustor, trustee, task, TrustRecord{default_estimates_, 0},
                &inserted);
}

void TrustStore::Put(AgentId trustor, AgentId trustee, TaskId task,
                     const OutcomeEstimates& estimates) {
  PutRecord(trustor, trustee, task, TrustRecord{estimates, 0});
}

void TrustStore::PutRecord(AgentId trustor, AgentId trustee, TaskId task,
                           const TrustRecord& record) {
  bool inserted = false;
  TrustRecord& stored = Upsert(trustor, trustee, task, record, &inserted);
  if (!inserted) stored = record;
}

const OutcomeEstimates& TrustStore::RecordOutcome(
    AgentId trustor, AgentId trustee, TaskId task,
    const DelegationOutcome& outcome, const ForgettingFactors& beta) {
  TrustRecord& record = GetOrCreate(trustor, trustee, task);
  record.estimates = UpdateEstimates(record.estimates, outcome, beta);
  ++record.observations;
  return record.estimates;
}

const OutcomeEstimates& TrustStore::RecordOutcome(
    AgentId trustor, AgentId trustee, TaskId task,
    const DelegationOutcome& outcome, const ForgettingFactors& beta,
    double aggregate_env) {
  TrustRecord& record = GetOrCreate(trustor, trustee, task);
  record.estimates = UpdateEstimatesWithEnvironment(record.estimates, outcome,
                                                    beta, aggregate_env);
  ++record.observations;
  return record.estimates;
}

std::span<const PairTaskRecord> TrustStore::PairRecords(
    AgentId trustor, AgentId trustee) const {
  const auto* entries = pairs_.Find(PairKey{trustor, trustee});
  if (entries == nullptr) return {};
  return *entries;
}

std::vector<TaskId> TrustStore::ExperiencedTasks(AgentId trustor,
                                                 AgentId trustee) const {
  std::vector<TaskId> tasks;
  const auto records = PairRecords(trustor, trustee);
  tasks.reserve(records.size());
  for (const PairTaskRecord& entry : records) tasks.push_back(entry.task);
  return tasks;  // per-pair vectors are kept sorted by task id
}

std::vector<std::pair<TrustKey, TrustRecord>> TrustStore::AllRecords()
    const {
  std::vector<std::pair<PairKey, const std::vector<PairTaskRecord>*>>
      by_pair;
  by_pair.reserve(pairs_.size());
  pairs_.ForEach([&by_pair](const PairKey& key,
                            const std::vector<PairTaskRecord>& entries) {
    by_pair.emplace_back(key, &entries);
  });
  std::sort(by_pair.begin(), by_pair.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<TrustKey, TrustRecord>> out;
  out.reserve(record_count_);
  for (const auto& [key, entries] : by_pair) {
    for (const PairTaskRecord& entry : *entries) {
      out.emplace_back(TrustKey{key.trustor, key.trustee, entry.task},
                       entry.record);
    }
  }
  return out;
}

std::optional<double> TrustStore::Trustworthiness(
    AgentId trustor, AgentId trustee, TaskId task,
    const Normalizer& normalizer) const {
  const auto record = Find(trustor, trustee, task);
  if (!record.has_value()) return std::nullopt;
  return TrustworthinessFromEstimates(record->estimates, normalizer);
}

}  // namespace siot::trust
