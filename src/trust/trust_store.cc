// Copyright 2026 The siot-trust Authors.

#include "trust/trust_store.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/macros.h"
#include "trust/environment.h"

namespace siot::trust {

namespace {

/// Position of the first record with record.task >= task in a pair's
/// sorted records.
std::size_t LowerBoundTask(std::span<const PairTaskRecord> records,
                           TaskId task) {
  return static_cast<std::size_t>(
      std::lower_bound(records.begin(), records.end(), task,
                       [](const PairTaskRecord& entry, TaskId t) {
                         return entry.task < t;
                       }) -
      records.begin());
}

const PairTaskRecord* FindTask(std::span<const PairTaskRecord> records,
                               TaskId task) {
  const std::size_t pos = LowerBoundTask(records, task);
  if (pos == records.size() || records[pos].task != task) return nullptr;
  return &records[pos];
}

/// Capacity of the run a full run of `capacity` records moves to: one
/// more while runs are small, so a freed run fits the next pair growing
/// to that size; then half again, so a pair with many tasks moves
/// O(log n) times.
std::uint32_t NextCapacity(std::uint32_t capacity) {
  return capacity < 8 ? capacity + 1 : capacity + capacity / 2;
}

}  // namespace

// ------------------------------------------------------- record arena --

TrustStore::RecordArena::RecordArena(const RecordArena& other)
    : block_begin_(0),
      top_(other.top_),
      block_end_(other.top_),
      free_heads_(other.free_heads_) {
  if (top_ == 0) return;
  // One block holds the whole copy, so every used index stays
  // contiguous with its neighbours.
  OpenBlock(top_);
  top_ = other.top_;
  // Bytes, not records: the spare records of runs and freed runs were
  // never written.
  for (std::uint32_t index = 0; index < top_; index += kChunkRecords) {
    std::memcpy(at(index), other.at(index),
                std::min(kChunkRecords, top_ - index) *
                    sizeof(PairTaskRecord));
  }
}

TrustStore::RecordArena& TrustStore::RecordArena::operator=(
    const RecordArena& other) {
  if (this != &other) *this = RecordArena(other);
  return *this;
}

TrustStore::RecordArena::RecordArena(RecordArena&& other) noexcept
    : chunks_(std::exchange(other.chunks_, {})),
      blocks_(std::exchange(other.blocks_, {})),
      block_begin_(std::exchange(other.block_begin_, 0)),
      top_(std::exchange(other.top_, 0)),
      block_end_(std::exchange(other.block_end_, 0)),
      free_heads_(std::exchange(other.free_heads_, {})) {}

TrustStore::RecordArena& TrustStore::RecordArena::operator=(
    RecordArena&& other) noexcept {
  if (this != &other) {
    Clear();
    chunks_ = std::exchange(other.chunks_, {});
    blocks_ = std::exchange(other.blocks_, {});
    block_begin_ = std::exchange(other.block_begin_, 0);
    top_ = std::exchange(other.top_, 0);
    block_end_ = std::exchange(other.block_end_, 0);
    free_heads_ = std::exchange(other.free_heads_, {});
  }
  return *this;
}

void TrustStore::RecordArena::Clear() {
  for (PairTaskRecord* block : blocks_) ::operator delete(block);
  chunks_ = {};
  blocks_ = {};
  block_begin_ = top_ = block_end_ = 0;
  free_heads_ = {};
}

void TrustStore::RecordArena::OpenBlock(std::size_t records) {
  if (top_ < block_end_) Free(top_, block_end_ - top_);
  const std::size_t chunks = (records + kChunkRecords - 1) / kChunkRecords;
  // Record indices are 32-bit: 2^22 chunks of 2^10 records.
  SIOT_CHECK(chunks_.size() + chunks <=
             (std::size_t{1} << (32 - kChunkShift)));
  // PairTaskRecord is an implicit-lifetime aggregate: raw storage holds
  // records once written, and nothing needs destroying.
  auto* block = static_cast<PairTaskRecord*>(
      ::operator new(chunks * kChunkRecords * sizeof(PairTaskRecord)));
  blocks_.push_back(block);
  block_begin_ = top_ =
      static_cast<std::uint32_t>(chunks_.size() * kChunkRecords);
  // A reserved block sizes the chunk table once; single chunks grow it
  // geometrically.
  if (chunks > 1) chunks_.reserve(chunks_.size() + chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    chunks_.push_back(block + c * kChunkRecords);
  }
  block_end_ = static_cast<std::uint32_t>(chunks_.size() * kChunkRecords);
}

std::uint32_t TrustStore::RecordArena::Allocate(std::uint32_t capacity) {
  if (capacity < free_heads_.size() && free_heads_[capacity] != kNoRun) {
    const std::uint32_t begin = free_heads_[capacity];
    free_heads_[capacity] = at(begin)->task;
    return begin;
  }
  if (block_end_ - top_ < capacity) OpenBlock(capacity);
  const std::uint32_t begin = top_;
  top_ += capacity;
  return begin;
}

void TrustStore::RecordArena::Free(std::uint32_t begin,
                                   std::uint32_t capacity) {
  if (capacity >= free_heads_.size()) {
    free_heads_.resize(capacity + 1, kNoRun);
  }
  at(begin)->task = free_heads_[capacity];
  free_heads_[capacity] = begin;
}

bool TrustStore::RecordArena::TryGrowInPlace(std::uint32_t begin,
                                             std::uint32_t capacity) {
  if (begin < block_begin_ || begin + capacity != top_ ||
      top_ == block_end_) {
    return false;
  }
  ++top_;
  return true;
}

void TrustStore::RecordArena::Reserve(std::size_t records) {
  if (records > block_end_ - top_) OpenBlock(records);
}

// -------------------------------------------------------------- store --

std::optional<TrustRecord> TrustStore::Find(AgentId trustor, AgentId trustee,
                                            TaskId task) const {
  const PairTaskRecord* entry = FindTask(PairRecords(trustor, trustee), task);
  if (entry == nullptr) return std::nullopt;
  return entry->record;
}

bool TrustStore::Has(AgentId trustor, AgentId trustee, TaskId task) const {
  return FindTask(PairRecords(trustor, trustee), task) != nullptr;
}

PairTaskRecord* TrustStore::Grow(PairRun* run) {
  if (run->capacity != 0 &&
      arena_.TryGrowInPlace(run->begin, run->capacity)) {
    ++run->capacity;
    return arena_.at(run->begin);
  }
  const std::uint32_t capacity = NextCapacity(run->capacity);
  const std::uint32_t begin = arena_.Allocate(capacity);
  PairTaskRecord* records = arena_.at(begin);
  if (run->capacity != 0) {
    std::copy_n(arena_.at(run->begin), run->count, records);
    arena_.Free(run->begin, run->capacity);
  }
  run->begin = begin;
  run->capacity = capacity;
  return records;
}

TrustRecord& TrustStore::Upsert(AgentId trustor, AgentId trustee, TaskId task,
                                const TrustRecord& init, bool* inserted) {
  PairRun& run = *pairs_.FindOrInsert(PairKey{trustor, trustee}).first;
  const std::span<const PairTaskRecord> records = Records(run);
  const std::size_t pos = LowerBoundTask(records, task);
  if (pos != run.count && records[pos].task == task) {
    *inserted = false;
    return arena_.at(run.begin)[pos].record;
  }
  *inserted = true;
  ++record_count_;
  PairTaskRecord* stored =
      run.count == run.capacity ? Grow(&run) : arena_.at(run.begin);
  std::copy_backward(stored + pos, stored + run.count,
                     stored + run.count + 1);
  stored[pos] = PairTaskRecord{task, init};
  ++run.count;
  return stored[pos].record;
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
  const PairRun* run = pairs_.Find(PairKey{trustor, trustee});
  if (run == nullptr) return {};
  return Records(*run);
}

std::vector<TaskId> TrustStore::ExperiencedTasks(AgentId trustor,
                                                 AgentId trustee) const {
  std::vector<TaskId> tasks;
  const auto records = PairRecords(trustor, trustee);
  tasks.reserve(records.size());
  for (const PairTaskRecord& entry : records) tasks.push_back(entry.task);
  return tasks;  // runs are kept sorted by task id
}

std::vector<std::pair<TrustKey, TrustRecord>> TrustStore::AllRecords()
    const {
  std::vector<std::pair<TrustKey, TrustRecord>> out;
  out.reserve(record_count_);
  ForEachPairSorted([&out](AgentId trustor, AgentId trustee,
                           std::span<const PairTaskRecord> records) {
    for (const PairTaskRecord& entry : records) {
      out.emplace_back(TrustKey{trustor, trustee, entry.task}, entry.record);
    }
  });
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
