// Copyright 2026 The siot-trust Authors.
// Storage of directed trust records. A record holds the four outcome
// estimates (Ŝ, Ĝ, D̂, Ĉ) of one trustor toward one trustee for one task
// type, plus bookkeeping (observation count). The store also answers
// per-characteristic queries used by the inference function (Eqs. 2–4) and
// by the transitivity search (§4.3).
//
// Layout: pair-major. A flat open-addressing index (common/flat_map.h)
// maps each directed (trustor, trustee) pair to a run of per-task
// records, kept sorted by task id. Every per-pair query — Find, Has,
// GetOrCreate, ExperiencedTasks, and the PairRecords span the overlays
// iterate — costs one probe plus a binary search over that pair's few
// tasks, instead of scanning the whole store. This is what keeps the
// §5.5 transitivity sweep linear in the work it actually does: an agent
// pair experiences a handful of task types even when the store holds
// millions of records.
//
// Every pair's run lives in one record arena per store: fixed-size
// chunks that never move once allocated, addressed by a 32-bit record
// index. The index slot holds only the run's {begin, count, capacity},
// so neither the index nor the arena keeps a heap buffer per pair, and
// a restore of n records in k pairs allocates the index once and the
// arena once (Reserve). A run that fills up grows in place when it ends
// the arena's used region; otherwise it moves to a larger run and its
// old one goes on a free list for its capacity, to be reused by the
// next run of that size. Nothing is compacted, because compaction would
// move the runs of other pairs. So references and spans into a pair's
// records survive every insertion of other pairs; only a mutation of the
// same pair may move them.

#ifndef SIOT_TRUST_TRUST_STORE_H_
#define SIOT_TRUST_TRUST_STORE_H_

#include <algorithm>
#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/flat_map.h"
#include "common/status.h"
#include "trust/task.h"
#include "trust/types.h"
#include "trust/update.h"

namespace siot::trust {

/// One directed trust record trustor → trustee for a task type.
struct TrustRecord {
  OutcomeEstimates estimates;
  /// Number of delegation outcomes folded into the estimates.
  std::size_t observations = 0;
};

/// Key of a directed record.
struct TrustKey {
  AgentId trustor = kNoAgent;
  AgentId trustee = kNoAgent;
  TaskId task = kNoTask;

  bool operator==(const TrustKey&) const = default;
};

struct TrustKeyHash {
  std::size_t operator()(const TrustKey& k) const {
    std::uint64_t h = 0x9E3779B97F4A7C15ull;
    auto mix = [&h](std::uint64_t v) {
      h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    };
    mix(k.trustor);
    mix(k.trustee);
    mix(k.task);
    return static_cast<std::size_t>(h);
  }
};

/// One per-task record inside a (trustor, trustee) pair's record vector.
struct PairTaskRecord {
  TaskId task = kNoTask;
  TrustRecord record;
};

/// Directed trust-record store (pair-major; see file comment).
class TrustStore {
 public:
  /// Initial estimates for first contact (defaults per OutcomeEstimates).
  void SetDefaultEstimates(const OutcomeEstimates& estimates) {
    default_estimates_ = estimates;
  }
  const OutcomeEstimates& default_estimates() const {
    return default_estimates_;
  }

  /// Looks up a record; nullopt if the trustor has no experience with this
  /// trustee on this task.
  std::optional<TrustRecord> Find(AgentId trustor, AgentId trustee,
                                  TaskId task) const;

  /// True if a record exists.
  bool Has(AgentId trustor, AgentId trustee, TaskId task) const;

  /// Returns the record, creating it from the default estimates if absent.
  /// The reference stays valid until the next mutation of the same
  /// (trustor, trustee) pair; inserting other pairs does not move it.
  TrustRecord& GetOrCreate(AgentId trustor, AgentId trustee, TaskId task);

  /// Overwrites (or creates) a record's estimates; the observation count is
  /// reset to zero.
  void Put(AgentId trustor, AgentId trustee, TaskId task,
           const OutcomeEstimates& estimates);

  /// Overwrites (or creates) a full record — estimates and observation
  /// count — with a single lookup.
  void PutRecord(AgentId trustor, AgentId trustee, TaskId task,
                 const TrustRecord& record);

  /// Applies one delegation outcome via Eqs. 19–22 and increments the
  /// observation count. Creates the record from defaults if absent.
  /// Returns the updated estimates.
  const OutcomeEstimates& RecordOutcome(AgentId trustor, AgentId trustee,
                                        TaskId task,
                                        const DelegationOutcome& outcome,
                                        const ForgettingFactors& beta);

  /// Environment-aware variant (Eqs. 25–28): the observation is de-biased
  /// by the aggregate chain indicator before the β-forgetting update. This
  /// is the single source of truth TrustEngine::ReportOutcome uses.
  const OutcomeEstimates& RecordOutcome(AgentId trustor, AgentId trustee,
                                        TaskId task,
                                        const DelegationOutcome& outcome,
                                        const ForgettingFactors& beta,
                                        double aggregate_env);

  /// All records of one directed (trustor, trustee) pair, sorted by task
  /// id. One hash probe; the span stays valid until the next mutation of
  /// the same pair (inserting other pairs does not move it).
  std::span<const PairTaskRecord> PairRecords(AgentId trustor,
                                              AgentId trustee) const;

  /// All task ids for which `trustor` has a record about `trustee`.
  std::vector<TaskId> ExperiencedTasks(AgentId trustor,
                                       AgentId trustee) const;

  /// Trustworthiness (Eq. 18) of trustee for task as seen by trustor, or
  /// nullopt without a record.
  std::optional<double> Trustworthiness(AgentId trustor, AgentId trustee,
                                        TaskId task,
                                        const Normalizer& normalizer) const;

  /// Total number of (trustor, trustee, task) records.
  std::size_t size() const { return record_count_; }
  /// Number of distinct directed (trustor, trustee) pairs with records.
  std::size_t pair_count() const { return pairs_.size(); }
  /// Sizes the store so `pairs` distinct pairs holding `records` records
  /// in all fit without growing the index or allocating arena chunks.
  void Reserve(std::size_t pairs, std::size_t records) {
    pairs_.Reserve(pairs);
    arena_.Reserve(records);
  }
  void Clear() {
    pairs_.Clear();
    arena_.Clear();
    record_count_ = 0;
  }

  /// Calls `fn(trustor, trustee, records)` for every pair, in (trustor,
  /// trustee) order, with the pair's records sorted by task id. Sorts the
  /// pair keys only; the records are read where they are stored.
  template <typename Fn>
  void ForEachPairSorted(const Fn& fn) const {
    std::vector<std::pair<PairKey, PairRun>> by_pair;
    by_pair.reserve(pairs_.size());
    pairs_.ForEach([&by_pair](const PairKey& key, const PairRun& run) {
      by_pair.emplace_back(key, run);
    });
    std::sort(by_pair.begin(), by_pair.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [key, run] : by_pair) {
      fn(key.trustor, key.trustee, Records(run));
    }
  }

  /// All records sorted by (trustor, trustee, task) — canonical order for
  /// serialization and inspection.
  std::vector<std::pair<TrustKey, TrustRecord>> AllRecords() const;

 private:
  struct PairKey {
    AgentId trustor = kNoAgent;
    AgentId trustee = kNoAgent;

    auto operator<=>(const PairKey&) const = default;
  };
  struct PairKeyHash {
    std::size_t operator()(const PairKey& k) const {
      return (static_cast<std::uint64_t>(k.trustor) << 32) | k.trustee;
    }
  };
  /// A pair's records: `count` sorted records at arena index `begin`, in
  /// a run with room for `capacity`.
  struct PairRun {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
    std::uint32_t capacity = 0;
  };

  /// Chunked storage for every pair's run (see the file comment). A
  /// record index names chunk `index / kChunkRecords`; a block is one
  /// allocation of consecutive chunks, so a run may cross chunk
  /// boundaries inside one block and stays contiguous in memory.
  class RecordArena {
   public:
    RecordArena() = default;
    RecordArena(const RecordArena& other);
    RecordArena& operator=(const RecordArena& other);
    RecordArena(RecordArena&& other) noexcept;
    RecordArena& operator=(RecordArena&& other) noexcept;
    ~RecordArena() { Clear(); }

    PairTaskRecord* at(std::uint32_t index) const {
      return chunks_[index >> kChunkShift] + (index & (kChunkRecords - 1));
    }
    /// Index of a free run of exactly `capacity` records: a freed run of
    /// that capacity if there is one, else the next unused records.
    std::uint32_t Allocate(std::uint32_t capacity);
    /// Returns a run to the free list for its capacity.
    void Free(std::uint32_t begin, std::uint32_t capacity);
    /// Extends the run [begin, begin + capacity) by one record when it
    /// ends the used region of the current block and the block has room.
    bool TryGrowInPlace(std::uint32_t begin, std::uint32_t capacity);
    /// Makes room for `records` more records without another allocation.
    void Reserve(std::size_t records);
    /// Releases every chunk.
    void Clear();

   private:
    static constexpr std::uint32_t kChunkShift = 10;
    static constexpr std::uint32_t kChunkRecords = 1u << kChunkShift;
    static constexpr std::uint32_t kNoRun = ~std::uint32_t{0};

    /// Starts a block with room for at least `records` records; what is
    /// left of the current block goes on a free list.
    void OpenBlock(std::size_t records);

    std::vector<PairTaskRecord*> chunks_;
    /// First chunk of every block; each is one allocation.
    std::vector<PairTaskRecord*> blocks_;
    /// The block being filled: [block_begin_, block_end_) in record
    /// indices, used up to top_.
    std::uint32_t block_begin_ = 0;
    std::uint32_t top_ = 0;
    std::uint32_t block_end_ = 0;
    /// free_heads_[c]: first freed run of capacity c, or kNoRun. A freed
    /// run's first record holds the next one's index in its task field.
    std::vector<std::uint32_t> free_heads_;
  };

  std::span<const PairTaskRecord> Records(const PairRun& run) const {
    if (run.count == 0) return {};
    return {arena_.at(run.begin), run.count};
  }

  /// Returns the pair's record for `task`, inserting `init` if absent (and
  /// reporting the insertion through `inserted`).
  TrustRecord& Upsert(AgentId trustor, AgentId trustee, TaskId task,
                      const TrustRecord& init, bool* inserted);
  /// Gives `run` room for one more record; returns its records.
  PairTaskRecord* Grow(PairRun* run);

  FlatMap<PairKey, PairRun, PairKeyHash> pairs_;
  RecordArena arena_;
  std::size_t record_count_ = 0;
  OutcomeEstimates default_estimates_;
};

}  // namespace siot::trust

#endif  // SIOT_TRUST_TRUST_STORE_H_
