// Copyright 2026 The siot-trust Authors.
// Storage of directed trust records. A record holds the four outcome
// estimates (Ŝ, Ĝ, D̂, Ĉ) of one trustor toward one trustee for one task
// type, plus bookkeeping (observation count). The store also answers
// per-characteristic queries used by the inference function (Eqs. 2–4) and
// by the transitivity search (§4.3).
//
// Layout: pair-major. A flat open-addressing index (common/flat_map.h)
// maps each directed (trustor, trustee) pair to its own small vector of
// per-task records, kept sorted by task id. Every per-pair query — Find,
// Has, GetOrCreate, ExperiencedTasks, and the PairRecords span the
// overlays iterate — costs one probe plus a binary search over that
// pair's few tasks, instead of scanning the whole store. This is what
// keeps the §5.5 transitivity sweep linear in the work it actually does:
// an agent pair experiences a handful of task types even when the store
// holds millions of records. The index holds no heap node per pair: a
// restore of n pairs allocates the table once plus one buffer per pair.
// Growing the index moves each pair's vector object but never its
// buffer, so references and spans into a pair's records survive every
// insertion of other pairs.

#ifndef SIOT_TRUST_TRUST_STORE_H_
#define SIOT_TRUST_TRUST_STORE_H_

#include <compare>
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
  /// Sizes the pair index so `pairs` distinct pairs fit without growing.
  void ReservePairs(std::size_t pairs) { pairs_.Reserve(pairs); }
  void Clear() {
    pairs_.Clear();
    record_count_ = 0;
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

  /// Returns the pair's record for `task`, inserting `init` if absent (and
  /// reporting the insertion through `inserted`).
  TrustRecord& Upsert(AgentId trustor, AgentId trustee, TaskId task,
                      const TrustRecord& init, bool* inserted);

  FlatMap<PairKey, std::vector<PairTaskRecord>, PairKeyHash> pairs_;
  std::size_t record_count_ = 0;
  OutcomeEstimates default_estimates_;
};

}  // namespace siot::trust

#endif  // SIOT_TRUST_TRUST_STORE_H_
