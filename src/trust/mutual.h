// Copyright 2026 The siot-trust Authors.
// Mutuality of trustor and trustee (paper §4.1, Eq. 1, Fig. 2).
//
// The trustee protects itself by a *reverse evaluation* of the trustor:
// from its usage records (log files / usage patterns) it estimates how
// likely the trustor is to use its resources responsibly, and only accepts
// the delegation when that reverse trustworthiness clears its threshold
// θ_y(τ). Trustee selection (Eq. 1) is argmax over candidates' forward
// trustworthiness subject to passing the candidate's reverse evaluation —
// procedurally, the trustor walks its candidates in descending forward
// trustworthiness until one accepts (Fig. 2).

#ifndef SIOT_TRUST_MUTUAL_H_
#define SIOT_TRUST_MUTUAL_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/status.h"
#include "trust/types.h"

namespace siot::trust {

/// Usage history a trustee keeps about a trustor.
struct UsageHistory {
  std::size_t responsive_uses = 0;
  std::size_t abusive_uses = 0;

  std::size_t total() const { return responsive_uses + abusive_uses; }
};

/// One (trustee, trustor) usage history, exported for serialization.
struct UsageEntry {
  AgentId trustee = kNoAgent;
  AgentId trustor = kNoAgent;
  UsageHistory history;
};

/// One explicit threshold setting θ_y(τ), exported for serialization
/// (task == kNoTask is the trustee's all-task threshold).
struct ThresholdEntry {
  AgentId trustee = kNoAgent;
  TaskId task = kNoTask;
  double theta = 0.0;
};

/// Reverse-evaluation ledger: what each trustee has recorded about each
/// trustor's use of its resources, and per-trustee acceptance thresholds.
class ReverseEvaluator {
 public:
  /// Beta(1,1)-smoothed estimate prior: with no history, reverse
  /// trustworthiness is 0.5 (uninformed).
  ReverseEvaluator() = default;

  /// Records one use of `trustee`'s resources by `trustor`.
  void RecordUsage(AgentId trustee, AgentId trustor, bool abusive);

  /// Overwrites (or creates) a pair's whole usage history in one step —
  /// deserialization restores accumulated counts without replaying them.
  void RestoreHistory(AgentId trustee, AgentId trustor,
                      const UsageHistory& history);

  /// The pair's usage history, or nullptr. The pointer is valid only
  /// until the next insertion into this evaluator, which may move every
  /// history.
  const UsageHistory* FindHistory(AgentId trustee, AgentId trustor) const;
  /// Number of (trustee, trustor) pairs with a usage history.
  std::size_t history_count() const { return history_.size(); }
  /// Sizes the history table so `pairs` pairs fit without growing.
  void ReserveHistories(std::size_t pairs) { history_.Reserve(pairs); }

  /// ~TW_y←X: Laplace-smoothed fraction of responsible uses.
  double ReverseTrustworthiness(AgentId trustee, AgentId trustor) const;

  /// Sets trustee's threshold θ_y(τ) for a task (kNoTask = all tasks).
  void SetThreshold(AgentId trustee, TaskId task, double theta);
  /// Sets the global default threshold for trustees with no own setting.
  void SetDefaultThreshold(double theta) { default_threshold_ = theta; }
  double default_threshold() const { return default_threshold_; }

  /// θ_y(τ): task-specific if set, else the trustee's all-task threshold,
  /// else the global default.
  double Threshold(AgentId trustee, TaskId task) const;
  /// Number of explicit θ_y(τ) settings.
  std::size_t threshold_count() const { return thresholds_.size(); }
  /// Sizes the threshold table so `count` settings fit without growing.
  void ReserveThresholds(std::size_t count) { thresholds_.Reserve(count); }

  /// Eq. 1 constraint: ~TW_y←X(τ) >= θ_y(τ).
  bool AcceptsDelegation(AgentId trustee, AgentId trustor, TaskId task) const;

  /// All usage histories sorted by (trustee, trustor) — canonical order
  /// for serialization.
  std::vector<UsageEntry> AllHistories() const;

  /// Calls `fn(trustee, trustor, history)` for every usage history, in
  /// AllHistories' order. Sorts the keys only; the histories are read
  /// where they are stored.
  template <typename Fn>
  void ForEachHistorySorted(const Fn& fn) const {
    std::vector<std::pair<std::uint64_t, const UsageHistory*>> by_pair;
    by_pair.reserve(history_.size());
    history_.ForEach([&by_pair](const PairKey& key,
                                const UsageHistory& history) {
      by_pair.emplace_back(
          (static_cast<std::uint64_t>(key.trustee) << 32) | key.trustor,
          &history);
    });
    std::sort(by_pair.begin(), by_pair.end());
    for (const auto& [packed, history] : by_pair) {
      fn(static_cast<AgentId>(packed >> 32), static_cast<AgentId>(packed),
         *history);
    }
  }

  /// All explicit thresholds sorted by (trustee, task) — canonical order
  /// for serialization.
  std::vector<ThresholdEntry> AllThresholds() const;

 private:
  struct PairKey {
    AgentId trustee;
    AgentId trustor;
    bool operator==(const PairKey&) const = default;
  };
  struct PairKeyHash {
    std::size_t operator()(const PairKey& k) const {
      return (static_cast<std::size_t>(k.trustee) << 32) ^ k.trustor;
    }
  };
  struct ThresholdKey {
    AgentId trustee;
    TaskId task;
    bool operator==(const ThresholdKey&) const = default;
  };
  struct ThresholdKeyHash {
    std::size_t operator()(const ThresholdKey& k) const {
      return (static_cast<std::size_t>(k.trustee) << 32) ^ k.task;
    }
  };

  FlatMap<PairKey, UsageHistory, PairKeyHash> history_;
  FlatMap<ThresholdKey, double, ThresholdKeyHash> thresholds_;
  double default_threshold_ = 0.0;
};

/// A candidate trustee with the forward trustworthiness the trustor
/// assigned it (pre-evaluation).
struct ScoredCandidate {
  AgentId agent = kNoAgent;
  double trustworthiness = 0.0;
};

/// Outcome of the Fig. 2 mutual selection procedure.
struct MutualSelection {
  /// Chosen trustee, or kNoAgent when every candidate refused.
  AgentId trustee = kNoAgent;
  /// Forward trustworthiness of the chosen trustee.
  double trustworthiness = 0.0;
  /// Candidates that refused (failed reverse evaluation), in query order.
  std::vector<AgentId> refusals;
};

/// Fig. 2: sorts candidates by descending forward trustworthiness and
/// returns the first that accepts trustor under its reverse evaluation.
/// Ties break by agent id (deterministic).
MutualSelection SelectTrusteeMutually(const ReverseEvaluator& evaluator,
                                      AgentId trustor, TaskId task,
                                      std::vector<ScoredCandidate> candidates);

}  // namespace siot::trust

#endif  // SIOT_TRUST_MUTUAL_H_
