// Copyright 2026 The siot-trust Authors.
// ShardedEngines: the one serving core under both roles — the durable
// leader (TrustService = core + WAL writer) and the WAL-tailing follower
// (ReplicaService = core + tailer). Whatever the role, a client's
// pre-evaluation and delegation ranking run this code, so leader and
// followers cannot drift apart in what they accept, count or answer.
// The §4.3 transitive read is the follower's alone (ReplicaService cuts
// its shards into overlay snapshots).
//
// The design exploits a locality fact of the paper's model: every piece
// of state an operation for trustor X touches is keyed by X —
//   * X's outcome estimates live under (X, trustee, task) in the store,
//   * the reverse-evaluation usage history a trustee keeps about X is
//     keyed (trustee, X) and is only ever consulted for X's own requests,
//   * delegation requests read, and outcome reports write, only X's rows.
// So serving shards BY TRUSTOR: each shard owns a full TrustEngine and a
// siot::SharedMutex. Queries (PreEvaluate, RequestDelegation — read-only
// since the Eq. 23/24 rework) take the shard's lock shared, so the
// read-mostly steady state serves concurrently; the role's writer (the
// leader's outcome reports, the follower's tailer) takes it exclusive.
// Operations for different trustors never contend on state, only on
// stripe co-residency.
//
// The core owns:
//   * the shard vector — SharedMutex + TrustEngine per shard (EngineShard)
//     plus the role's per-shard state, declared by deriving from
//     EngineShard and guarded by the same mutex;
//   * routing (ShardIndexForTrustor, GroupByShard);
//   * the validated read surface, single and batched, with the request
//     counters. Every request is validated BEFORE any lock is taken —
//     agents against the kNoAgent sentinel, tasks against a watermark
//     every shard's catalog has reached — and a batch is rejected whole.
//     Only accepted requests are counted;
//   * the failover hand-over (ExchangeEngines), which a read already
//     past validation cannot serve from.
//
// Both roles' Open restore their shards concurrently through
// ForEachIndexConcurrently, a Status-returning wrapper over ParallelFor
// (common/parallel_for.h).

#ifndef SIOT_SERVICE_SHARDED_ENGINES_H_
#define SIOT_SERVICE_SHARDED_ENGINES_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "trust/trust_engine.h"
#include "trust/types.h"

namespace siot::service {

/// One pre-evaluation query TW_X←Y(τ).
struct PreEvaluateRequest {
  trust::AgentId trustor = trust::kNoAgent;
  trust::AgentId trustee = trust::kNoAgent;
  trust::TaskId task = trust::kNoTask;
};

/// One delegation request (TrustEngine::RequestDelegation arguments).
struct DelegationServiceRequest {
  trust::AgentId trustor = trust::kNoAgent;
  trust::TaskId task = trust::kNoTask;
  std::vector<trust::AgentId> candidates;
  /// Enables the Eq. 24 self-execution comparison when present.
  std::optional<trust::OutcomeEstimates> self_estimates;
};

/// Point-in-time service counters and store sizes.
struct TrustServiceStats {
  std::size_t shard_count = 0;
  std::size_t record_count = 0;       ///< Σ shard store records.
  std::size_t pair_count = 0;         ///< Σ shard store directed pairs.
  std::uint64_t pre_evaluations = 0;  ///< Accepted queries since start.
  std::uint64_t delegation_requests = 0;
  std::uint64_t outcome_reports = 0;
  /// Durable-mode flush accounting (all zero without persistence or with
  /// sync_every_append off). `wal_sync_requests` counts logical "make
  /// this durable" requests; `wal_fsyncs` counts device flushes actually
  /// issued. A single-shard write's inline fsync advances both by one; a
  /// cross-shard batch enrolls one request in the group committer, and an
  /// admin write fsyncs shard 0 inline and enrolls one request for the
  /// rest. `wal_syncs_coalesced` = requests − flushes is the number of
  /// committer requests absorbed into a shared flush.
  std::uint64_t wal_sync_requests = 0;
  std::uint64_t wal_fsyncs = 0;
  std::uint64_t wal_syncs_coalesced = 0;
  /// Durable mode: checkpoints that waited for their shard's previous
  /// checkpoint to be written before they could seal — a writer that
  /// brought its shard to the next inline checkpoint first, or an
  /// explicit Checkpoint().
  std::uint64_t checkpoint_waits = 0;
};

/// Shard index serving `trustor` in a `shard_count`-shard deployment.
/// The ONE routing function of every role: a follower replays shard i's
/// WAL into its own shard i, so leader and replicas must agree on
/// routing forever — never fork this hash. (SplitMix64 finalizer:
/// adjacent agent ids spread across shards so a dense trustor range
/// doesn't pile onto one stripe.)
std::size_t ShardIndexForTrustor(trust::AgentId trustor,
                                 std::size_t shard_count);

/// Groups [0, count) by the shard of `trustor_of(i)` and runs
/// `body(shard, indices)` once per non-empty shard, in shard order; each
/// `indices` is ascending, so a batch writes its results in input order.
template <typename TrustorOf, typename Body>
void GroupByShard(std::size_t shard_count, std::size_t count,
                  const TrustorOf& trustor_of, const Body& body) {
  std::vector<std::vector<std::size_t>> buckets(shard_count);
  for (std::size_t i = 0; i < count; ++i) {
    buckets[ShardIndexForTrustor(trustor_of(i), shard_count)].push_back(i);
  }
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (!buckets[s].empty()) body(s, buckets[s]);
  }
}

/// Runs `body(i)` for every i in [0, count) through ParallelFor at
/// hardware concurrency. Every body runs whatever the others return; the
/// result is the lowest-index failure — exactly the status a serial loop
/// in index order returns (a thrown exception counts as a failure and is
/// rethrown here). Each body confines its writes to what item i owns.
Status ForEachIndexConcurrently(
    std::size_t count, const std::function<Status(std::size_t)>& body);

/// InvalidArgument when `agent` is the kNoAgent sentinel; `role` names
/// the field in the message.
Status ValidateAgent(trust::AgentId agent, const char* role);

/// The part of a shard every role has. A role derives its shard type
/// from this and adds its own state guarded by `mutex`.
struct EngineShard {
  EngineShard(std::size_t shard_index, const trust::TrustEngineConfig& config)
      : index(shard_index), engine(config) {}

  const std::size_t index;
  mutable SharedMutex mutex;
  trust::TrustEngine engine SIOT_GUARDED_BY(mutex);
};

/// The serving core; see file comment. All public methods are safe to
/// call concurrently unless noted.
template <typename Shard>
class ShardedEngines {
 public:
  /// `shard_count` is clamped to >= 1.
  ShardedEngines(std::size_t shard_count,
                 const trust::TrustEngineConfig& config) {
    shard_count = std::max<std::size_t>(shard_count, 1);
    shards_.reserve(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
      shards_.push_back(std::make_unique<Shard>(s, config));
    }
    const MutexLock lock(&watermark_mutex_);
    shard_tasks_.assign(shard_count, 0);
  }

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t ShardOf(trust::AgentId trustor) const {
    return ShardIndexForTrustor(trustor, shards_.size());
  }
  Shard& shard(std::size_t s) { return *shards_[s]; }
  const Shard& shard(std::size_t s) const { return *shards_[s]; }

  /// Caller-synchronized engine access (the roles' shard_engine test
  /// hook). Justified escape: the contract is "no concurrent use", and
  /// taking the shard lock here would let production code lean on it.
  const trust::TrustEngine& engine_unsynchronized(std::size_t s) const
      SIOT_NO_THREAD_SAFETY_ANALYSIS {
    return shards_[s]->engine;
  }

  /// Exchanges shard s's engine with `engines[s]` for every shard — how
  /// a promoted follower's caught-up engines reach the new leader — and
  /// notes each new catalog. Takes one shard lock at a time, so a caller
  /// that cuts across all shards keeps its cuts out (ReplicaService's
  /// build mutex). A read validated before the exchange but served after
  /// it finds a catalog without its task and fails closed
  /// (CheckEngineHoldsTask).
  void ExchangeEngines(std::span<trust::TrustEngine> engines) {
    SIOT_CHECK(engines.size() == shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = *shards_[s];
      const WriterLock lock(&shard.mutex);
      std::swap(shard.engine, engines[s]);
      NoteCatalogLocked(shard);
    }
  }

  // ------------------------------------------------------ read surface --

  /// Pre-evaluation TW_X←Y(τ) (shared lock on the trustor's shard).
  StatusOr<double> PreEvaluate(trust::AgentId trustor,
                               trust::AgentId trustee,
                               trust::TaskId task) const {
    const PreEvaluateRequest request{trustor, trustee, task};
    SIOT_RETURN_IF_ERROR(Validate(request));
    return ServeOne<double>(request, pre_evaluations_);
  }

  /// Delegation request (shared lock on the trustor's shard): ranking
  /// under the configured strategy, Eq. 24 self comparison, reverse
  /// evaluations.
  StatusOr<trust::DelegationRequestResult> RequestDelegation(
      const DelegationServiceRequest& request) const {
    SIOT_RETURN_IF_ERROR(Validate(request));
    return ServeOne<trust::DelegationRequestResult>(request,
                                                    delegation_requests_);
  }

  /// Batched variants: the whole batch is validated first and rejected
  /// atomically; then one lock acquisition per touched shard, results in
  /// input order.
  StatusOr<std::vector<double>> BatchPreEvaluate(
      std::span<const PreEvaluateRequest> requests) const {
    return ServeBatch<double>(requests, pre_evaluations_);
  }
  StatusOr<std::vector<trust::DelegationRequestResult>>
  BatchRequestDelegation(
      std::span<const DelegationServiceRequest> requests) const {
    return ServeBatch<trust::DelegationRequestResult>(requests,
                                                      delegation_requests_);
  }

  /// InvalidArgument unless every shard's catalog holds `task` — the
  /// guard that keeps the engine's unknown-task SIOT_CHECK unreachable
  /// from client input.
  Status ValidateTask(trust::TaskId task) const {
    if (task >= task_watermark_.load(std::memory_order_acquire)) {
      return Status::InvalidArgument(
          "task id " + std::to_string(task) +
          " is not registered (or not yet applied on every shard)");
    }
    return Status::OK();
  }

  /// Records `shard`'s catalog size after the role's writer changed it
  /// (a RegisterTask replica, a WAL apply, a checkpoint restore). The
  /// task watermark is the minimum over shards and only ever grows, so a
  /// task validates once every shard has applied its registration — and
  /// before the last of those shard locks drops. A catalog that shrank
  /// (ExchangeEngines handed the engines away) keeps its noted size: the
  /// serve path's locked check turns its reads away.
  void NoteCatalogLocked(const Shard& shard)
      SIOT_REQUIRES_SHARED(shard.mutex) {
    const auto tasks =
        static_cast<trust::TaskId>(shard.engine.catalog().size());
    const MutexLock lock(&watermark_mutex_);
    if (shard_tasks_[shard.index] >= tasks) return;
    shard_tasks_[shard.index] = tasks;
    task_watermark_.store(
        *std::min_element(shard_tasks_.begin(), shard_tasks_.end()),
        std::memory_order_release);
  }

  /// Shard count, accepted-read counters and Σ store sizes.
  TrustServiceStats Stats() const {
    TrustServiceStats stats;
    stats.shard_count = shards_.size();
    stats.pre_evaluations = pre_evaluations_.load(std::memory_order_relaxed);
    stats.delegation_requests =
        delegation_requests_.load(std::memory_order_relaxed);
    for (const auto& shard_ptr : shards_) {
      const Shard& shard = *shard_ptr;
      const ReaderLock lock(&shard.mutex);
      stats.record_count += shard.engine.store().size();
      stats.pair_count += shard.engine.store().pair_count();
    }
    return stats;
  }

 private:
  Status Validate(const PreEvaluateRequest& request) const {
    SIOT_RETURN_IF_ERROR(ValidateTask(request.task));
    SIOT_RETURN_IF_ERROR(ValidateAgent(request.trustor, "trustor"));
    return ValidateAgent(request.trustee, "trustee");
  }
  Status Validate(const DelegationServiceRequest& request) const {
    SIOT_RETURN_IF_ERROR(ValidateTask(request.task));
    SIOT_RETURN_IF_ERROR(ValidateAgent(request.trustor, "trustor"));
    for (const trust::AgentId candidate : request.candidates) {
      // A kNoAgent candidate would make the result's kNoAgent sentinel
      // ambiguous with a genuine selection.
      SIOT_RETURN_IF_ERROR(ValidateAgent(candidate, "candidate"));
    }
    return Status::OK();
  }

  /// The one engine call per request kind.
  static double Serve(const trust::TrustEngine& engine,
                      const PreEvaluateRequest& request) {
    return engine.PreEvaluate(request.trustor, request.trustee,
                              request.task);
  }
  static trust::DelegationRequestResult Serve(
      const trust::TrustEngine& engine,
      const DelegationServiceRequest& request) {
    return engine.RequestDelegation(request.trustor, request.task,
                                    request.candidates,
                                    request.self_estimates);
  }

  /// FailedPrecondition when `shard`'s engine lacks the validated
  /// request's task. Validation ran before the lock, so this is the one
  /// way that can happen: ExchangeEngines handed the engines away while
  /// the request waited for the lock. Keeps the engine's unknown-task
  /// SIOT_CHECK out of reach.
  template <typename Request>
  static Status CheckEngineHoldsTask(const Shard& shard,
                                     const Request& request)
      SIOT_REQUIRES_SHARED(shard.mutex) {
    if (request.task < shard.engine.catalog().size()) return Status::OK();
    return Status::FailedPrecondition(
        "shard " + std::to_string(shard.index) +
        " handed its engine over while the request for task " +
        std::to_string(request.task) + " waited");
  }

  /// Serves one validated request under its shard's shared lock and
  /// counts it.
  template <typename Result, typename Request>
  StatusOr<Result> ServeOne(const Request& request,
                            std::atomic<std::uint64_t>& accepted) const {
    const Shard& shard = *shards_[ShardOf(request.trustor)];
    const ReaderLock lock(&shard.mutex);
    SIOT_RETURN_IF_ERROR(CheckEngineHoldsTask(shard, request));
    accepted.fetch_add(1, std::memory_order_relaxed);
    return Serve(shard.engine, request);
  }

  /// Validates the whole batch, serves it one shard lock per touched
  /// shard, then counts it.
  template <typename Result, typename Request>
  StatusOr<std::vector<Result>> ServeBatch(
      std::span<const Request> requests,
      std::atomic<std::uint64_t>& accepted) const {
    for (const Request& request : requests) {
      SIOT_RETURN_IF_ERROR(Validate(request));
    }
    std::vector<Result> results(requests.size());
    Status failure;
    GroupByShard(
        shards_.size(), requests.size(),
        [&](std::size_t i) { return requests[i].trustor; },
        [&](std::size_t s, const std::vector<std::size_t>& indices) {
          if (!failure.ok()) return;
          const Shard& shard = *shards_[s];
          const ReaderLock lock(&shard.mutex);
          for (const std::size_t i : indices) {
            failure = CheckEngineHoldsTask(shard, requests[i]);
            if (!failure.ok()) return;
            results[i] = Serve(shard.engine, requests[i]);
          }
        });
    SIOT_RETURN_IF_ERROR(failure);
    accepted.fetch_add(requests.size(), std::memory_order_relaxed);
    return results;
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Leaf lock: taken under a held shard lock (shard.mutex →
  /// watermark_mutex_), never the reverse.
  Mutex watermark_mutex_;
  /// Last noted catalog size per shard.
  std::vector<trust::TaskId> shard_tasks_ SIOT_GUARDED_BY(watermark_mutex_);
  /// min(shard_tasks_), readable without any lock.
  std::atomic<trust::TaskId> task_watermark_{0};
  mutable std::atomic<std::uint64_t> pre_evaluations_{0};
  mutable std::atomic<std::uint64_t> delegation_requests_{0};
};

}  // namespace siot::service

#endif  // SIOT_SERVICE_SHARDED_ENGINES_H_
