// Copyright 2026 The siot-trust Authors.
// TrustService: the durable leader — the ShardedEngines serving core
// (service/sharded_engines.h) plus a WAL writer.
//
// The core supplies the shard vector, trustor routing and the validated
// read surface; everything a follower also serves is served by that same
// code. This class adds what only the writable role has: outcome reports
// (exclusive lock on the trustor's shard), the admin control plane, and
// — in durable mode — a per-shard CRC-framed WAL written before every
// apply, and inline checkpoints. Every write takes one path,
// WriteShards, whose comment states which flush a write pays.
//
// The leader serves no §4.3 transitive read: that path needs every
// shard's state frozen in one cut, which a follower (ReplicaService)
// takes over its replicated shards without stalling the leader's
// writers.
//
// Cross-trustor configuration (task catalog, reverse-evaluation thresholds,
// environment indicators) is replicated to every shard under a global
// admin mutex; these are rare control-plane writes.
//
// Batch APIs group a request vector by shard and take each shard lock once
// per batch, which is what the throughput bench drives. Results always
// come back in input order. Because shards share no data-plane state, a
// multi-threaded run over any partition of the trustors is equivalent to a
// single-threaded run of the same per-trustor operation sequences — the
// service and bench tests assert exactly that.

#ifndef SIOT_SERVICE_TRUST_SERVICE_H_
#define SIOT_SERVICE_TRUST_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "service/persistence.h"
#include "service/sharded_engines.h"
#include "trust/trust_engine.h"
#include "trust/types.h"

namespace siot::service {

/// Service configuration.
struct TrustServiceConfig {
  /// Number of shards (lock stripes / engine partitions); clamped to >= 1.
  /// More shards mean less write contention and more replicated admin
  /// state; 4× the serving thread count is a good default.
  std::size_t shard_count = 16;
  /// Engine configuration applied to every shard.
  trust::TrustEngineConfig engine;
};

/// One post-evaluation report (TrustEngine::ReportOutcome arguments).
struct OutcomeReport {
  trust::AgentId trustor = trust::kNoAgent;
  trust::AgentId trustee = trust::kNoAgent;
  trust::TaskId task = trust::kNoTask;
  trust::DelegationOutcome outcome;
  /// Relay chain between trustor and trustee (environment Eq. 29).
  std::vector<trust::AgentId> intermediates;
  bool trustor_was_abusive = false;
};

/// One shard's durable log position (see TrustService::WalPositions).
struct ShardWalPosition {
  std::size_t shard = 0;
  /// Sequence number of the shard's last durably appended op (0 = none;
  /// monotone over the directory's whole life — checkpoints seal and
  /// unlink WAL segments but never rewind sequence numbers).
  std::uint64_t last_seq = 0;
  /// Frame bytes in the shard's open WAL segment, the one appends go to
  /// (0 right after a checkpoint sealed the previous segment).
  std::uint64_t wal_bytes = 0;
};

/// Sharded, thread-safe trust serving layer; see file comment. All public
/// methods are safe to call concurrently from any number of threads.
class TrustService {
 public:
  explicit TrustService(TrustServiceConfig config = {});

  // ------------------------------------------------------- durability --

  /// Opens a DURABLE service over `options.directory`: every mutation is
  /// written to a per-shard CRC-framed WAL before it is applied, inline
  /// checkpoints bound recovery time, and this call drains each shard's
  /// log (checkpoint + WAL segments, through the ShardLogReader a
  /// follower tails with) so the returned service resumes byte-identical
  /// to the state at the last acknowledged write of the previous
  /// incarnation; admin writes a crash left half-replicated are logged
  /// and read back. The directory is created on first use and carries a
  /// manifest binding it to this shard count + engine config; reopening
  /// under a different configuration is refused (records would land on
  /// the wrong shards / replay would diverge). Shards restore and drain
  /// concurrently; when several fail, the lowest shard's error is
  /// returned. Corrupt files surface as Status Corruption, never a
  /// crash. See service/persistence.h.
  static StatusOr<std::unique_ptr<TrustService>> Open(
      const TrustServiceConfig& config, const PersistenceOptions& options);

  /// A shard's replicated admin state — task catalog, reverse
  /// thresholds, environment indicators — copied out of its engine.
  struct AdminState {
    AdminState() = default;
    explicit AdminState(const trust::TrustEngine& engine);
    trust::TaskCatalog catalog;
    std::vector<trust::ThresholdEntry> thresholds;
    std::vector<std::pair<trust::AgentId, double>> indicators;
  };

  /// The first half of a failover (ReplicaService::Promote): opens a
  /// leader over a directory a follower has drained, holding `fence`,
  /// WITHOUT recovering any state. The promoting replica hands in the
  /// fence it already holds, so there is no release/re-acquire window in
  /// which a third node could seize the directory; a fence that locks
  /// another directory is InvalidArgument. Shard s's writer resumes at
  /// `positions[s]`, the position the follower's ShardLogReader reached —
  /// where recovery's drain of the same files would resume it (stale
  /// .tmp removed, torn tail truncated, one directory sync). The admin
  /// ops shard s misses against shard 0 per `admin` (one state per
  /// shard, read from the follower's engines) are logged to its WAL but
  /// not applied: the follower reads them back like every other frame,
  /// as Open does. The engines stay empty and no checkpoint runs until
  /// AdoptEngines; the service must not be used before that.
  static StatusOr<std::unique_ptr<TrustService>> OpenForAdoption(
      const TrustServiceConfig& config, const PersistenceOptions& options,
      DirectoryLock fence, std::span<const ShardLogPosition> positions,
      std::span<const AdminState> admin);

  /// The second half: `engines[s]` (one per shard, caught up through the
  /// logged admin ops) becomes shard s's engine. Cannot fail.
  void AdoptEngines(std::vector<trust::TrustEngine> engines);

  /// Per-shard durable WAL positions, in shard order — and a frame-
  /// visibility barrier: each position is read under its shard's lock,
  /// so every append that completed before this call is fully written
  /// to its WAL segment (a follower reading the log sees whole frames up
  /// to `last_seq`, never a prefix of them). A follower whose applied
  /// sequence reaches `last_seq` on every shard has replicated every
  /// write acknowledged before the barrier. Empty when the service is
  /// not persistent.
  std::vector<ShardWalPosition> WalPositions() const;

  /// Checkpoints every shard now (seal the open WAL segment, serialize
  /// state, atomically replace the checkpoint file, unlink the sealed
  /// segments). Concurrency-safe: each shard is
  /// checkpointed under its exclusive lock, so data-plane traffic on
  /// other shards proceeds. FailedPrecondition when the service was not
  /// opened with persistence.
  Status Checkpoint();

  /// True when this service was created by Open (durable mode).
  bool persistent() const { return core_.shard(0).persist != nullptr; }

  /// First error an inline checkpoint hit, if any (writes are still
  /// durable in the WAL when a checkpoint fails; this surfaces the
  /// degradation for monitoring).
  Status background_status() const;

  /// True once a WAL append failed. A failed append can leave an admin
  /// write partially replicated across shards, so the service fails all
  /// further mutations (FailedPrecondition) instead of serving from
  /// divergent replicas — restart to recover: WAL replay plus
  /// LogMissingAdminOps squares the ledger. Reads keep working.
  bool degraded() const {
    return degraded_.load(std::memory_order_acquire);
  }

  // ----------------------------------------------------------- control --
  // Rare, globally serialized; replicated to every shard (and, in durable
  // mode, logged to every shard's WAL — each shard's checkpoint + WAL is
  // self-contained). A crash can interrupt replication midway; recovery
  // completes the partial admin write from shard 0's copy, which
  // replication makes durable first (see WriteShards).

  /// Registers a task type in every shard's catalog. Returns the task id,
  /// identical across shards (registration order is the id order).
  StatusOr<trust::TaskId> RegisterTask(
      const std::string& name,
      const std::vector<trust::CharacteristicId>& characteristics);

  /// Sets `trustee`'s reverse-evaluation threshold θ_y(τ)
  /// (task = kNoTask ⇒ all tasks).
  Status SetReverseThreshold(trust::AgentId trustee, trust::TaskId task,
                             double theta);

  /// Sets `agent`'s instantaneous environment indicator (in (0, 1]);
  /// InvalidArgument outside that range.
  Status SetEnvironmentIndicator(trust::AgentId agent, double indicator);

  // -------------------------------------------------------- data plane --
  // Unlike the engine underneath (where an unknown task id is a
  // programming error that trips SIOT_CHECK), the serving boundary treats
  // malformed requests as data: every data-plane call validates the task
  // id against the replicated catalog and returns InvalidArgument instead
  // of bringing the process down. Batch calls validate the WHOLE batch
  // up front and reject it atomically — no partial application.

  /// Pre-evaluation TW_X←Y(τ) (shared lock on the trustor's shard).
  StatusOr<double> PreEvaluate(trust::AgentId trustor,
                               trust::AgentId trustee,
                               trust::TaskId task) const {
    return core_.PreEvaluate(trustor, trustee, task);
  }

  /// Full delegation request (shared lock on the trustor's shard): ranking
  /// under the configured strategy, Eq. 24 self comparison, reverse
  /// evaluations.
  StatusOr<trust::DelegationRequestResult> RequestDelegation(
      const DelegationServiceRequest& request) const {
    return core_.RequestDelegation(request);
  }

  /// Post-evaluation (exclusive lock on the trustor's shard): a
  /// one-report batch.
  Status ReportOutcome(const OutcomeReport& report) {
    return BatchReportOutcome({&report, 1});
  }

  /// Batched variants: one lock acquisition per touched shard, results in
  /// input order.
  StatusOr<std::vector<double>> BatchPreEvaluate(
      std::span<const PreEvaluateRequest> requests) const {
    return core_.BatchPreEvaluate(requests);
  }
  StatusOr<std::vector<trust::DelegationRequestResult>>
  BatchRequestDelegation(
      std::span<const DelegationServiceRequest> requests) const {
    return core_.BatchRequestDelegation(requests);
  }
  Status BatchReportOutcome(std::span<const OutcomeReport> reports);

  // ------------------------------------------------------- observation --

  std::size_t shard_count() const { return core_.shard_count(); }
  /// Shard index serving `trustor` (stable for the service's lifetime).
  std::size_t ShardOf(trust::AgentId trustor) const {
    return core_.ShardOf(trustor);
  }
  TrustServiceStats Stats() const;

  /// Direct engine access for tests and offline inspection. NOT
  /// synchronized — the caller must guarantee no concurrent service use.
  const trust::TrustEngine& shard_engine(std::size_t shard) const {
    return core_.engine_unsynchronized(shard);
  }

 private:
  struct Shard : EngineShard {
    using EngineShard::EngineShard;
    /// Durable mode only. The pointer itself is set once before
    /// concurrency starts (Open) and never reseated; the pointee is
    /// mutated by appends/checkpoints under the exclusive lock and read
    /// (positions, stats) under at least the shared lock.
    std::unique_ptr<ShardPersistence> persist SIOT_PT_GUARDED_BY(mutex);
  };

  /// What Open and OpenForAdoption share before any shard holds state:
  /// checks the directory, adopts `fence` (or acquires the LOCK when it
  /// is not held), checks the manifest and gives every shard its
  /// ShardPersistence.
  static StatusOr<std::unique_ptr<TrustService>> Prepare(
      const TrustServiceConfig& config, const PersistenceOptions& options,
      DirectoryLock fence);

  /// The one writer-resume step of both ways up, once every shard's log
  /// is drained: resumes shard s's writer at `positions[s]`
  /// (ShardPersistence::Resume), makes every shard's WAL segment durable
  /// with ONE directory sync, then logs what a crash left half-replicated
  /// (LogMissingAdminOps, per `admin`, one state per shard). The caller's
  /// readers read those ops back into the engines.
  Status ResumeWriters(std::span<const ShardLogPosition> positions,
                       std::span<const AdminState> admin);

  /// Logs to each shard s >= 1's WAL the admin ops it misses against
  /// shard 0 (which admin replication always reaches first) per `admin`,
  /// one state per shard, without applying them. Corruption when a shard
  /// has more tasks than shard 0.
  Status LogMissingAdminOps(std::span<const AdminState> admin);

  /// One shard's part of a write: the WAL payloads it logs there.
  struct ShardWrite {
    std::size_t shard = 0;
    std::vector<std::string> payloads;
  };

  /// The one write path. For each of `writes` (ascending shard order),
  /// under that shard's WriterLock: logs its payloads (durable mode),
  /// runs `apply(shard)`, then checkpoints the shard inline once
  /// checkpoint_every_appends accumulated. The flush follows from what
  /// the write touched:
  ///   * one shard: an inline fsync, under the lock;
  ///   * several shards: ONE GroupCommitter round after the last lock
  ///     drops, so a write touching N shards pays one flush, not N;
  ///   * with `lead_shard_durable_first` (admin writes, which recovery
  ///     completes from shard 0), writes[0] fsyncs inline before any
  ///     other shard appends, and the rest share one round.
  /// An OK return means durable AND applied. A write is visible once
  /// applied, so a grouped shard's frames are readable for the length of
  /// one round before they are durable. A failed append stops the write
  /// at that shard (earlier shards stay logged and applied) and degrades
  /// the service; a failed round poisons every shard in it and degrades.
  template <typename Apply>
  Status WriteShards(std::span<const ShardWrite> writes,
                     bool lead_shard_durable_first, const Apply& apply);

  /// Admin writes: `op` for every shard, led by shard 0; `apply(engine)`
  /// on each, then the catalog noted (a registered task validates once
  /// the last shard has it). Caller holds admin_mutex_.
  template <typename Apply>
  Status WriteEveryShard(const std::string& op, const Apply& apply)
      SIOT_REQUIRES(admin_mutex_);

  /// FailedPrecondition once a WAL append has failed (see degraded()).
  Status CheckNotDegraded() const;

  /// Logs a failed inline checkpoint and keeps the FIRST such error in
  /// background_status().
  void RecordBackgroundFailure(const Status& status);

  ShardedEngines<Shard> core_;
  /// Lock rank 1 of 3: admin_mutex_ → shard.mutex (ascending index) →
  /// background_mutex_. The shard locks are per-instance and dynamic, so
  /// only the admin_mutex_ → background_mutex_ edge is expressible to
  /// the analysis; the shard tier is held by convention (and audited by
  /// MultiReaderLock's comment).
  Mutex admin_mutex_ SIOT_ACQUIRED_BEFORE(background_mutex_);
  /// Durable mode configuration; ShardPersistence instances point at it.
  PersistenceOptions persistence_;
  /// The rounds WriteShards flushes multi-shard writes in.
  GroupCommitter group_committer_;
  /// Held for the service's lifetime in durable mode (one live service
  /// per directory).
  DirectoryLock directory_lock_;
  /// Lock rank 3 of 3 (leaf): taken under a held shard lock by
  /// WriteShards' inline checkpoint; never the other way around.
  mutable Mutex background_mutex_;
  Status background_status_ SIOT_GUARDED_BY(background_mutex_);
  std::atomic<bool> degraded_{false};
  std::atomic<std::uint64_t> outcome_reports_{0};
};

/// The manifest contents binding a persistence directory to a shard
/// count + engine configuration. Exposed so a replica can verify it was
/// opened under the exact configuration the leader's directory was
/// created with (WAL replay under a different config silently diverges).
std::string BuildServiceManifest(std::size_t shard_count,
                                 const TrustServiceConfig& config);

/// Checks `directory`'s manifest against BuildServiceManifest: OK on a
/// match, InvalidArgument on a mismatch. A missing manifest is written
/// when `create` is set (a leader initializing the directory) and is
/// FailedPrecondition otherwise (a replica never initializes one).
Status CheckServiceManifest(const std::string& directory,
                            std::size_t shard_count,
                            const TrustServiceConfig& config, bool create);

}  // namespace siot::service

#endif  // SIOT_SERVICE_TRUST_SERVICE_H_
