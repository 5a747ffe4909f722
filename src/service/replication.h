// Copyright 2026 The siot-trust Authors.
// ReplicaService: a read-only follower of a durable TrustService — the
// ShardedEngines serving core (service/sharded_engines.h) plus a WAL
// tailer. It serves reads with the very code the leader runs (same
// validation, counters, batch semantics and consistent cut); what it
// adds is how state arrives: the per-shard WALs ARE a replication
// stream — CRC-framed, sequence-numbered, applied through a replay path
// that is provably byte-identical to the leader's in-memory state.
//
// The follower opens the leader's persistence directory (or a copied /
// streamed snapshot of it), restores the latest per-shard checkpoint,
// then TAILS each shard's WAL segments: every poll reads the frames
// appended past its applied sequence number, validates CRC and sequence
// continuity, and applies them through service::ApplyWalOp. The paper's
// workload is read-dominated — Eq. 4 inference and Eq. 23/24 delegation
// ranking are queries over accumulated direct experience — so a fleet of
// followers scales exactly the traffic that matters, and a follower that
// promotes on leader death is the availability story trust-resilient
// SIoT platforms need.
//
// The leader never truncates a segment a follower may read (see
// service/persistence.h): a checkpoint seals the open segment, starts
// shard-<k>.<S+1>.wal, and only then unlinks what the checkpoint covers.
// So the tailer follows one rule per shard:
//
//   * read the open segment to its end; a partial last frame is an
//     append still landing — WAIT, its bytes arrive on a later poll;
//   * if a segment named applied_seq + 1 exists, the open one is sealed:
//     continue in that one;
//   * if the open segment was unlinked and has no such successor, a
//     checkpoint past applied_seq covers the rest: load it and open the
//     segment that holds its seq + 1;
//   * a complete frame that fails its check, or a sequence gap, is
//     Corruption: HALT (sticky, see TailStatus); reads keep serving the
//     last consistent state, mutations were never accepted.
//
// Failover: Promote() fences the directory by acquiring the LOCK the
// old leader held (refused while the leader is alive), finishes the
// tail, and brings up a writable TrustService over the same directory —
// handing it the held fence so there is no window in which a third node
// could seize leadership. The new leader adopts this replica's caught-up
// engines and resumes each shard's writer at the position the tail
// reached; it does not recover from disk again. Tailing applies exactly
// the frames recovery would replay, so the adopted state is the state a
// fresh recovery derives (the promote tests assert both byte for byte).
// Every write the old leader acknowledged is in the WALs, so the
// promoted service serves them all: zero acknowledged-write loss.
//
// Thread safety: all public methods are safe to call concurrently. The
// tailer applies frames under the core's per-shard lock held exclusive;
// reads take it shared.

#ifndef SIOT_SERVICE_REPLICATION_H_
#define SIOT_SERVICE_REPLICATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "graph/graph.h"
#include "service/overlay_serving.h"
#include "service/periodic_worker.h"
#include "service/persistence.h"
#include "service/sharded_engines.h"
#include "service/trust_service.h"
#include "trust/trust_engine.h"

namespace siot::service {

/// Follower configuration.
struct ReplicaOptions {
  /// The leader's persistence directory (or a copy of one). Must already
  /// hold a manifest — a replica never initializes a directory.
  std::string directory;
  /// Background tailing period (0 = no thread; the owner drives polls
  /// via PollAll / AwaitPositions).
  std::chrono::milliseconds poll_period{0};
  /// Apply at most this many frames per shard per PollAll call
  /// (0 = unlimited). Exists for the crash-during-catch-up tests, which
  /// need to stop a follower at precise mid-catch-up points.
  std::size_t max_frames_per_poll = 0;

  // --- follower-served transitive reads (null graph = disabled) ---

  /// Social graph for the §4.3 transitive read path (agent i = node i).
  /// When set, the follower can build versioned overlay snapshots over
  /// its replicated shards and answer TransitiveTrust queries.
  std::shared_ptr<const graph::Graph> overlay_graph;
  /// Search parameters for the served transitivity queries.
  trust::TransitivityParams transitivity;
  /// Background snapshot rebuild period (0 = no thread; the owner
  /// drives rebuilds via BuildOverlaySnapshot). The first build runs as
  /// soon as the thread starts.
  std::chrono::milliseconds snapshot_rebuild_period{0};
};

/// One shard's replication position, relative to what is on disk now.
struct ShardReplicationLag {
  std::size_t shard = 0;
  /// Last op sequence applied to this follower's engine.
  std::uint64_t applied_seq = 0;
  /// Last complete frame sequence visible right now in the segment this
  /// follower reads and every later one (>= applied_seq always).
  std::uint64_t visible_seq = 0;
  /// visible_seq - applied_seq (0 when caught up).
  std::uint64_t seq_lag = 0;
  /// Current size of the segment this follower reads (0 before it
  /// opened one).
  std::uint64_t wal_bytes = 0;
  /// Bytes of that segment this follower has consumed.
  std::uint64_t read_offset = 0;
  /// Bytes not yet consumed: the rest of that segment plus every later
  /// segment (0 when caught up).
  std::uint64_t byte_lag = 0;
  /// A partial frame is pending at the tail (an append in flight).
  bool torn_tail = false;
};

/// Read-only WAL-tailing follower; see file comment.
class ReplicaService {
 public:
  /// Opens a follower over `options.directory`. The directory must have
  /// been initialized by a leader under the SAME `config` (verified
  /// against the manifest; a follower replaying under a different engine
  /// config would silently diverge). Restores checkpoints (shards
  /// concurrently; when several fail, the lowest shard's error is
  /// returned), performs one initial catch-up poll, and starts the
  /// background tailing thread when `poll_period` is set. The leader may
  /// be live or dead; a follower never takes the directory LOCK.
  static StatusOr<std::unique_ptr<ReplicaService>> Open(
      const TrustServiceConfig& config, const ReplicaOptions& options);

  ~ReplicaService();
  ReplicaService(const ReplicaService&) = delete;
  ReplicaService& operator=(const ReplicaService&) = delete;

  // ----------------------------------------------------------- tailing --

  /// One tailing pass over every shard: applies all complete, in-sequence
  /// frames currently on disk (up to max_frames_per_poll) and returns how
  /// many were applied. A torn tail waits; sealed and unlinked segments
  /// are followed as the file comment describes; corruption returns (and
  /// stickies) Status Corruption.
  StatusOr<std::size_t> PollAll();

  /// Blocks until this follower's applied sequence reaches `targets`
  /// (from the leader's WalPositions barrier) on every listed shard, or
  /// `timeout` elapses (Unavailable). Drives polls itself when no
  /// background thread is running.
  Status AwaitPositions(std::span<const ShardWalPosition> targets,
                        std::chrono::milliseconds timeout);

  /// First corruption the tailer hit, if any (sticky; OK otherwise).
  /// A poisoned follower keeps serving its last consistent state.
  Status TailStatus() const;

  /// Per-shard sequence/byte lag against the directory's current
  /// contents. Advisory: the leader may append concurrently.
  std::vector<ShardReplicationLag> ReplicationLag() const;

  // -------------------------------------- transitive read surface --
  // THE production home of §4.3 transitive serving: the follower holds
  // every shard's replicated state, tolerates staleness by design, and
  // its rebuild holds only FOLLOWER shard locks — the leader's write
  // path is never touched. Answers carry the snapshot version (the
  // per-shard applied_seq vector) + age; OverlayInfo() reports the same
  // alongside ReplicationLag() for monitoring.

  /// Assembles + publishes a fresh overlay snapshot from the replicated
  /// shard stores. The applied_seq version vector is frozen under ONE
  /// simultaneous all-shard shared-lock hold — a consistent cut the
  /// tailer (which applies under per-shard exclusive locks) can never
  /// split. The expensive hop-cache preparation runs after the locks
  /// drop; readers of the previous snapshot never block.
  /// FailedPrecondition without ReplicaOptions::overlay_graph or after
  /// Promote().
  Status BuildOverlaySnapshot() {
    SIOT_RETURN_IF_ERROR(CheckServing());
    return core_.RebuildOverlay("set ReplicaOptions::overlay_graph");
  }

  /// Transitive trust query against the published snapshot.
  StatusOr<TransitiveTrustResult> TransitiveTrust(
      const TransitiveTrustRequest& request) const {
    SIOT_RETURN_IF_ERROR(CheckServing());
    return core_.overlay().Query(request);
  }

  /// Batched variant: whole-batch validation, atomic rejection, every
  /// answer from one snapshot.
  StatusOr<std::vector<TransitiveTrustResult>> BatchTransitiveTrust(
      std::span<const TransitiveTrustRequest> requests) const {
    SIOT_RETURN_IF_ERROR(CheckServing());
    return core_.overlay().BatchQuery(requests);
  }

  /// Version/age/size of the served snapshot (built=false before the
  /// first successful build).
  OverlaySnapshotInfo OverlayInfo() const { return core_.overlay().Info(); }

  /// The served snapshot bundle (null before the first build).
  std::shared_ptr<const trust::VersionedOverlaySnapshot>
  CurrentOverlaySnapshot() const {
    return core_.overlay().CurrentSnapshot();
  }

  /// Last error of the background rebuild thread, if any (OK otherwise
  /// or when rebuilds are owner-driven). A failed rebuild keeps serving
  /// the previous snapshot.
  Status OverlayRebuildStatus() const;

  // ------------------------------------------------------ read surface --
  // The core's read surface, exactly as the leader serves it: requests
  // are validated up front (a task validates once every shard of this
  // follower has applied its registration) and batches are rejected
  // whole. FailedPrecondition after Promote().

  /// Pre-evaluation TW_X←Y(τ) (shared lock on the trustor's shard).
  StatusOr<double> PreEvaluate(trust::AgentId trustor,
                               trust::AgentId trustee,
                               trust::TaskId task) const {
    SIOT_RETURN_IF_ERROR(CheckServing());
    return core_.PreEvaluate(trustor, trustee, task);
  }

  /// Delegation RANKING query: strategy-aware Eq. 23/24 ranking over the
  /// replicated estimates. Read-only (the engine call is const); the
  /// resulting delegation outcome must be reported to the LEADER.
  StatusOr<trust::DelegationRequestResult> RequestDelegation(
      const DelegationServiceRequest& request) const {
    SIOT_RETURN_IF_ERROR(CheckServing());
    return core_.RequestDelegation(request);
  }

  /// Batched variants, one lock acquisition per touched shard, results
  /// in input order.
  StatusOr<std::vector<double>> BatchPreEvaluate(
      std::span<const PreEvaluateRequest> requests) const {
    SIOT_RETURN_IF_ERROR(CheckServing());
    return core_.BatchPreEvaluate(requests);
  }
  StatusOr<std::vector<trust::DelegationRequestResult>>
  BatchRequestDelegation(
      std::span<const DelegationServiceRequest> requests) const {
    SIOT_RETURN_IF_ERROR(CheckServing());
    return core_.BatchRequestDelegation(requests);
  }

  TrustServiceStats Stats() const { return core_.Stats(); }
  std::size_t shard_count() const { return core_.shard_count(); }

  /// Direct engine access for tests and offline inspection. NOT
  /// synchronized — the caller must guarantee no concurrent use.
  const trust::TrustEngine& shard_engine(std::size_t shard) const {
    return core_.engine_unsynchronized(shard);
  }

  // -------------------------------------- rejected mutation surface --
  // A follower is read-only: accepting a write would fork the WAL. All
  // of these return FailedPrecondition, mirroring the service API so a
  // router can address leaders and followers uniformly.

  Status ReportOutcome(const OutcomeReport& report);
  Status BatchReportOutcome(std::span<const OutcomeReport> reports);
  StatusOr<trust::TaskId> RegisterTask(
      const std::string& name,
      const std::vector<trust::CharacteristicId>& characteristics);
  Status SetReverseThreshold(trust::AgentId trustee, trust::TaskId task,
                             double theta);
  Status SetEnvironmentIndicator(trust::AgentId agent, double indicator);

  // ----------------------------------------------------------- failover --

  /// Takes over a dead leader's directory: acquires the directory LOCK
  /// (FailedPrecondition while the old leader still holds it — a live
  /// leader must never be usurped), finishes tailing the now-static
  /// WALs, and returns a writable TrustService over the directory under
  /// `options` (whose directory must match) that holds the fence and
  /// takes over this replica's engines. Each shard's writer resumes at
  /// the tailed position: applied_seq is the last sequence number, and
  /// the read offset the valid bytes of the newest segment (an
  /// unacknowledged torn tail is truncated, exactly as leader crash
  /// recovery would). A stale .tmp checkpoint is removed and admin
  /// writes a crash left half-replicated are completed, as in Open.
  /// Every step that can fail runs before the engines move, so a failed
  /// promote leaves this replica serving and tailing. On success this
  /// replica stops serving (FailedPrecondition from every read and poll,
  /// including those already in flight when the engines moved) and is
  /// left with empty engines.
  StatusOr<std::unique_ptr<TrustService>> Promote(
      const PersistenceOptions& options);

 private:
  struct ReplicaShard : EngineShard {
    using EngineShard::EngineShard;
    /// The consistent cut's version: the last applied op.
    std::uint64_t CutVersion() const SIOT_REQUIRES_SHARED(mutex) {
      return applied_seq;
    }
    /// Descriptor of the segment being tailed (-1 while none is open). It
    /// keeps reading a segment the leader unlinked.
    int fd SIOT_GUARDED_BY(mutex) = -1;
    /// first_seq of that segment.
    std::uint64_t segment SIOT_GUARDED_BY(mutex) = 0;
    /// Bytes of it consumed, frame-aligned.
    std::uint64_t read_offset SIOT_GUARDED_BY(mutex) = 0;
    /// Last op folded into `engine`.
    std::uint64_t applied_seq SIOT_GUARDED_BY(mutex) = 0;
    /// applied_seq of the last checkpoint loaded.
    std::uint64_t checkpoint_seq SIOT_GUARDED_BY(mutex) = 0;
    /// Last poll ended on a partial frame.
    bool torn_pending SIOT_GUARDED_BY(mutex) = false;
  };

  ReplicaService(const TrustServiceConfig& config,
                 const ReplicaOptions& options);

  /// One tailing pass over one shard; caller holds the exclusive lock.
  StatusOr<std::size_t> PollShardLocked(ReplicaShard& shard)
      SIOT_REQUIRES(shard.mutex);

  /// Opens the segment holding applied_seq + 1, loading the checkpoint
  /// first when no listed segment holds it any more. False when the
  /// leader has not created a segment yet.
  StatusOr<bool> OpenSegmentLocked(ReplicaShard& shard)
      SIOT_REQUIRES(shard.mutex);

  /// Loads the checkpoint on disk: the engine jumps to it when it is
  /// ahead of applied_seq. Corruption when none exists or it is behind.
  Status LoadCheckpointLocked(ReplicaShard& shard) SIOT_REQUIRES(shard.mutex);

  /// Polls until a pass applies nothing: the catch-up of a directory no
  /// leader writes to any more (Promote holds the fence).
  Status DrainStaticTail();

  /// FailedPrecondition once Promote succeeded.
  Status CheckServing() const;

  TrustServiceConfig config_;
  ReplicaOptions options_;
  ShardedEngines<ReplicaShard> core_;
  /// Lock rank 3 of 3 (leaf): PollAll records a shard's poll failure
  /// here while still holding that shard's lock; never the reverse. The
  /// ranks above it are the core's: build mutex → shard.mutex.
  mutable Mutex status_mutex_;
  /// Sticky first tailer corruption.
  Status tail_status_ SIOT_GUARDED_BY(status_mutex_);
  /// Last background rebuild outcome.
  Status rebuild_status_ SIOT_GUARDED_BY(status_mutex_);
  std::atomic<bool> promoted_{false};
  /// Background tailing (poll_period) and overlay rebuilds
  /// (snapshot_rebuild_period). Declared last: their bodies use the
  /// members above.
  PeriodicWorker poll_worker_;
  PeriodicWorker rebuild_worker_;
};

}  // namespace siot::service

#endif  // SIOT_SERVICE_REPLICATION_H_
