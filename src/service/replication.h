// Copyright 2026 The siot-trust Authors.
// ReplicaService: a read-only follower of a durable TrustService — the
// ShardedEngines serving core (service/sharded_engines.h) plus a WAL
// tailer. It serves reads with the very code the leader runs (same
// validation, counters and batch semantics); what it adds is how state
// arrives, and the §4.3 transitive read path, which only a follower
// serves. The per-shard WALs ARE a replication
// stream — CRC-framed, sequence-numbered, applied through a replay path
// that is provably byte-identical to the leader's in-memory state.
//
// The follower opens the leader's persistence directory (or a copied /
// streamed snapshot of it) and follows each shard's log with the very
// reader leader recovery drains (ShardLogReader, service/persistence.h):
// restore the latest checkpoint, then read the frames past the applied
// sequence number, with CRC and sequence continuity checked, through
// service::ApplyWalOp. The paper's workload is read-dominated — Eq. 4
// inference and Eq. 23/24 delegation ranking are queries over
// accumulated direct experience — so a fleet of followers scales exactly
// the traffic that matters, and a follower that promotes on leader death
// is the availability story trust-resilient SIoT platforms need.
//
// The leader never truncates a segment a follower may read (see
// service/persistence.h): a checkpoint seals the open segment, starts
// shard-<k>.<S+1>.wal, and only then unlinks what the checkpoint covers.
// The reader's one rule follows that live: a partial last frame is an
// append still landing, so the poll WAITS for its bytes; a sealed
// segment read to its end hands over to the one holding applied_seq + 1,
// or to the checkpoint that covers an unlinked gap. The one policy the
// follower sets is what a complete bad frame means: Corruption, so the
// tail HALTS (sticky, see TailStatus); reads keep serving the last
// consistent state, and mutations do not exist on a follower.
//
// Failover: Promote() fences the directory by acquiring the LOCK the
// old leader held (refused while the leader is alive), drains the now
// static log, and brings up a writable TrustService over the same
// directory — handing it the held fence so there is no window in which a
// third node could seize leadership. The new leader adopts this
// replica's caught-up engines and resumes each shard's writer at the
// position the reader reached; it does not recover from disk again.
// Recovery drains the same reader over the same files, so the adopted
// state and position are the ones a fresh recovery derives (the promote
// tests assert both byte for byte), apart from the bad-frame policy: a
// complete bad frame makes Promote refuse where recovery cuts it off.
// Every write the old leader acknowledged is in the WALs, so the
// promoted service serves them all: zero acknowledged-write loss.
//
// Thread safety: all public methods are safe to call concurrently. The
// tailer applies frames under the core's per-shard lock held exclusive;
// reads take it shared, and an overlay build takes every shard's at once
// (BuildOverlaySnapshot).

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

/// Read-only WAL-tailing follower; see file comment.
class ReplicaService {
 public:
  /// Opens a follower over `options.directory`. The directory must have
  /// been initialized by a leader under the SAME `config` (verified
  /// against the manifest; a follower replaying under a different engine
  /// config would silently diverge). Restores each shard's checkpoint
  /// and runs its first poll, all shards concurrently (when several fail,
  /// the lowest shard's error is returned), then starts the background
  /// tailing thread when `poll_period` is set. The leader may
  /// be live or dead; a follower never takes the directory LOCK.
  static StatusOr<std::unique_ptr<ReplicaService>> Open(
      const TrustServiceConfig& config, const ReplicaOptions& options);

  ReplicaService(const ReplicaService&) = delete;
  ReplicaService& operator=(const ReplicaService&) = delete;

  // ----------------------------------------------------------- tailing --

  /// One tailing pass over every shard: applies all complete, in-sequence
  /// frames currently on disk (up to max_frames_per_poll per shard) and
  /// returns how many were applied. A torn tail waits; sealed and
  /// unlinked segments are followed as ShardLogReader describes;
  /// corruption returns (and stickies) Status Corruption.
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
  /// contents (ShardLogReader::Lag). Advisory: the leader may append
  /// concurrently.
  std::vector<ShardReplicationLag> ReplicationLag() const;

  // -------------------------------------- transitive read surface --
  // The one home of §4.3 transitive serving: the follower holds every
  // shard's replicated state, tolerates staleness by design, and its
  // build holds only FOLLOWER shard locks — the leader's write path is
  // never touched. Answers carry the snapshot version (the per-shard
  // applied_seq vector) + age; OverlayInfo() reports the same alongside
  // ReplicationLag() for monitoring.

  /// Assembles + publishes a fresh overlay snapshot from the replicated
  /// shard stores. The stores and the applied_seq version vector are
  /// frozen under ONE simultaneous all-shard shared-lock hold — a
  /// consistent cut the tailer (which applies under per-shard exclusive
  /// locks) can never split. Cut and publish are serialized across
  /// callers, so published versions are componentwise non-decreasing.
  /// The expensive hop-cache preparation runs after the shard locks
  /// drop; readers of the previous snapshot never block.
  /// FailedPrecondition without ReplicaOptions::overlay_graph or after
  /// Promote().
  Status BuildOverlaySnapshot();

  /// Transitive trust query against the published snapshot.
  /// FailedPrecondition before the first build; InvalidArgument for a
  /// trustor outside the graph or a task the snapshot does not hold.
  StatusOr<TransitiveTrustResult> TransitiveTrust(
      const TransitiveTrustRequest& request) const {
    SIOT_RETURN_IF_ERROR(CheckTransitiveServing());
    return overlay_->Query(request);
  }

  /// Batched variant: whole-batch validation, atomic rejection, every
  /// answer from one snapshot.
  StatusOr<std::vector<TransitiveTrustResult>> BatchTransitiveTrust(
      std::span<const TransitiveTrustRequest> requests) const {
    SIOT_RETURN_IF_ERROR(CheckTransitiveServing());
    return overlay_->BatchQuery(requests);
  }

  /// Version/age/size of the served snapshot (built=false before the
  /// first successful build).
  OverlaySnapshotInfo OverlayInfo() const {
    return overlay_ != nullptr ? overlay_->Info() : OverlaySnapshotInfo{};
  }

  /// The served snapshot bundle (null before the first build).
  std::shared_ptr<const trust::VersionedOverlaySnapshot>
  CurrentOverlaySnapshot() const {
    return overlay_ != nullptr ? overlay_->CurrentSnapshot() : nullptr;
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

  // ----------------------------------------------------------- failover --

  /// Takes over a dead leader's directory: acquires the directory LOCK
  /// (FailedPrecondition while the old leader still holds it — a live
  /// leader must never be usurped), drains the now-static log, and
  /// returns a writable TrustService over the directory under `options`
  /// (whose directory must match) that holds the fence and takes over
  /// this replica's engines. Each shard's writer resumes at the position
  /// its reader reached — the same position recovery's drain of the same
  /// files reaches, so an unacknowledged torn tail is truncated and a
  /// log that ends before its newest segment starts restarts that
  /// segment, as on a restart. A stale .tmp checkpoint is removed and
  /// admin writes a crash left half-replicated are logged and read back,
  /// as in Open. Every step that can fail runs before the engines move,
  /// so a failed promote leaves this replica serving and tailing. On
  /// success this replica stops serving (FailedPrecondition from every
  /// read and poll, including those already in flight when the engines
  /// moved) and is left with empty engines.
  StatusOr<std::unique_ptr<TrustService>> Promote(
      const PersistenceOptions& options);

 private:
  struct ReplicaShard : EngineShard {
    using EngineShard::EngineShard;
    /// Follows this shard's log into `engine`. The pointer is set once
    /// before concurrency starts (the constructor) and never reseated.
    std::unique_ptr<ShardLogReader> log SIOT_PT_GUARDED_BY(mutex);
  };

  ReplicaService(const TrustServiceConfig& config,
                 const ReplicaOptions& options);

  /// One tailing pass over shard `s` (up to max_frames_per_poll frames)
  /// under its exclusive lock; a failure becomes the sticky TailStatus.
  StatusOr<std::size_t> PollShard(std::size_t s);

  /// Polls until a pass applies nothing: the catch-up of a directory no
  /// leader writes to any more (Promote holds the fence).
  Status DrainStaticTail();

  /// FailedPrecondition once Promote succeeded.
  Status CheckServing() const;

  /// CheckServing, then FailedPrecondition without an overlay graph.
  Status CheckTransitiveServing() const;

  /// Guarded reads under BuildOverlaySnapshot's MultiReaderLock, which
  /// holds EVERY shard's lock shared as a dynamic set the analysis cannot
  /// track; each re-asserts the one capability its access needs (the
  /// assert-capability audit — see MultiReaderLock).
  static const trust::TrustEngine& EngineOfShardAllLocked(
      const ReplicaShard& shard) {
    shard.mutex.AssertReaderHeld();
    return shard.engine;
  }
  static std::uint64_t AppliedSeqOfShardAllLocked(const ReplicaShard& shard) {
    shard.mutex.AssertReaderHeld();
    return shard.log->applied_seq();
  }

  TrustServiceConfig config_;
  ReplicaOptions options_;
  ShardedEngines<ReplicaShard> core_;
  /// The §4.3 read path BuildOverlaySnapshot publishes into; null
  /// without ReplicaOptions::overlay_graph. Set in the constructor.
  std::unique_ptr<OverlaySnapshotIndex> overlay_;
  /// Lock rank 1 of 3: build_mutex_ → shard.mutex (ascending index) →
  /// status_mutex_. Serializes BuildOverlaySnapshot's cut + publish, so
  /// the served version never goes backwards, and Promote holds it
  /// around its engine exchange, so no cut sees the engines half handed
  /// over. Queries never take it.
  Mutex build_mutex_ SIOT_ACQUIRED_BEFORE(status_mutex_);
  /// Lock rank 3 of 3 (leaf): PollAll records a shard's poll failure
  /// here while still holding that shard's lock; never the reverse.
  mutable Mutex status_mutex_;
  /// Sticky first tailer corruption.
  Status tail_status_ SIOT_GUARDED_BY(status_mutex_);
  /// Last background rebuild outcome.
  Status rebuild_status_ SIOT_GUARDED_BY(status_mutex_);
  std::atomic<bool> promoted_{false};
  /// Background tailing (poll_period) and overlay rebuilds
  /// (snapshot_rebuild_period). Declared last, so they are destroyed —
  /// and joined — before the members their bodies use.
  PeriodicWorker poll_worker_;
  PeriodicWorker rebuild_worker_;
};

}  // namespace siot::service

#endif  // SIOT_SERVICE_REPLICATION_H_
