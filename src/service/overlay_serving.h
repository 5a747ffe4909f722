// Copyright 2026 The siot-trust Authors.
// The transitive-trust read path a ReplicaService follower serves (§4.3;
// the leader has none).
//
// §4.3 transitivity needs a whole-graph overlay; the serving layer
// shards by trustor. The split that reconciles them: the follower FREEZES
// its shard stores under their locks just long enough to assemble one
// trust::VersionedOverlaySnapshot (CSR overlay + per-shard applied_seq
// version vector), then hands it to an OverlaySnapshotIndex, which does
// the expensive part — per-task hop-cache preparation — with no shard
// lock held, seals the search, and publishes the result by swapping a
// shared_ptr. Queries copy that shared_ptr under a mutex held for
// nanoseconds and then run entirely on immutable state: readers never
// block on a rebuild, and a rebuild never waits for readers.
//
// Staleness is explicit, not hidden: every answer carries the snapshot's
// version (the per-shard applied_seq vector it reflects) and its age, so
// callers can reason about what they read — the same contract
// ReplicationLag() gives the direct read path.

#ifndef SIOT_SERVICE_OVERLAY_SERVING_H_
#define SIOT_SERVICE_OVERLAY_SERVING_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "graph/graph.h"
#include "trust/overlay_builder.h"
#include "trust/transitivity.h"
#include "trust/types.h"

namespace siot::service {

/// One transitive trust query: potential trustees of `trustor` for
/// `task` under `method` (§4.3 / §5.5).
struct TransitiveTrustRequest {
  trust::AgentId trustor = trust::kNoAgent;
  trust::TaskId task = trust::kNoTask;
  trust::TransitivityMethod method = trust::TransitivityMethod::kAggressive;
};

/// A transitive answer plus the staleness evidence it was served from.
struct TransitiveTrustResult {
  trust::TransitivityResult result;
  /// Per-shard applied_seq vector of the snapshot that answered.
  trust::SnapshotVersion version;
  /// Time since that snapshot was published.
  std::chrono::milliseconds snapshot_age{0};
};

/// Point-in-time snapshot serving state, reported alongside
/// ReplicationLag() so monitoring sees both read paths' staleness.
struct OverlaySnapshotInfo {
  /// False until the first successful build is published.
  bool built = false;
  trust::SnapshotVersion version;
  std::chrono::milliseconds age{0};
  std::size_t node_count = 0;
  std::size_t directed_edge_count = 0;
  /// Tasks with sealed hop caches (= catalog size at build time).
  std::size_t prepared_tasks = 0;
  std::uint64_t rebuild_count = 0;
  /// Shard-lock-holding assembly cost of the last published build (the
  /// hop-cache preparation on top of it runs lock-free).
  std::chrono::milliseconds last_assembly_cost{0};
};

/// Lock-free-read snapshot publication point; see file comment. All
/// methods are thread-safe. A follower with an overlay graph owns one.
class OverlaySnapshotIndex {
 public:
  /// Queries validate against `graph` (non-null) and run under `params`.
  OverlaySnapshotIndex(std::shared_ptr<const graph::Graph> graph,
                       trust::TransitivityParams params);

  /// The social graph — the follower passes it to
  /// VersionedOverlaySnapshot so snapshot and index agree.
  const std::shared_ptr<const graph::Graph>& graph() const { return graph_; }

  /// Prepares hop caches for EVERY task in the snapshot's catalog, seals
  /// the search, and atomically publishes. The caller must NOT hold
  /// shard locks — this is the expensive step the snapshot design keeps
  /// lock-free. `assembly_cost` is the lock-holding build time, for
  /// Info().
  Status Publish(
      std::shared_ptr<const trust::VersionedOverlaySnapshot> snapshot,
      std::chrono::milliseconds assembly_cost = std::chrono::milliseconds{0});

  /// Serves one query from the current snapshot. FailedPrecondition
  /// before the first Publish; InvalidArgument for a trustor outside the
  /// graph or a task the snapshot's catalog does not hold (a task
  /// registered after the build stays InvalidArgument until the next
  /// rebuild — staleness surfaces as an error, never a crash).
  StatusOr<TransitiveTrustResult> Query(
      const TransitiveTrustRequest& request) const;

  /// Batched queries, all answered from ONE snapshot (mid-batch rebuilds
  /// cannot split a batch across versions). Validates the whole batch up
  /// front and rejects it atomically, like every service batch API.
  StatusOr<std::vector<TransitiveTrustResult>> BatchQuery(
      std::span<const TransitiveTrustRequest> requests) const;

  OverlaySnapshotInfo Info() const;

  /// The published snapshot bundle itself (null before the first
  /// Publish). Immutable and self-owning — equivalence checks serialize
  /// it, and offline consumers (e.g. batch training over follower
  /// snapshots) read it without holding up rebuilds.
  std::shared_ptr<const trust::VersionedOverlaySnapshot> CurrentSnapshot()
      const;

 private:
  /// Everything one published build owns. Readers hold it via
  /// shared_ptr, so a swap never invalidates an in-flight query.
  struct Prepared {
    std::shared_ptr<const trust::VersionedOverlaySnapshot> snapshot;
    /// Sealed: pure-read queries only (trust::TransitivitySearch::Seal).
    std::unique_ptr<const trust::TransitivitySearch> search;
    std::chrono::steady_clock::time_point published_at;
    std::size_t prepared_tasks = 0;
    std::chrono::milliseconds assembly_cost{0};
  };

  std::shared_ptr<const Prepared> Current() const;
  Status ValidateAgainst(const Prepared& prepared,
                         const TransitiveTrustRequest& request) const;
  TransitiveTrustResult Answer(const Prepared& prepared,
                               const TransitiveTrustRequest& request) const;

  const std::shared_ptr<const graph::Graph> graph_;
  const trust::TransitivityParams params_;
  /// Guards the fields below (not queries — those run on the immutable
  /// Prepared they pulled out under this lock). Leaf lock: held for
  /// pointer swaps only, never across a build or a query.
  mutable Mutex mutex_;
  std::shared_ptr<const Prepared> current_ SIOT_GUARDED_BY(mutex_);
  std::uint64_t rebuild_count_ SIOT_GUARDED_BY(mutex_) = 0;
};

}  // namespace siot::service

#endif  // SIOT_SERVICE_OVERLAY_SERVING_H_
