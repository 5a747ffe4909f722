// Copyright 2026 The siot-trust Authors.

#include "service/replication.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "trust/overlay_builder.h"

namespace siot::service {

ReplicaService::ReplicaService(const TrustServiceConfig& config,
                               const ReplicaOptions& options)
    : config_(config),
      options_(options),
      core_(config.shard_count, config.engine) {
  if (options.overlay_graph != nullptr) {
    overlay_ = std::make_unique<OverlaySnapshotIndex>(options.overlay_graph,
                                                      options.transitivity);
  }
  for (std::size_t s = 0; s < shard_count(); ++s) {
    core_.shard(s).log =
        std::make_unique<ShardLogReader>(options.directory, s);
  }
}

StatusOr<std::unique_ptr<ReplicaService>> ReplicaService::Open(
    const TrustServiceConfig& config, const ReplicaOptions& options) {
  if (options.directory.empty()) {
    return Status::InvalidArgument("replica directory is empty");
  }
  if (options.overlay_graph != nullptr &&
      options.overlay_graph->node_count() == 0) {
    return Status::InvalidArgument("transitive serving graph is empty");
  }
  std::unique_ptr<ReplicaService> replica(
      new ReplicaService(config, options));
  SIOT_RETURN_IF_ERROR(CheckServiceManifest(options.directory,
                                            replica->shard_count(),
                                            replica->config_,
                                            /*create=*/false));
  // Each shard restores its checkpoint and runs its first poll under its
  // own lock, all shards concurrently.
  SIOT_RETURN_IF_ERROR(ForEachIndexConcurrently(
      replica->shard_count(), [raw = replica.get()](std::size_t s) {
        return raw->PollShard(s).status();
      }));
  ReplicaService* const raw = replica.get();
  if (options.poll_period.count() > 0) {
    raw->poll_worker_.Start(options.poll_period, /*run_at_start=*/false, [raw] {
      const auto polled = raw->PollAll();
      if (polled.ok()) return true;
      // PollAll already made the status sticky; a poisoned tail will
      // never heal, so stop burning cycles. Reads keep serving.
      SIOT_LOG_WARN("replica tailing stopped: %s",
                    polled.status().ToString().c_str());
      return false;
    });
  }
  if (raw->overlay_ != nullptr &&
      options.snapshot_rebuild_period.count() > 0) {
    raw->rebuild_worker_.Start(
        options.snapshot_rebuild_period, /*run_at_start=*/true, [raw] {
          // A failed rebuild keeps serving the previous snapshot and is
          // retried next period (unlike a poisoned WAL tail, it is not
          // necessarily permanent).
          const Status built = raw->BuildOverlaySnapshot();
          if (!built.ok()) {
            SIOT_LOG_WARN("overlay snapshot rebuild failed: %s",
                          built.ToString().c_str());
          }
          const MutexLock lock(&raw->status_mutex_);
          raw->rebuild_status_ = built;
          return true;
        });
  }
  return replica;
}

// -------------------------------------------------------------- tailing --

Status ReplicaService::CheckServing() const {
  if (promoted_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "this replica was promoted; its engines are frozen — use the "
        "TrustService returned by Promote()");
  }
  return Status::OK();
}

StatusOr<std::size_t> ReplicaService::PollShard(std::size_t s) {
  ReplicaShard& shard = core_.shard(s);
  const WriterLock lock(&shard.mutex);
  // Checked under the lock: a Promote that hands the engines over between
  // shards leaves this shard's engine empty, and the new leader's frames
  // must never be applied to it.
  SIOT_RETURN_IF_ERROR(CheckServing());
  auto polled = shard.log->Read(&shard.engine, BadFramePolicy::kHalt,
                                options_.max_frames_per_poll);
  // Before the lock drops, so a reader that sees this shard's applied_seq
  // also sees the tasks it brought.
  core_.NoteCatalogLocked(shard);
  if (!polled.ok()) {
    // status_mutex_ nests UNDER the shard lock here — shard.mutex is rank
    // 2, status_mutex_ rank 3 (see the member's comment).
    const MutexLock g(&status_mutex_);
    if (tail_status_.ok()) tail_status_ = polled.status();
  }
  return polled;
}

StatusOr<std::size_t> ReplicaService::PollAll() {
  SIOT_RETURN_IF_ERROR(TailStatus());
  std::size_t total = 0;
  for (std::size_t s = 0; s < shard_count(); ++s) {
    SIOT_ASSIGN_OR_RETURN(const std::size_t polled, PollShard(s));
    total += polled;
  }
  return total;
}

Status ReplicaService::AwaitPositions(
    std::span<const ShardWalPosition> targets,
    std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  // With a background tailer we only watch its progress; without one,
  // this call drives the polls itself.
  const bool drive = options_.poll_period.count() == 0;
  for (;;) {
    if (drive) {
      if (const auto polled = PollAll(); !polled.ok()) {
        return polled.status();
      }
    } else if (Status tail = TailStatus(); !tail.ok()) {
      return tail;
    }
    bool reached = true;
    for (const ShardWalPosition& target : targets) {
      if (target.shard >= shard_count()) {
        return Status::InvalidArgument(
            StrFormat("target shard %zu out of range (%zu shards)",
                      target.shard, shard_count()));
      }
      const ReplicaShard& shard = core_.shard(target.shard);
      const ReaderLock lock(&shard.mutex);
      if (shard.log->applied_seq() < target.last_seq) {
        reached = false;
        break;
      }
    }
    if (reached) return Status::OK();
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::Unavailable(StrFormat(
          "follower did not reach the leader's WAL positions within "
          "%lld ms",
          static_cast<long long>(timeout.count())));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(drive ? 200
                                                                : 1000));
  }
}

Status ReplicaService::TailStatus() const {
  const MutexLock lock(&status_mutex_);
  return tail_status_;
}

std::vector<ShardReplicationLag> ReplicaService::ReplicationLag() const {
  std::vector<ShardReplicationLag> lags;
  lags.reserve(shard_count());
  for (std::size_t s = 0; s < shard_count(); ++s) {
    const ReplicaShard& shard = core_.shard(s);
    const ReaderLock lock(&shard.mutex);
    lags.push_back(shard.log->Lag());
  }
  return lags;
}

// ------------------------------------------------------------ overlay --

Status ReplicaService::CheckTransitiveServing() const {
  SIOT_RETURN_IF_ERROR(CheckServing());
  if (overlay_ == nullptr) {
    return Status::FailedPrecondition(
        "transitive serving not enabled (set ReplicaOptions::overlay_graph)");
  }
  return Status::OK();
}

Status ReplicaService::BuildOverlaySnapshot() {
  // Held through Publish: a second builder cannot cut later yet publish
  // earlier, so the served version never goes backwards. Checked under
  // it: Promote holds it around the engine exchange, so a build that
  // passes the check cuts the engines this replica tails, never the
  // empty ones Promote leaves behind.
  const MutexLock build_lock(&build_mutex_);
  SIOT_RETURN_IF_ERROR(CheckTransitiveServing());
  const auto assembly_start = std::chrono::steady_clock::now();
  std::shared_ptr<const trust::VersionedOverlaySnapshot> built;
  {
    // One consistent cut: every shard's shared lock is held
    // SIMULTANEOUSLY for the whole assembly + version stamp. Per-shard
    // reads at different times could catch an admin op (tailed shard by
    // shard) half-applied, or stamp a version no single moment of the
    // follower ever was in. Only the tailer stalls, for the assembly;
    // reads keep serving. Deadlock-free: every other thread holds at
    // most one shard lock at a time, and acquisition here is in fixed
    // index order (MultiReaderLock's class comment carries the full
    // argument).
    std::vector<SharedMutex*> mutexes;
    mutexes.reserve(shard_count());
    for (std::size_t s = 0; s < shard_count(); ++s) {
      mutexes.push_back(&core_.shard(s).mutex);
    }
    const MultiReaderLock all_shards(std::move(mutexes));
    std::vector<const trust::TrustStore*> stores;
    trust::SnapshotVersion version;
    stores.reserve(shard_count());
    version.applied_seq.reserve(shard_count());
    for (std::size_t s = 0; s < shard_count(); ++s) {
      const ReplicaShard& shard = core_.shard(s);
      stores.push_back(&EngineOfShardAllLocked(shard).store());
      version.applied_seq.push_back(AppliedSeqOfShardAllLocked(shard));
    }
    // Admin state replicates to shard 0 first, so its catalog is the
    // most complete; a task some other shard has not applied yet
    // cannot have records there either (registration precedes use in
    // every shard's WAL order).
    const trust::TrustEngine& shard0 = EngineOfShardAllLocked(core_.shard(0));
    const trust::ShardedStoreOverlay source(
        std::move(stores), shard0.normalizer(),
        [count = shard_count()](trust::AgentId trustor) {
          return ShardIndexForTrustor(trustor, count);
        });
    built = std::make_shared<trust::VersionedOverlaySnapshot>(
        overlay_->graph(), shard0.catalog(), source, std::move(version));
  }  // Locks drop here; hop-cache preparation below runs lock-free.
  const auto assembly_cost =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - assembly_start);
  return overlay_->Publish(std::move(built), assembly_cost);
}

Status ReplicaService::OverlayRebuildStatus() const {
  const MutexLock lock(&status_mutex_);
  return rebuild_status_;
}

// --------------------------------------------------------------- promote --

Status ReplicaService::DrainStaticTail() {
  for (;;) {
    SIOT_ASSIGN_OR_RETURN(const std::size_t applied, PollAll());
    if (applied == 0) return Status::OK();
  }
}

StatusOr<std::unique_ptr<TrustService>> ReplicaService::Promote(
    const PersistenceOptions& options) {
  SIOT_RETURN_IF_ERROR(CheckServing());
  if (options.directory != options_.directory) {
    return Status::InvalidArgument(
        "Promote options name directory " + options.directory +
        " but this replica follows " + options_.directory);
  }
  // Fence first: while the old leader lives it holds the LOCK and this
  // fails FailedPrecondition — a live leader must never be usurped.
  DirectoryLock fence;
  SIOT_RETURN_IF_ERROR(fence.Acquire(options_.directory));
  // The leader is dead and fenced out, so the log is static: drain it.
  // A trailing torn frame stays unread — it was never acknowledged, and
  // the writer resumed below truncates it, as a restart does.
  SIOT_RETURN_IF_ERROR(DrainStaticTail());
  // The new leader adopts the engines this replica caught up instead of
  // re-deriving them from disk, and each writer resumes at the position
  // its reader reached: recovery drains the same reader over the same
  // files, so both are the ones a restart would reach
  // (ReplicationTest.PromotedStateEqualsFreshRecovery).
  std::vector<ShardLogPosition> positions;
  std::vector<TrustService::AdminState> admin;
  positions.reserve(shard_count());
  admin.reserve(shard_count());
  for (std::size_t s = 0; s < shard_count(); ++s) {
    const ReplicaShard& shard = core_.shard(s);
    const ReaderLock lock(&shard.mutex);
    positions.push_back(shard.log->position());
    admin.emplace_back(shard.engine);
  }
  // Every fallible step runs while this replica still owns its engines
  // and its tailer (which may keep polling — it finds nothing new), so a
  // failed promote leaves it fully live.
  SIOT_ASSIGN_OR_RETURN(
      std::unique_ptr<TrustService> promoted,
      TrustService::OpenForAdoption(config_, options, std::move(fence),
                                    positions, admin));
  // The admin writes the dead leader left half-replicated, now logged,
  // reach these engines the way every frame does: by tailing.
  SIOT_RETURN_IF_ERROR(DrainStaticTail());
  // Nothing fails from here on: stop serving and tailing, then hand the
  // engines over (this replica keeps empty ones).
  promoted_.store(true, std::memory_order_release);
  poll_worker_.Stop();
  rebuild_worker_.Stop();
  std::vector<trust::TrustEngine> engines;
  engines.reserve(shard_count());
  for (std::size_t s = 0; s < shard_count(); ++s) {
    engines.emplace_back(config_.engine);
  }
  {
    // No overlay build can cut the engines half exchanged.
    const MutexLock build_lock(&build_mutex_);
    core_.ExchangeEngines(engines);
  }
  promoted->AdoptEngines(std::move(engines));
  return promoted;
}

}  // namespace siot::service
