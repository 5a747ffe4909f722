// Copyright 2026 The siot-trust Authors.

#include "service/replication.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>
#include <thread>
#include <utility>

#include "common/file_util.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "service/checkpoint_codec.h"

namespace siot::service {

namespace {

/// pread [offset, end) of `fd` into a string; a short result means an
/// append is mid-flight — the caller's frame decode handles whatever
/// prefix arrived. A segment never shrinks below what was read of it.
StatusOr<std::string> ReadRange(int fd, std::uint64_t offset,
                                std::uint64_t end, const std::string& path) {
  if (end < offset) return Status::Corruption(path + " shrank under a reader");
  std::string bytes(static_cast<std::size_t>(end - offset), '\0');
  std::size_t got = 0;
  while (got < bytes.size()) {
    const ::ssize_t n =
        ::pread(fd, bytes.data() + got, bytes.size() - got,
                static_cast<::off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("cannot read WAL", path));
    }
    if (n == 0) {
      bytes.resize(got);
      break;
    }
    got += static_cast<std::size_t>(n);
  }
  return bytes;
}

Status ReadOnly(const char* what) {
  return Status::FailedPrecondition(
      std::string("replica is read-only: ") + what +
      " must go to the leader (or Promote() this follower first)");
}

}  // namespace

ReplicaService::ReplicaService(const TrustServiceConfig& config,
                               const ReplicaOptions& options)
    : config_(config),
      options_(options),
      core_(config.shard_count, config.engine) {}

ReplicaService::~ReplicaService() {
  rebuild_worker_.Stop();
  poll_worker_.Stop();
  // Both workers are joined; the locks below are uncontended and keep
  // the guarded fd reads provable.
  for (std::size_t s = 0; s < shard_count(); ++s) {
    ReplicaShard& shard = core_.shard(s);
    const WriterLock lock(&shard.mutex);
    if (shard.fd >= 0) ::close(shard.fd);
  }
}

StatusOr<std::unique_ptr<ReplicaService>> ReplicaService::Open(
    const TrustServiceConfig& config, const ReplicaOptions& options) {
  if (options.directory.empty()) {
    return Status::InvalidArgument("replica directory is empty");
  }
  std::unique_ptr<ReplicaService> replica(
      new ReplicaService(config, options));
  SIOT_RETURN_IF_ERROR(CheckServiceManifest(options.directory,
                                            replica->shard_count(),
                                            replica->config_,
                                            /*create=*/false));
  // Restore the latest per-shard checkpoints concurrently (each shard
  // under its own lock), then catch up the WAL tails.
  SIOT_RETURN_IF_ERROR(ForEachIndexConcurrently(
      replica->shard_count(), [raw = replica.get()](std::size_t s) {
        ReplicaShard& shard = raw->core_.shard(s);
        if (!FileExists(ShardCheckpointPath(raw->options_.directory, s))) {
          return Status::OK();
        }
        const WriterLock lock(&shard.mutex);
        return raw->LoadCheckpointLocked(shard);
      }));
  if (const auto polled = replica->PollAll(); !polled.ok()) {
    return polled.status();
  }
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
  if (options.overlay_graph != nullptr) {
    SIOT_RETURN_IF_ERROR(raw->core_.overlay().Configure(
        options.overlay_graph, options.transitivity));
    if (options.snapshot_rebuild_period.count() > 0) {
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

Status ReplicaService::LoadCheckpointLocked(ReplicaShard& shard) {
  const std::string path = ShardCheckpointPath(options_.directory,
                                               shard.index);
  if (!FileExists(path)) {
    return Status::Corruption("no WAL segment holds the next frame, and " +
                              path + " is missing to cover it");
  }
  // The leader replaces the file atomically: this reads the old
  // checkpoint or the new one, never a mix.
  SIOT_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  trust::TrustEngine fresh(config_.engine);
  std::uint64_t seq = 0;
  SIOT_RETURN_IF_ERROR(DecodeCheckpoint(bytes, path, &seq, &fresh));
  if (seq < shard.applied_seq) {
    return Status::Corruption(StrFormat(
        "checkpoint %s rewound to seq %llu behind this follower's "
        "applied seq %llu — the leader's history went backwards",
        path.c_str(), static_cast<unsigned long long>(seq),
        static_cast<unsigned long long>(shard.applied_seq)));
  }
  if (seq > shard.applied_seq) {
    // Everything applied so far (and more) is folded in: jump the engine
    // forward wholesale. At an equal seq the replay path already made
    // the engine byte-identical to the checkpoint, so it stays.
    shard.engine = std::move(fresh);
    shard.applied_seq = seq;
  }
  shard.checkpoint_seq = seq;
  return Status::OK();
}

StatusOr<bool> ReplicaService::OpenSegmentLocked(ReplicaShard& shard) {
  for (;;) {
    const std::uint64_t next = shard.applied_seq + 1;
    SIOT_ASSIGN_OR_RETURN(
        const std::vector<WalSegment> segments,
        ListWalSegments(options_.directory, shard.index, next));
    if (segments.empty()) return false;  // Leader not started yet.
    const bool holds_next = segments[0].first_seq <= next;
    if (holds_next) {
      shard.fd = ::open(segments[0].path.c_str(), O_RDONLY);
      if (shard.fd >= 0) {
        shard.segment = segments[0].first_seq;
        shard.read_offset = 0;
        shard.torn_pending = false;
        return true;
      }
      if (errno != ENOENT) {
        return Status::IoError(
            ErrnoMessage("cannot open WAL", segments[0].path));
      }
    }
    // The segment holding `next` is gone, unlinked by a checkpoint that
    // covers it. A gap the checkpoint does not close is corruption.
    SIOT_RETURN_IF_ERROR(LoadCheckpointLocked(shard));
    if (!holds_next && shard.applied_seq < next) {
      return Status::Corruption(StrFormat(
          "shard %zu: every WAL segment starts past seq %llu, and the "
          "checkpoint does not reach it",
          shard.index, static_cast<unsigned long long>(next)));
    }
  }
}

StatusOr<std::size_t> ReplicaService::PollShardLocked(ReplicaShard& shard) {
  const std::size_t limit = options_.max_frames_per_poll == 0
                                ? std::numeric_limits<std::size_t>::max()
                                : options_.max_frames_per_poll;
  std::size_t applied = 0;
  for (;;) {
    if (shard.fd < 0) {
      SIOT_ASSIGN_OR_RETURN(const bool opened, OpenSegmentLocked(shard));
      if (!opened) return applied;
    }
    const std::string path =
        ShardSegmentPath(options_.directory, shard.index, shard.segment);
    struct ::stat st;
    if (::fstat(shard.fd, &st) != 0) {
      return Status::IoError(ErrnoMessage("cannot stat WAL", path));
    }
    SIOT_ASSIGN_OR_RETURN(
        const std::string bytes,
        ReadRange(shard.fd, shard.read_offset,
                  static_cast<std::uint64_t>(st.st_size), path));
    std::size_t offset = 0;
    bool torn = false;
    while (offset < bytes.size() && applied < limit) {
      WalEntry entry;
      std::size_t frame_bytes = 0;
      std::string error;
      const WalFrameDecode decoded = DecodeWalFrame(
          std::string_view(bytes).substr(offset), &entry, &frame_bytes,
          &error);
      if (decoded == WalFrameDecode::kTorn) {
        torn = true;
        break;
      }
      const auto at = static_cast<unsigned long long>(shard.read_offset +
                                                      offset);
      if (decoded == WalFrameDecode::kCorrupt) {
        return Status::Corruption(StrFormat("WAL %s: %s at byte %llu",
                                            path.c_str(), error.c_str(), at));
      }
      offset += frame_bytes;
      // Already folded into a checkpoint this follower loaded.
      if (entry.seq <= shard.applied_seq) continue;
      if (entry.seq != shard.applied_seq + 1) {
        return Status::Corruption(StrFormat(
            "WAL %s: sequence jumped from %llu to %llu at byte %llu",
            path.c_str(), static_cast<unsigned long long>(shard.applied_seq),
            static_cast<unsigned long long>(entry.seq), at));
      }
      SIOT_RETURN_IF_ERROR(ApplyWalOp(entry.payload, &shard.engine));
      shard.applied_seq = entry.seq;
      ++applied;
    }
    shard.read_offset += offset;
    shard.torn_pending = torn;
    if (applied >= limit) return applied;
    // At the end of the segment as it stood at the fstat. A successor
    // named applied_seq + 1 means the leader sealed this segment exactly
    // here, so its frames are all read. An unlink (so sealed before the
    // fstat, and read to its end) with no such successor means a
    // checkpoint past applied_seq covers what lies between.
    const std::uint64_t next = shard.applied_seq + 1;
    const bool sealed_here =
        next != shard.segment &&
        FileExists(ShardSegmentPath(options_.directory, shard.index, next));
    if (!sealed_here && st.st_nlink != 0) return applied;
    ::close(shard.fd);
    shard.fd = -1;
    if (!sealed_here) SIOT_RETURN_IF_ERROR(LoadCheckpointLocked(shard));
  }
}

StatusOr<std::size_t> ReplicaService::PollAll() {
  SIOT_RETURN_IF_ERROR(TailStatus());
  std::size_t total = 0;
  for (std::size_t s = 0; s < shard_count(); ++s) {
    ReplicaShard& shard = core_.shard(s);
    const WriterLock lock(&shard.mutex);
    // Checked under the lock: a Promote that hands the engines over
    // between shards leaves this shard's engine empty, and the new
    // leader's frames must never be applied to it.
    SIOT_RETURN_IF_ERROR(CheckServing());
    const auto polled = PollShardLocked(shard);
    // Before the lock drops, so a reader that sees this shard's
    // applied_seq also sees the tasks it brought.
    core_.NoteCatalogLocked(shard);
    if (!polled.ok()) {
      // status_mutex_ nests UNDER the shard lock here — shard.mutex is
      // rank 2, status_mutex_ rank 3 (see the member's comment).
      const MutexLock g(&status_mutex_);
      if (tail_status_.ok()) tail_status_ = polled.status();
      return polled.status();
    }
    total += polled.value();
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
      if (shard.applied_seq < target.last_seq) {
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
    ShardReplicationLag lag;
    lag.shard = s;
    lag.applied_seq = lag.visible_seq = shard.applied_seq;
    // Decodes (without applying) `fd` from `from` to its end, counting
    // the complete frames a poll would fold in right now. Advisory and
    // O(lag bytes) — callers polling a deeply lagging follower should
    // prefer byte_lag alone.
    const auto scan = [&lag](int fd, std::uint64_t from) {
      struct ::stat st;
      if (::fstat(fd, &st) != 0) return;
      const auto bytes =
          ReadRange(fd, from, static_cast<std::uint64_t>(st.st_size), "WAL");
      if (!bytes.ok()) return;
      lag.byte_lag += bytes->size();
      std::string_view rest(bytes.value());
      WalEntry entry;
      std::size_t frame_bytes = 0;
      while (DecodeWalFrame(rest, &entry, &frame_bytes, nullptr) ==
             WalFrameDecode::kFrame) {
        lag.visible_seq = std::max(lag.visible_seq, entry.seq);
        rest = rest.substr(frame_bytes);
      }
    };
    // The open segment from the read offset (through the tailing
    // descriptor, which outlives an unlink), then every later one whole.
    if (shard.fd >= 0) {
      lag.read_offset = shard.read_offset;
      lag.torn_tail = shard.torn_pending;
      scan(shard.fd, shard.read_offset);
      lag.wal_bytes = shard.read_offset + lag.byte_lag;
    }
    const std::vector<WalSegment> segments =
        ListWalSegments(options_.directory, s).value_or({});
    for (const WalSegment& segment : segments) {
      if (shard.fd >= 0 && segment.first_seq <= shard.segment) continue;
      const int fd = ::open(segment.path.c_str(), O_RDONLY);
      if (fd < 0) continue;
      scan(fd, 0);
      ::close(fd);
    }
    lag.seq_lag = lag.visible_seq - lag.applied_seq;
    lags.push_back(lag);
  }
  return lags;
}

Status ReplicaService::OverlayRebuildStatus() const {
  const MutexLock lock(&status_mutex_);
  return rebuild_status_;
}

// --------------------------------------------- rejected mutation surface --

Status ReplicaService::ReportOutcome(const OutcomeReport&) {
  return ReadOnly("ReportOutcome");
}

Status ReplicaService::BatchReportOutcome(std::span<const OutcomeReport>) {
  return ReadOnly("BatchReportOutcome");
}

StatusOr<trust::TaskId> ReplicaService::RegisterTask(
    const std::string&, const std::vector<trust::CharacteristicId>&) {
  return ReadOnly("RegisterTask");
}

Status ReplicaService::SetReverseThreshold(trust::AgentId, trust::TaskId,
                                           double) {
  return ReadOnly("SetReverseThreshold");
}

Status ReplicaService::SetEnvironmentIndicator(trust::AgentId, double) {
  return ReadOnly("SetEnvironmentIndicator");
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
  // The leader is dead and fenced out, so the WALs are static: finish
  // the tail. A trailing torn frame stays unapplied — it was never
  // acknowledged, and the writer resumed below truncates it exactly as a
  // leader restart would.
  SIOT_RETURN_IF_ERROR(DrainStaticTail());
  // The new leader adopts the engines this replica caught up instead of
  // re-deriving them from disk: tailing applies the same frames through
  // the same ApplyWalOp that recovery replays, so the states are
  // byte-identical (ReplicationTest.PromotedStateEqualsFreshRecovery).
  // Each writer resumes where this tail ends, in the newest segment;
  // read_offset is frame-aligned, the end of the valid prefix where a
  // torn tail (if any) starts.
  std::vector<ShardLogPosition> positions;
  std::vector<TrustService::AdminState> admin;
  positions.reserve(shard_count());
  admin.reserve(shard_count());
  for (std::size_t s = 0; s < shard_count(); ++s) {
    const ReplicaShard& shard = core_.shard(s);
    const ReaderLock lock(&shard.mutex);
    const bool open = shard.fd >= 0;
    positions.push_back({shard.applied_seq, shard.checkpoint_seq,
                         open ? shard.segment : shard.applied_seq + 1,
                         open ? shard.read_offset : 0});
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
  core_.ExchangeEngines(engines);
  promoted->AdoptEngines(std::move(engines));
  return promoted;
}

}  // namespace siot::service
