// Copyright 2026 The siot-trust Authors.

#include "service/replication.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

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

/// pread [offset, end) of `fd` into a string; a short result means the
/// file shrank (or an append is mid-flight) — the caller's frame decode
/// handles whatever prefix arrived.
StatusOr<std::string> ReadRange(int fd, std::uint64_t offset,
                                std::uint64_t end, const std::string& path) {
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
      core_(config.shard_count, config.engine) {
  for (std::size_t s = 0; s < shard_count(); ++s) {
    core_.shard(s).wal_path = ShardWalPath(options_.directory, s);
    core_.shard(s).checkpoint_path =
        ShardCheckpointPath(options_.directory, s);
  }
}

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
        if (!FileExists(shard.checkpoint_path)) return Status::OK();
        const WriterLock lock(&shard.mutex);
        return raw->RewindLocked(shard, /*require_newer=*/false,
                                 "initial checkpoint restore");
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

bool ReplicaService::CheckpointReplacedLocked(
    const ReplicaShard& shard) const {
  struct ::stat st;
  if (::stat(shard.checkpoint_path.c_str(), &st) != 0) return false;
  if (!shard.checkpoint_loaded) return true;
  return static_cast<std::uint64_t>(st.st_ino) != shard.checkpoint_ino ||
         static_cast<std::uint64_t>(st.st_size) != shard.checkpoint_bytes;
}

Status ReplicaService::RewindLocked(ReplicaShard& shard, bool require_newer,
                                    const std::string& why) {
  if (!FileExists(shard.checkpoint_path)) {
    return Status::Corruption(StrFormat(
        "WAL %s: %s, and no checkpoint exists to explain it — only a "
        "checkpoint truncation may rewind a WAL",
        shard.wal_path.c_str(), why.c_str()));
  }
  // Record the file identity BEFORE reading: if yet another checkpoint
  // replaces it mid-read we may load the newer bytes under the older
  // identity, which only means one harmless re-rewind later.
  struct ::stat st;
  const bool have_stat = ::stat(shard.checkpoint_path.c_str(), &st) == 0;
  // Validate-only first: most checkpoint replacements land at the seq
  // this follower already applied through the WAL, so the (possibly
  // large) engine restore below is usually skipped — the codec walk here
  // just proves the checksums and yields the seq. Readers see either the
  // old or the new checkpoint across the leader's atomic replace, never
  // a mix.
  SIOT_ASSIGN_OR_RETURN(const std::string bytes,
                        ReadFileToString(shard.checkpoint_path));
  SIOT_ASSIGN_OR_RETURN(const CheckpointInfo info,
                        ValidateCheckpoint(bytes, shard.checkpoint_path));
  const std::uint64_t seq = info.applied_seq;
  if (require_newer && shard.checkpoint_loaded &&
      seq <= shard.checkpoint_seq) {
    return Status::Corruption(StrFormat(
        "WAL %s: %s, and the checkpoint did not advance (still at seq "
        "%llu) — this is interior corruption, not a truncation race",
        shard.wal_path.c_str(), why.c_str(),
        static_cast<unsigned long long>(seq)));
  }
  if (seq < shard.applied_seq) {
    return Status::Corruption(StrFormat(
        "checkpoint %s rewound to seq %llu behind this follower's "
        "applied seq %llu — the leader's history went backwards",
        shard.checkpoint_path.c_str(),
        static_cast<unsigned long long>(seq),
        static_cast<unsigned long long>(shard.applied_seq)));
  }
  if (seq > shard.applied_seq) {
    // The checkpoint is ahead of us: everything we applied (and more) is
    // folded in. Jump the engine forward wholesale.
    trust::TrustEngine fresh(config_.engine);
    std::uint64_t decoded_seq = 0;
    SIOT_RETURN_IF_ERROR(DecodeCheckpoint(bytes, shard.checkpoint_path,
                                          &decoded_seq, &fresh));
    shard.engine = std::move(fresh);
    shard.applied_seq = seq;
  }
  // seq == applied_seq keeps the engine: the replay path made our state
  // byte-identical to what the leader checkpointed at this seq.
  shard.checkpoint_seq = seq;
  shard.checkpoint_loaded = true;
  if (have_stat) {
    shard.checkpoint_ino = static_cast<std::uint64_t>(st.st_ino);
    shard.checkpoint_bytes = static_cast<std::uint64_t>(st.st_size);
  }
  shard.read_offset = 0;
  shard.torn_pending = false;
  return Status::OK();
}

bool ReplicaService::WalRestartedAfterCheckpointLocked(
    const ReplicaShard& shard, std::uint64_t wal_bytes) const {
  // Applied nothing past the checkpoint: this follower was still reading
  // the pre-checkpoint WAL, all of whose frames the checkpoint folds in.
  if (!shard.checkpoint_loaded || shard.applied_seq != shard.checkpoint_seq) {
    return false;
  }
  const auto bytes = ReadRange(shard.fd, 0, wal_bytes, shard.wal_path);
  if (!bytes.ok()) return false;
  WalEntry entry;
  std::size_t frame_bytes = 0;
  std::string error;
  return DecodeWalFrame(*bytes, &entry, &frame_bytes, &error) ==
             WalFrameDecode::kFrame &&
         entry.seq == shard.checkpoint_seq + 1;
}

StatusOr<std::size_t> ReplicaService::PollShardLocked(ReplicaShard& shard) {
  const std::size_t limit = options_.max_frames_per_poll == 0
                                ? std::numeric_limits<std::size_t>::max()
                                : options_.max_frames_per_poll;
  std::size_t applied = 0;
  for (;;) {
    if (shard.fd < 0) {
      shard.fd = ::open(shard.wal_path.c_str(), O_RDONLY);
      if (shard.fd < 0) {
        if (errno == ENOENT) return applied;  // Leader not started yet.
        return Status::IoError(
            ErrnoMessage("cannot open WAL", shard.wal_path));
      }
    }
    struct ::stat st;
    if (::fstat(shard.fd, &st) != 0) {
      return Status::IoError(ErrnoMessage("cannot stat WAL",
                                          shard.wal_path));
    }
    const auto size = static_cast<std::uint64_t>(st.st_size);
    shard.wal_bytes_seen = size;
    if (size < shard.read_offset) {
      // The WAL shrank under us: the leader checkpointed and truncated.
      SIOT_RETURN_IF_ERROR(RewindLocked(
          shard, /*require_newer=*/false,
          StrFormat("file shrank from %llu to %llu bytes",
                    static_cast<unsigned long long>(shard.read_offset),
                    static_cast<unsigned long long>(size))));
      continue;
    }
    if (size == shard.read_offset) {
      // No new bytes — but state can advance through a checkpoint alone
      // when the truncated WAL lands exactly back at our offset
      // (typically both zero). The replaced checkpoint file is the
      // tell; otherwise we are caught up.
      if (CheckpointReplacedLocked(shard)) {
        SIOT_RETURN_IF_ERROR(RewindLocked(
            shard, /*require_newer=*/false,
            "a new checkpoint replaced the loaded one with no new WAL "
            "bytes"));
        continue;
      }
      shard.torn_pending = false;
      return applied;
    }
    SIOT_ASSIGN_OR_RETURN(
        const std::string bytes,
        ReadRange(shard.fd, shard.read_offset, size, shard.wal_path));
    std::size_t offset = 0;
    bool torn = false;
    bool corrupt = false;
    Status failure;
    while (offset < bytes.size()) {
      if (applied >= limit) break;
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
      if (decoded == WalFrameDecode::kCorrupt) {
        corrupt = true;
        failure = Status::Corruption(StrFormat(
            "WAL %s: %s at byte %llu", shard.wal_path.c_str(),
            error.c_str(),
            static_cast<unsigned long long>(shard.read_offset + offset)));
        break;
      }
      if (entry.seq <= shard.applied_seq) {
        // Already folded in (re-scan after a rewind); skip, never
        // re-apply.
        offset += frame_bytes;
        continue;
      }
      if (entry.seq != shard.applied_seq + 1) {
        corrupt = true;
        failure = Status::Corruption(StrFormat(
            "WAL %s: sequence jumped from %llu to %llu at byte %llu",
            shard.wal_path.c_str(),
            static_cast<unsigned long long>(shard.applied_seq),
            static_cast<unsigned long long>(entry.seq),
            static_cast<unsigned long long>(shard.read_offset + offset)));
        break;
      }
      // A CRC-valid frame with an invalid payload can never be a stale
      // read (the CRC covers seq + payload) — apply errors are final.
      SIOT_RETURN_IF_ERROR(ApplyWalOp(entry.payload, &shard.engine));
      shard.applied_seq = entry.seq;
      ++applied;
      offset += frame_bytes;
    }
    shard.read_offset += offset;
    shard.torn_pending = torn;
    if ((corrupt || torn) && WalRestartedAfterCheckpointLocked(shard, size)) {
      // The leader truncated the WAL after this follower had already
      // loaded the checkpoint of that truncation, and the new WAL grew
      // past our offset: these are new frames read at a stale offset.
      // Re-read it from the start.
      shard.read_offset = 0;
      shard.torn_pending = false;
      continue;
    }
    if (corrupt) {
      // One legitimate explanation remains: the leader checkpointed and
      // truncated between our fstat and pread, so these bytes came from
      // a stale offset inside NEW frames. That is provable — a newer
      // checkpoint must exist. Otherwise the corruption stands.
      SIOT_RETURN_IF_ERROR(RewindLocked(shard, /*require_newer=*/true,
                                        failure.message()));
      continue;
    }
    if (torn && CheckpointReplacedLocked(shard)) {
      // Stale-offset garbage after a truncation can also masquerade as
      // a TORN frame (a plausible length field pointing past EOF).
      // Waiting would stall forever if the leader went idle — but the
      // replaced checkpoint proves a truncation happened, so rewind
      // through it instead of waiting.
      SIOT_RETURN_IF_ERROR(RewindLocked(
          shard, /*require_newer=*/false,
          "torn bytes at an offset predating a newer checkpoint"));
      continue;
    }
    return applied;
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
    lag.applied_seq = shard.applied_seq;
    lag.visible_seq = shard.applied_seq;
    lag.read_offset = shard.read_offset;
    lag.torn_tail = shard.torn_pending;
    struct ::stat st;
    if (::stat(shard.wal_path.c_str(), &st) == 0) {
      lag.wal_bytes = static_cast<std::uint64_t>(st.st_size);
    }
    if (lag.wal_bytes > lag.read_offset) {
      lag.byte_lag = lag.wal_bytes - lag.read_offset;
      // Decode (without applying) the unconsumed region to count the
      // complete frames a poll would fold in right now. Advisory and
      // O(lag bytes) — callers polling a deeply lagging follower should
      // prefer byte_lag alone. Reuses the tailing descriptor (pread is
      // position-less and the fd, once opened, never changes).
      const int fd = shard.fd >= 0
                         ? shard.fd
                         : ::open(shard.wal_path.c_str(), O_RDONLY);
      if (fd >= 0) {
        const auto bytes =
            ReadRange(fd, lag.read_offset, lag.wal_bytes, shard.wal_path);
        if (fd != shard.fd) ::close(fd);
        if (bytes.ok()) {
          std::string_view rest(bytes.value());
          WalEntry entry;
          std::size_t frame_bytes = 0;
          while (DecodeWalFrame(rest, &entry, &frame_bytes, nullptr) ==
                 WalFrameDecode::kFrame) {
            if (entry.seq > lag.visible_seq) lag.visible_seq = entry.seq;
            rest = rest.substr(frame_bytes);
          }
        }
      }
      lag.seq_lag = lag.visible_seq - lag.applied_seq;
    }
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
  // Each writer resumes where this tail ends; read_offset is
  // frame-aligned, the end of the valid prefix where a torn tail (if
  // any) starts.
  std::vector<ShardLogPosition> positions;
  std::vector<TrustService::AdminState> admin;
  positions.reserve(shard_count());
  admin.reserve(shard_count());
  for (std::size_t s = 0; s < shard_count(); ++s) {
    const ReplicaShard& shard = core_.shard(s);
    const ReaderLock lock(&shard.mutex);
    positions.push_back({shard.applied_seq, shard.read_offset,
                         shard.applied_seq - shard.checkpoint_seq});
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
