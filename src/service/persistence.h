// Copyright 2026 The siot-trust Authors.
// Durable per-shard persistence for TrustService: checkpoint + write-ahead
// log. The trust model is built from accumulated per-pair outcome
// histories (Eqs. 14–18, 29); a serving layer that forgets them on every
// restart cannot back a real SIoT deployment.
//
// Lifecycle per shard (all files under one service directory):
//
//   shard-<k>.<first_seq>.wal
//                    the log, as a series of append-only segments, each
//                    named by the sequence number of its first frame.
//                    Every data-plane mutation and every replicated admin
//                    write is encoded as a versioned codec op (binary v2;
//                    v1 text replays compatibly — see
//                    service/wal_codec.h) and appended to the newest
//                    segment as a CRC32C-framed, length-prefixed,
//                    sequence-numbered record BEFORE it is applied to the
//                    shard's engine. A write is acknowledged to the caller
//                    only after its log record is durably appended AND
//                    applied; a write that touches several shards flushes
//                    after the apply, but never after the acknowledgment.
//                    No segment ever shrinks under a reader: the only
//                    truncation is recovery trimming a torn tail that was
//                    never acknowledged.
//   shard-<k>.wal    the legacy single-file log of directories written
//                    before segments. It lists as first_seq 0, the segment
//                    before every numbered one, and takes appends until
//                    the first checkpoint unlinks it: no migration step.
//   shard-<k>.ckpt   checkpoint: the full engine state plus the sequence
//                    number of the last op folded in, encoded by the
//                    versioned checkpoint codec (always written as
//                    binary v2 sections; v1 text restores forever — see
//                    service/checkpoint_codec.h).
//   manifest         shard count + an engine-config fingerprint, so a
//                    directory can never be recovered under a different
//                    sharding or model configuration (records would land
//                    on the wrong shards / replay would diverge).
//
// A checkpoint at seq S takes three steps, in this order:
//   1. seal   fsync the open segment (when writes are durable, see
//             PersistenceOptions::sync_every_append), then create
//             shard-<k>.<S+1>.wal and sync its directory entry before
//             any frame lands in it (a failed sync poisons the writer,
//             as a failed fsync does). With durable writes, then, a
//             segment named S+1 exists only once every frame up to S is
//             durable;
//   2. write  the checkpoint to a .tmp file, fsync it, rename it over
//             shard-<k>.ckpt and sync the directory;
//   3. unlink every segment older than S+1.
// Only the seal excludes appends. A TrustService seals under the shard's
// exclusive lock and copies the shard's engine there; steps 2 and 3 then
// run from the copy, touching only files, while the shard serves reads
// and appends into S+1 (ShardPersistence::Seal, then WriteCheckpoint).
// Its one checkpointer thread writes the inline checkpoints; an explicit
// TrustService::Checkpoint() writes on the caller's thread. At most one
// checkpoint per shard is sealed and unwritten: a writer that brings the
// shard to its next checkpoint before then waits for that one write, so
// seals stay exactly checkpoint_every_appends apart and memory holds at
// most one engine copy per shard.
// A crash after 1 leaves the old checkpoint, every durable frame still
// logged, and a newest segment that is empty or, when the crash stopped
// the checkpointer, already holds acknowledged frames past S (without
// durable writes the log may end before the newest segment starts;
// recovery then starts that empty segment again where the log ends). A
// crash after 2 leaves segments whose frames are all <= S, which
// recovery skips by sequence number. Step 3 never runs before the
// checkpoint that covers its frames is durable.
//
// Which flush a durable write pays is a rule of the write path, not an
// option; TrustService::WriteShards (service/trust_service.h) states it.
// The measurements behind it, on a 4-vCPU ext4 host: a write to ONE
// shard fsyncs inline because ext4's journal already merges concurrent
// per-file fsyncs (three threads fsyncing their own files reach ~22k
// fsyncs/s against ~90 µs for one fsync alone), and routing those writes
// through the GroupCommitter's one-flush-at-a-time rounds measured
// 0.69–0.86× the report throughput; a write to SEVERAL shards shares one
// GroupCommitter round because one syncfs over 16 dirty WALs took
// ~170 µs, against 1.3–1.5 ms for 16 serial fsyncs.
//
// Every way up reads a shard's log back through ONE ShardLogReader:
// recovery drains it over the fenced, static log, a follower tails it,
// and Promote drains the follower's. It restores the checkpoint (if
// any), follows the segments from the one holding the checkpoint's
// seq + 1 on, skips the frames that checkpoint covers, requires
// contiguous seqs past it and applies them through ApplyWalOp. The one
// decision left to its caller is what a complete bad frame means
// (BadFramePolicy): recovery cuts the segment's tail there, a follower
// halts. The recovered state is byte-identical (serialize-compare) to
// the state at the moment of the last acknowledged write, whatever
// instant the process died at:
//   * a torn final WAL record (crash mid-append) is detected by the length
//     prefix/CRC and dropped — it was never acknowledged;
//   * a complete record that was never applied (crash between append and
//     apply) replays idempotently;
//   * a half-written checkpoint only ever exists under the .tmp name and
//     is ignored;
//   * segments a crash kept from being unlinked (frames all <= the
//     checkpoint's seq) are skipped by sequence number;
//   * frames a power cut took from a sealed segment (only without
//     durable writes) leave a log that ends before its newest, empty
//     segment starts; the writer starts that segment again where the
//     log ends.
// Corrupt files (bit flips, mid-file truncation) recover the longest
// valid prefix or return Status Corruption — never a crash.
//
// The FaultHook exists for the crash-recovery test harness: it is invoked
// at every kill-point of the write path, and a non-OK return makes the
// persistence layer stop dead at that point, exactly as if the process had
// been killed there (the in-flight bytes stay half-written). Production
// code leaves it unset.

#ifndef SIOT_SERVICE_PERSISTENCE_H_
#define SIOT_SERVICE_PERSISTENCE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "service/checkpoint_codec.h"
#include "service/wal_codec.h"
#include "trust/trust_engine.h"

namespace siot::service {

/// Kill-points of the durable write path. The fault-injection harness
/// interrupts each one and asserts recovery. The values are stable (the
/// kill-point matrices name their cases by them), so a stage added later
/// goes at the end: a checkpoint fires kCheckpointAfterSeal first.
enum class PersistStage {
  kWalBeforeAppend,          ///< Nothing written yet.
  kWalMidAppend,             ///< Half the frame bytes written (torn record).
  kWalBeforeSync,            ///< Frame written; the inline fsync (a
                             ///< single-shard write, or an admin write's
                             ///< shard 0) not yet issued.
  kWalAfterAppend,           ///< Frame written (and fsynced on the
                             ///< single-shard path); op NOT yet applied.
  kGroupCommitFlush,         ///< A multi-shard write's group-commit leader
                             ///< about to flush a round.
  kCheckpointMidWrite,       ///< Half the checkpoint tmp file written.
  kCheckpointMidSection,     ///< A checkpoint section fully written to
                             ///< the tmp file (fires once per section —
                             ///< the tmp ends exactly on a section
                             ///< boundary).
  kCheckpointBeforeRename,   ///< Tmp complete + synced; not yet renamed.
  kCheckpointBeforeUnlink,   ///< Renamed and the directory synced; the
                             ///< sealed segments not yet unlinked.
  kCheckpointAfterSeal,      ///< New segment created and its directory
                             ///< entry synced; no frame in it yet, no
                             ///< checkpoint byte written.
};

/// Test-only crash simulation: return non-OK to stop the write path at
/// `stage` as if the process died there. `shard` is the shard index. In
/// a TrustService the seal and WAL stages fire on the writing thread and
/// the checkpoint write stages on the checkpointer thread, so a hook
/// must be thread-safe.
using FaultHook = std::function<Status(PersistStage, std::size_t)>;

/// Durability configuration for TrustService::Open.
struct PersistenceOptions {
  /// Directory holding manifest + per-shard checkpoint/WAL files
  /// (created if missing).
  std::string directory;
  /// Make every acknowledged write durable before it is acknowledged
  /// (see the file comment for which flush a write pays). Off by
  /// default: the bench shows the gap, deployments choose.
  bool sync_every_append = false;
  /// Checkpoint a shard inline once this many WAL appends accumulate
  /// since its last checkpoint (0 = only explicit checkpoints).
  std::size_t checkpoint_every_appends = 0;
  /// Test-only kill-point hook; see FaultHook.
  FaultHook fault_hook;
};

/// One decoded WAL record.
struct WalEntry {
  std::uint64_t seq = 0;
  std::string payload;
};

/// Why a WAL scan stopped. A recovering LEADER can treat both non-clean
/// kinds the same (truncate to the valid prefix — nothing past it was
/// acknowledged), but a tailing FOLLOWER must not: an incomplete frame is
/// the expected transient of an append still landing (wait and re-read),
/// while a complete-but-invalid frame can never become valid by waiting
/// (halt).
enum class WalTailKind {
  kClean,  ///< The file ends exactly at a frame boundary.
  kTorn,   ///< The last frame's bytes stop before its declared length —
           ///< a crash (or in-flight append) mid-write. Retryable.
  kCorrupt,  ///< A full-length frame is present but its length field or
             ///< CRC is invalid — bit rot. Final.
};

/// Result of scanning a WAL file.
struct WalContents {
  std::vector<WalEntry> entries;
  /// Bytes of the longest valid frame prefix; anything past it is a torn
  /// tail from a crash mid-append — or, if larger than one frame,
  /// mid-file corruption.
  std::uint64_t valid_bytes = 0;
  /// Bytes past the last valid frame (0 for a cleanly closed log).
  std::uint64_t dropped_bytes = 0;
  /// True when trailing bytes past `valid_bytes` were dropped.
  bool dropped_tail = false;
  /// What stopped the scan (kClean when nothing did).
  WalTailKind tail = WalTailKind::kClean;
  /// For kCorrupt: what was wrong with the frame at `valid_bytes`.
  std::string tail_error;
};

/// Append-only CRC-framed log writer. Frame layout (little-endian):
///   [u32 payload_len][u32 masked crc32c(seq + payload)][u64 seq][payload]
/// Not thread-safe; the owning shard's exclusive lock serializes access.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens (creating if needed) for append; `start_offset` truncates any
  /// torn tail a previous crash left first (ftruncate + fsync). Does not
  /// sync the parent directory: a caller that may have created the file
  /// makes its existence durable with SyncDirectory once it has opened
  /// every log it needs.
  Status Open(const std::string& path, std::uint64_t start_offset);

  /// Appends frames for `payloads` with consecutive sequence numbers
  /// starting at `first_seq`, as ONE buffered write (a batch is one
  /// syscall), then fsyncs when `sync` is set. The fault hook — when
  /// armed — fires kWalBeforeAppend before any byte and kWalMidAppend
  /// after half the buffer.
  ///
  /// Any failure POISONS the writer: every later Append refuses with
  /// FailedPrecondition. After a failed append the file may end in a
  /// torn frame (and the in-flight sequence numbers may or may not be
  /// durable), so appending more frames would put acknowledged records
  /// behind garbage — where recovery's prefix scan can never see them —
  /// or reuse sequence numbers. Only a fresh Open (recovery truncated
  /// the tail) may write again.
  Status Append(const std::vector<std::string>& payloads,
                std::uint64_t first_seq, bool sync, const FaultHook& hook,
                std::size_t shard);

  /// Seals the open segment — with `sync`, fsyncs it, so its frames are
  /// durable whatever flush a caller still owes them — and appends from
  /// then on to `path`, a new empty segment, under the same fd() number
  /// (a group flush may hold it). Syncs `directory` so the new name is
  /// durable before any frame lands in it. Any failure poisons the
  /// writer; a poisoned writer stays poisoned.
  Status Rotate(const std::string& path, const std::string& directory,
                bool sync);

  /// Marks the writer failed without touching the file: used when a
  /// DEFERRED flush (group commit) fails after Append returned — the
  /// appended frames' durability is unknown, so the same
  /// no-append-after-uncertainty rule as a failed Append applies.
  void Poison() { poisoned_ = true; }

  void Close();
  /// Underlying descriptor for a deferred flush (-1 when closed); fixed
  /// from Open to Close.
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  bool poisoned_ = false;
  std::string path_;
};

/// Cross-shard group commit: a write that appended frames to several
/// shards' WALs (without an inline fsync) enrolls their descriptors here,
/// and one enrollee — the round's leader — flushes every enrolled
/// descriptor with a single filesystem flush: syncfs(2) on Linux 5.8 and
/// later (the per-shard WALs live on one filesystem, and the journal
/// commit that makes one durable makes them all durable); an fsync of
/// each distinct descriptor on older kernels, whose syncfs returns 0 even
/// when writeback failed, and off Linux. syncfs also flushes every other
/// dirty file on that filesystem, so a round's latency grows with
/// unrelated writers' dirty data. There is no window: a leader waits only
/// for the previous round's flush to drain, then flushes whatever
/// enrolled while it was in flight. A lone writer pays one flush, and
/// concurrent writers share one flush per round.
///
/// Failure blast radius: a failed flush leaves every enrolled writer's
/// durability unknown, so EVERY participant of the failed round gets the
/// same FailedPrecondition — and the failure is sticky: all later Sync
/// calls refuse too (the service is degraded; restart to recover). The
/// caller must poison the affected WalWriters itself (it owns their
/// locks).
///
/// Thread-safe; this is the ONE object shared across shard locks.
class GroupCommitter {
 public:
  /// Durably flushes the filesystem holding `fds`, coalescing with every
  /// concurrent caller. Returns only after the bytes this caller
  /// appended (before calling) are durable — or FailedPrecondition when
  /// this or an earlier round's flush failed. `hook`/`shard` feed the
  /// kGroupCommitFlush kill-point (leader only).
  Status Sync(std::span<const int> fds, const FaultHook& hook,
              std::size_t shard);

  /// Flush requests enrolled (one per Sync call).
  std::uint64_t sync_requests() const {
    return sync_requests_.load(std::memory_order_relaxed);
  }
  /// Filesystem flushes actually issued; `sync_requests() - flushes()`
  /// is the number of fsyncs coalescing saved.
  std::uint64_t flushes() const {
    return flushes_.load(std::memory_order_relaxed);
  }

 private:
  /// Round-state capability. Leaf lock: the leader RELEASES it around the
  /// actual filesystem flush, and no other siot lock is ever taken under
  /// it (callers hold their shard locks ABOVE it).
  Mutex mutex_;
  CondVar cv_;
  /// Round currently accepting enrollees; closes when its leader takes
  /// the pending set.
  std::uint64_t round_ SIOT_GUARDED_BY(mutex_) = 0;
  /// Rounds whose flush completed: round r's enrollees are durable once
  /// flushed_ > r.
  std::uint64_t flushed_ SIOT_GUARDED_BY(mutex_) = 0;
  bool leader_active_ SIOT_GUARDED_BY(mutex_) = false;
  std::vector<int> pending_fds_ SIOT_GUARDED_BY(mutex_);
  /// Sticky first flush failure.
  Status failure_ SIOT_GUARDED_BY(mutex_);
  /// Round of the first failed flush (none yet = max). Rounds before it
  /// flushed durably; every round from it on reports `failure_` — the
  /// exact blast radius of a failed group flush.
  std::uint64_t failed_round_ SIOT_GUARDED_BY(mutex_) =
      std::numeric_limits<std::uint64_t>::max();
  std::atomic<std::uint64_t> sync_requests_{0};
  std::atomic<std::uint64_t> flushes_{0};
};

/// Whether syncfs(2) reports writeback errors on the kernel whose
/// uname(2) release string is `release` (e.g. "6.8.0-45-generic"): true
/// from Linux 5.8 on. Earlier kernels return 0 from a syncfs whose
/// writeback failed, so GroupCommitter fsyncs each descriptor there. An
/// unparseable release counts as too old.
bool SyncfsReportsWritebackErrors(std::string_view release);

/// Reads every valid frame of a WAL segment. A missing file is an empty
/// log.
/// Stops at the first torn/corrupt frame and reports the valid prefix —
/// record-level atomicity: a partial append is never surfaced as an op.
StatusOr<WalContents> ReadWal(const std::string& path);

/// Advisory exclusive lock on a persistence directory (flock on a LOCK
/// file), held for the owning service's lifetime: two live services
/// appending to the same WALs would interleave sequence numbers and make
/// the directory unrecoverable, so the second Open must be refused.
class DirectoryLock {
 public:
  DirectoryLock() = default;
  ~DirectoryLock();
  DirectoryLock(const DirectoryLock&) = delete;
  DirectoryLock& operator=(const DirectoryLock&) = delete;
  /// Movable so a fence acquired during failover (ReplicaService::Promote)
  /// can be handed to the TrustService that comes up writable without a
  /// release/re-acquire window another node could steal.
  DirectoryLock(DirectoryLock&& other) noexcept;
  DirectoryLock& operator=(DirectoryLock&& other) noexcept;

  /// FailedPrecondition when another live process (or service instance)
  /// holds the directory.
  Status Acquire(const std::string& directory);
  void Release();
  bool held() const { return fd_ >= 0; }
  /// The directory Acquire locked (empty when not held) — so a fence
  /// handed across a failover can be verified against the directory it
  /// is supposed to protect.
  const std::string& directory() const { return directory_; }

 private:
  int fd_ = -1;
  std::string directory_;
};

// --------------------------------------------------------------- ops --
// WAL payloads are versioned codec records — binary v2 from this
// service's writers, text v1 from directories that predate the binary
// format. Encoders and the format-dispatching decoder live in
// service/wal_codec.h (included above).

/// Validates and applies one op (either codec version) to `engine`.
/// Replay-safe: every argument is checked — intrinsically by the codec
/// (field shapes, sentinel agents, value ranges) and against the
/// engine's current state here (task registered in the catalog) — and a
/// violation returns Corruption; a corrupt log must never trip an
/// engine SIOT_CHECK.
Status ApplyWalOp(std::string_view payload, trust::TrustEngine* engine);

// ------------------------------------------------------ shard persister --

/// Where one shard's log stands once its engine holds the recovered
/// state — what a ShardLogReader reports and Resume positions the
/// writer at.
struct ShardLogPosition {
  /// Sequence number of the last op folded into the engine (0 = none).
  std::uint64_t last_seq = 0;
  /// applied seq of the checkpoint the state was rebuilt from (0 = none).
  std::uint64_t checkpoint_seq = 0;
  /// first_seq of the newest segment, the one `wal_bytes` measures and
  /// appends continue in (unused while no segment exists: Resume then
  /// creates one at last_seq + 1).
  std::uint64_t segment_first_seq = 0;
  /// Bytes of that segment's valid frame prefix; anything past it is a
  /// torn or corrupt tail that was never acknowledged.
  std::uint64_t wal_bytes = 0;
};

/// What a complete frame that fails its check (length, CRC or payload
/// format byte) means to whoever reads the log — the one decision the
/// ways up do not share. A partial frame always just ends the read.
enum class BadFramePolicy {
  /// Corruption: waiting never fixes a complete frame. A follower halts
  /// on it (stickily), and Promote refuses.
  kHalt,
  /// The segment ends before the frame, with a warning: recovery keeps
  /// the valid prefix, and Resume cuts the rest off the newest segment.
  kCutTail,
};

/// One shard's replication position, relative to what is on disk now:
/// what its ShardLogReader has read and what lies past that.
struct ShardReplicationLag {
  std::size_t shard = 0;
  /// Last op sequence applied to the reader's engine.
  std::uint64_t applied_seq = 0;
  /// Last complete frame sequence visible right now in the segment the
  /// reader reads and every later one (>= applied_seq always).
  std::uint64_t visible_seq = 0;
  /// visible_seq - applied_seq (0 when caught up).
  std::uint64_t seq_lag = 0;
  /// Current size of the segment the reader reads (0 before it opened
  /// one).
  std::uint64_t wal_bytes = 0;
  /// Bytes of that segment the reader has consumed.
  std::uint64_t read_offset = 0;
  /// Bytes not yet consumed: the rest of that segment plus every later
  /// segment (0 when caught up).
  std::uint64_t byte_lag = 0;
  /// A partial frame is pending at the tail (an append in flight).
  bool torn_tail = false;
};

/// Reads ONE shard's log back into an engine — the only code that does,
/// for recovery, a tailing follower and Promote alike. The first Read
/// restores the checkpoint (if any); every Read then follows one rule:
///   * read the open segment to its end; a partial last frame (an
///     append still landing, or a crash mid-append) stays unread;
///   * the open segment is sealed once a later segment exists — listed
///     when it was opened, named applied_seq + 1 since, or shown by the
///     open one's unlink — and a sealed segment read to its end is done;
///   * the next segment is the one holding applied_seq + 1; when none
///     does, the checkpoint covers the gap and the engine jumps to it;
///     when it does not, the log goes on in the first later segment (a
///     frame there is a sequence gap; an empty newest one is a log that
///     ended before its last seal's frames reached the disk);
///   * frames the loaded checkpoint covers are skipped (a segment read
///     from its start may begin before the checkpoint); past them the
///     seqs must be contiguous — a gap or repeat is Corruption — and
///     every frame goes through ApplyWalOp.
/// The descriptor of the open segment keeps reading it after an unlink.
/// Not thread-safe; the owner's shard lock serializes use.
class ShardLogReader {
 public:
  ShardLogReader(std::string directory, std::size_t shard);
  ~ShardLogReader();
  ShardLogReader(const ShardLogReader&) = delete;
  ShardLogReader& operator=(const ShardLogReader&) = delete;

  /// Folds up to `limit` frames on disk now (0 = all of them) into
  /// `engine` and returns how many. The first call restores the
  /// checkpoint into `engine`, which must be freshly constructed with
  /// the service's engine config; every call passes the same engine.
  StatusOr<std::size_t> Read(trust::TrustEngine* engine,
                             BadFramePolicy bad_frame, std::size_t limit = 0);

  /// Where the read stands. Once a static log is drained, the open
  /// segment is the newest one: the position Resume takes.
  ShardLogPosition position() const {
    return {applied_seq_, checkpoint_seq_, segment_, read_offset_};
  }
  std::uint64_t applied_seq() const { return applied_seq_; }

  /// How far the reader is behind what is on disk now; decodes (without
  /// applying) what lies past its position, so O(unread bytes). Advisory
  /// while a leader appends.
  ShardReplicationLag Lag() const;

 private:
  /// Opens the segment holding applied_seq + 1, per the rule above.
  /// False when there is none yet (the leader has not created one).
  StatusOr<bool> OpenNext(trust::TrustEngine* engine);

  /// Loads the checkpoint on disk, if any: the engine jumps to it when
  /// it is ahead of applied_seq (or on the first load). Corruption when
  /// it is behind.
  Status LoadCheckpoint(trust::TrustEngine* engine);

  /// Done with the open segment.
  void Close();

  std::string directory_;
  std::size_t shard_;
  /// Descriptor of the open segment (-1 while none is).
  int fd_ = -1;
  /// first_seq of the open segment, or of the one last read to its end.
  std::uint64_t segment_ = 0;
  /// Bytes of the open segment consumed, frame-aligned.
  std::uint64_t read_offset_ = 0;
  bool sealed_ = false;
  bool torn_tail_ = false;
  /// segment_ was read to its sealed end, and no other one opened since.
  bool finished_ = false;
  bool restored_ = false;
  std::uint64_t applied_seq_ = 0;
  std::uint64_t checkpoint_seq_ = 0;
};

/// Checkpoint + WAL lifecycle of ONE shard. Not thread-safe; the owning
/// shard's exclusive lock (or single-threaded recovery) serializes use,
/// except for WriteCheckpoint.
class ShardPersistence {
 public:
  /// `options` must outlive this object (the service owns both).
  ShardPersistence(const PersistenceOptions* options, std::size_t shard);

  /// Resumes the writer at `position`, however the engine got there:
  /// removes a stale .tmp checkpoint, truncates any torn tail of the
  /// newest segment past `position.wal_bytes` (creating the first
  /// segment when none exists), and opens it for appends at
  /// `position.last_seq + 1`. The appends toward the next inline
  /// checkpoint are the frames in the newest segment when it holds any
  /// (as a leader that never crashed counts them), else the frames past
  /// the checkpoint on disk, also after a crash between a seal and its
  /// rename; so checkpoint_every_appends fires on the same append
  /// whichever way the state was rebuilt. FailedPrecondition when the
  /// newest segment is not the one `position` names. The caller then syncs the directory once
  /// for every shard it resumed (see WalWriter::Open).
  Status Resume(const ShardLogPosition& position);

  /// One shard on its own: drains a ShardLogReader into `engine` (which
  /// must be freshly constructed with the service's engine config),
  /// resumes at its position, then syncs the directory.
  Status Recover(trust::TrustEngine* engine);

  /// Appends ops as one frame batch, assigning sequence numbers. With
  /// `sync` it fsyncs this shard's WAL inline before returning (the
  /// single-shard flush); without it the caller owns durability — it
  /// either runs without syncing, or enrolls wal_fd() in the service's
  /// GroupCommitter (one Sync covers every shard the write touched) and
  /// Poison()s this shard on a failed flush. On success the ops may be
  /// acknowledged once applied and durable; on error the service must
  /// treat the shard as crashed.
  Status Log(const std::vector<std::string>& payloads, bool sync);

  /// Descriptor for a deferred group flush (-1 before Recover).
  int wal_fd() const { return writer_.fd(); }

  /// Marks the writer unusable after a failed deferred flush; see
  /// WalWriter::Poison.
  void Poison() { writer_.Poison(); }

  /// Step 1 of a checkpoint, the one that excludes appends: seals the
  /// open segment (kCheckpointAfterSeal fires once the new one exists)
  /// and restarts appends_since_checkpoint(). Returns S, the seq the
  /// checkpoint covers; the caller copies the engine before the next
  /// append and hands both to WriteCheckpoint.
  StatusOr<std::uint64_t> Seal();

  /// Steps 2 and 3: writes `engine`, the shard's state at `seq` (what
  /// Seal returned), as the checkpoint file (atomic replace) and unlinks
  /// the segments it covers. Touches only files and what construction
  /// fixed, so it may run on another thread, without the shard lock,
  /// while Log appends; it must finish before the shard's next Seal.
  /// Safe against a crash at any point (see file comment).
  Status WriteCheckpoint(std::uint64_t seq,
                         const trust::TrustEngine& engine) const;

  /// Seal, then WriteCheckpoint, on the caller's thread.
  Status Checkpoint(const trust::TrustEngine& engine);

  /// WAL appends since the last seal (or, after Resume, as it counts
  /// them): what checkpoint_every_appends is compared against.
  std::uint64_t appends_since_checkpoint() const {
    return appends_since_checkpoint_;
  }

  /// Sequence number of the last durably appended op (0 = none yet).
  /// With the owning shard lock held, every frame up to this seq is fully
  /// written to its segment and visible to a concurrent reader — the
  /// replication position a follower synchronizes against.
  std::uint64_t last_seq() const { return next_seq_ - 1; }

  /// Frame bytes in the open segment (0 right after a checkpoint sealed
  /// the previous one); a follower's byte-lag baseline.
  std::uint64_t wal_bytes() const { return wal_bytes_; }

  /// Inline fsyncs this shard issued (one per Log with `sync`); group
  /// flushes are counted by the GroupCommitter instead.
  std::uint64_t inline_fsyncs() const { return inline_fsyncs_; }

 private:
  const PersistenceOptions* const options_;
  const std::size_t shard_;
  const std::string checkpoint_path_;
  WalWriter writer_;
  std::uint64_t next_seq_ = 1;
  /// first_seq of the segment `writer_` appends to.
  std::uint64_t segment_first_seq_ = 1;
  std::uint64_t appends_since_checkpoint_ = 0;
  std::uint64_t wal_bytes_ = 0;
  std::uint64_t inline_fsyncs_ = 0;
};

/// Paths of a shard's files under `directory`. ShardWalPath is the
/// legacy single-file log, shard-<k>.wal.
std::string ShardWalPath(const std::string& directory, std::size_t shard);
std::string ShardCheckpointPath(const std::string& directory,
                                std::size_t shard);
std::string ManifestPath(const std::string& directory);

/// shard-<k>.<first_seq>.wal under `directory`; first_seq 0 names the
/// legacy shard-<k>.wal. The one place a segment name is spelled.
std::string ShardSegmentPath(const std::string& directory, std::size_t shard,
                             std::uint64_t first_seq);

/// One WAL segment of a shard.
struct WalSegment {
  /// Sequence number of the segment's first frame (0 = legacy).
  std::uint64_t first_seq = 0;
  std::string path;
};

/// The WAL segments of `shard` under `directory` that may hold frames
/// from `from_seq` on, by first_seq (the legacy file, when present,
/// first): the one holding `from_seq` — the last starting at or before
/// it — and every later one. With no such segment, the first one listed
/// starts past `from_seq`. Lists names only: what stands at a segment's
/// path is for whoever opens it to find out.
StatusOr<std::vector<WalSegment>> ListWalSegments(const std::string& directory,
                                                  std::size_t shard,
                                                  std::uint64_t from_seq = 0);

}  // namespace siot::service

#endif  // SIOT_SERVICE_PERSISTENCE_H_
