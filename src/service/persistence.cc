// Copyright 2026 The siot-trust Authors.

#include "service/persistence.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/checksum.h"
#include "common/file_util.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace siot::service {

namespace {

constexpr std::size_t kFrameHeaderBytes = 16;  // u32 len, u32 crc, u64 seq
constexpr std::uint32_t kMaxPayloadBytes = 1u << 28;

void PutU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

std::uint32_t GetU32(std::string_view bytes) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(bytes[static_cast<
        std::size_t>(i)]);
  }
  return v;
}

std::uint64_t GetU64(std::string_view bytes) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(bytes[static_cast<
        std::size_t>(i)]);
  }
  return v;
}

Status Fire(const FaultHook& hook, PersistStage stage, std::size_t shard) {
  if (!hook) return Status::OK();
  return hook(stage, shard);
}

}  // namespace

// -------------------------------------------------------------- paths --

std::string ShardWalPath(const std::string& directory, std::size_t shard) {
  return directory + "/shard-" + std::to_string(shard) + ".wal";
}

std::string ShardCheckpointPath(const std::string& directory,
                                std::size_t shard) {
  return directory + "/shard-" + std::to_string(shard) + ".ckpt";
}

std::string ManifestPath(const std::string& directory) {
  return directory + "/manifest";
}

// ---------------------------------------------------------- WalWriter --

WalWriter::~WalWriter() { Close(); }

Status WalWriter::Open(const std::string& path,
                       std::uint64_t start_offset) {
  Close();
  poisoned_ = false;
  path_ = path;
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    return Status::IoError(ErrnoMessage("cannot open WAL", path));
  }
  // Drop any torn tail a crash mid-append left behind: appending new
  // frames after garbage bytes would make them unreachable at recovery.
  struct ::stat st;
  if (::fstat(fd_, &st) != 0) {
    Close();
    return Status::IoError(ErrnoMessage("cannot stat WAL", path));
  }
  if (static_cast<std::uint64_t>(st.st_size) > start_offset) {
    if (::ftruncate(fd_, static_cast<::off_t>(start_offset)) != 0) {
      Close();
      return Status::IoError(ErrnoMessage("cannot truncate WAL tail", path));
    }
    if (::fsync(fd_) != 0) {
      Close();
      return Status::IoError(ErrnoMessage("fsync failed", path));
    }
  }
  return Status::OK();
}

Status WalWriter::Append(const std::vector<std::string>& payloads,
                         std::uint64_t first_seq, bool sync,
                         const FaultHook& hook, std::size_t shard) {
  if (fd_ < 0) return Status::FailedPrecondition("WAL is not open");
  if (poisoned_) {
    return Status::FailedPrecondition(
        "WAL writer poisoned by an earlier failed append: " + path_);
  }
  std::string buffer;
  std::uint64_t seq = first_seq;
  for (const std::string& payload : payloads) {
    SIOT_CHECK_MSG(payload.size() < kMaxPayloadBytes,
                   "WAL payload of %zu bytes", payload.size());
    std::string seq_bytes;
    PutU64(&seq_bytes, seq);
    const std::uint32_t crc =
        Crc32cMask(Crc32c(payload, Crc32c(seq_bytes)));
    PutU32(&buffer, static_cast<std::uint32_t>(payload.size()));
    PutU32(&buffer, crc);
    buffer += seq_bytes;
    buffer += payload;
    ++seq;
  }
  // Any failure from here on — including a simulated crash from the
  // fault hook — leaves the on-disk tail in an unknown state, so the
  // writer is poisoned (see header).
  const auto fail = [this](Status status) {
    poisoned_ = true;
    return status;
  };
  if (Status s = Fire(hook, PersistStage::kWalBeforeAppend, shard);
      !s.ok()) {
    return fail(std::move(s));
  }
  if (hook) {
    // Two-part write with a kill-point in the middle: a crash mid-append
    // must leave a torn frame, and the harness needs to stand exactly
    // there.
    const std::size_t half = buffer.size() / 2;
    if (Status s = WriteFully(fd_, buffer.data(), half, path_); !s.ok()) {
      return fail(std::move(s));
    }
    if (Status s = Fire(hook, PersistStage::kWalMidAppend, shard);
        !s.ok()) {
      return fail(std::move(s));
    }
    if (Status s = WriteFully(fd_, buffer.data() + half,
                              buffer.size() - half, path_);
        !s.ok()) {
      return fail(std::move(s));
    }
  } else {
    if (Status s = WriteFully(fd_, buffer.data(), buffer.size(), path_);
        !s.ok()) {
      return fail(std::move(s));
    }
  }
  if (sync) {
    if (Status s = Fire(hook, PersistStage::kWalBeforeSync, shard);
        !s.ok()) {
      return fail(std::move(s));
    }
    if (::fsync(fd_) != 0) {
      return fail(Status::IoError(ErrnoMessage("fsync failed", path_)));
    }
  }
  return Status::OK();
}

Status WalWriter::Truncate() {
  if (fd_ < 0) return Status::FailedPrecondition("WAL is not open");
  if (::ftruncate(fd_, 0) != 0) {
    return Status::IoError(ErrnoMessage("cannot truncate WAL", path_));
  }
  if (::fsync(fd_) != 0) {
    return Status::IoError(ErrnoMessage("fsync failed", path_));
  }
  return Status::OK();
}

void WalWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

WalFrameDecode DecodeWalFrame(std::string_view bytes, WalEntry* entry,
                              std::size_t* frame_bytes,
                              std::string* error) {
  if (bytes.empty()) return WalFrameDecode::kEnd;
  if (bytes.size() < kFrameHeaderBytes) return WalFrameDecode::kTorn;
  const std::uint32_t len = GetU32(bytes.substr(0, 4));
  const std::uint32_t stored_crc = GetU32(bytes.substr(4, 4));
  if (len > kMaxPayloadBytes) {
    // No append ever produces an oversized length field, and a torn
    // write only shortens a frame — this can never become valid.
    if (error) {
      *error = StrFormat("frame length %u exceeds the %u-byte limit",
                         len, kMaxPayloadBytes);
    }
    return WalFrameDecode::kCorrupt;
  }
  if (kFrameHeaderBytes + static_cast<std::size_t>(len) > bytes.size()) {
    // The declared payload extends past the bytes on disk: a crash (or
    // an append still landing) mid-write. The missing bytes may yet
    // arrive, so this is the retryable kind.
    return WalFrameDecode::kTorn;
  }
  if (len > 0) {
    // Version dispatch BEFORE the CRC pass: a complete frame whose
    // payload opens with a byte no codec version ever wrote (not the
    // binary version byte, not printable v1 text) can never decode, so
    // classify it without paying for the checksum of up to 256 MiB.
    const auto first =
        static_cast<unsigned char>(bytes[kFrameHeaderBytes]);
    if (!IsKnownWalFormatByte(first)) {
      if (error) {
        *error = StrFormat(
            "unknown payload format byte 0x%02x on a complete %u-byte "
            "frame",
            first, len);
      }
      return WalFrameDecode::kCorrupt;
    }
  }
  const std::string_view checked = bytes.substr(8, 8 + len);
  if (Crc32cMask(Crc32c(checked)) != stored_crc) {
    // Every byte the header promised is present, so waiting cannot fix
    // the mismatch: bit rot, or a reader at a stale offset.
    if (error) {
      *error = StrFormat("CRC mismatch on a complete %u-byte frame", len);
    }
    return WalFrameDecode::kCorrupt;
  }
  if (entry != nullptr) {
    entry->seq = GetU64(bytes.substr(8, 8));
    entry->payload = std::string(bytes.substr(kFrameHeaderBytes, len));
  }
  if (frame_bytes != nullptr) {
    *frame_bytes = kFrameHeaderBytes + static_cast<std::size_t>(len);
  }
  return WalFrameDecode::kFrame;
}

StatusOr<WalContents> ReadWal(const std::string& path) {
  WalContents contents;
  if (!FileExists(path)) return contents;
  SIOT_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  std::size_t offset = 0;
  for (;;) {
    const std::string_view rest(bytes.data() + offset,
                                bytes.size() - offset);
    WalEntry entry;
    std::size_t frame_bytes = 0;
    std::string error;
    const WalFrameDecode decoded =
        DecodeWalFrame(rest, &entry, &frame_bytes, &error);
    if (decoded == WalFrameDecode::kFrame) {
      contents.entries.push_back(std::move(entry));
      offset += frame_bytes;
      continue;
    }
    if (decoded == WalFrameDecode::kTorn) {
      contents.tail = WalTailKind::kTorn;
    } else if (decoded == WalFrameDecode::kCorrupt) {
      contents.tail = WalTailKind::kCorrupt;
      contents.tail_error =
          StrFormat("%s at byte %zu of %s", error.c_str(), offset,
                    path.c_str());
    }
    break;
  }
  contents.valid_bytes = offset;
  contents.dropped_bytes = bytes.size() - offset;
  contents.dropped_tail = contents.dropped_bytes != 0;
  return contents;
}

// ------------------------------------------------------ DirectoryLock --

DirectoryLock::~DirectoryLock() { Release(); }

DirectoryLock::DirectoryLock(DirectoryLock&& other) noexcept
    : fd_(other.fd_), directory_(std::move(other.directory_)) {
  other.fd_ = -1;
  other.directory_.clear();
}

DirectoryLock& DirectoryLock::operator=(DirectoryLock&& other) noexcept {
  if (this != &other) {
    Release();
    fd_ = other.fd_;
    directory_ = std::move(other.directory_);
    other.fd_ = -1;
    other.directory_.clear();
  }
  return *this;
}

Status DirectoryLock::Acquire(const std::string& directory) {
  Release();
  const std::string path = directory + "/LOCK";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IoError(ErrnoMessage("cannot open lock file", path));
  }
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    const int flock_errno = errno;  // close() below may clobber errno.
    ::close(fd);
    if (flock_errno == EWOULDBLOCK) {
      return Status::FailedPrecondition(
          "persistence directory " + directory +
          " is already open in another live service instance");
    }
    return Status::IoError("cannot lock " + path + ": " +
                           std::strerror(flock_errno));
  }
  fd_ = fd;
  directory_ = directory;
  return Status::OK();
}

void DirectoryLock::Release() {
  if (fd_ >= 0) {
    // Closing drops the flock.
    ::close(fd_);
    fd_ = -1;
  }
  directory_.clear();
}

// ------------------------------------------------------ GroupCommitter --

namespace {

/// Durably flushes every descriptor of one group-commit round. On Linux
/// the per-shard WALs share a filesystem, so one syncfs(2) commits the
/// journal transaction covering ALL of them — the whole point of
/// coalescing — provided the kernel reports a failed writeback through
/// it; otherwise fsync each distinct descriptor.
Status FlushRound(std::vector<int> fds) {
#ifdef __linux__
  static const bool use_syncfs = [] {
    utsname name{};
    return ::uname(&name) == 0 && SyncfsReportsWritebackErrors(name.release);
  }();
  if (use_syncfs) {
    if (::syncfs(fds.front()) != 0) {
      return Status::IoError(ErrnoMessage("syncfs failed", "group commit"));
    }
    return Status::OK();
  }
#endif
  std::sort(fds.begin(), fds.end());
  fds.erase(std::unique(fds.begin(), fds.end()), fds.end());
  for (const int fd : fds) {
    if (::fsync(fd) != 0) {
      return Status::IoError(ErrnoMessage("fsync failed", "group commit"));
    }
  }
  return Status::OK();
}

}  // namespace

bool SyncfsReportsWritebackErrors(std::string_view release) {
  unsigned major = 0;
  unsigned minor = 0;
  const char* const end = release.data() + release.size();
  const auto [major_end, major_error] =
      std::from_chars(release.data(), end, major);
  if (major_error != std::errc() || major_end == end || *major_end != '.') {
    return false;
  }
  if (std::from_chars(major_end + 1, end, minor).ec != std::errc()) {
    return false;
  }
  return major > 5 || (major == 5 && minor >= 8);
}

Status GroupCommitter::Sync(std::span<const int> fds, const FaultHook& hook,
                            std::size_t shard) {
  if (fds.empty()) return Status::OK();
  sync_requests_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(&mutex_);
  if (!failure_.ok()) return failure_;
  const std::uint64_t my_round = round_;
  pending_fds_.insert(pending_fds_.end(), fds.begin(), fds.end());
  if (leader_active_) {
    // Enrolled in a round someone else leads; its flush covers us. The
    // leader advances `flushed_` even when the flush FAILS (later rounds
    // must not wait on it forever), so "my round was flushed past" is
    // not the same as "my bytes are durable" — only a round before the
    // first failed one really hit the platter.
    while (flushed_ <= my_round && failure_.ok()) cv_.Wait(mutex_);
    if (my_round >= failed_round_) return failure_;
    return Status::OK();
  }
  // This caller leads round `my_round`: let the previous round's flush
  // drain (bounded by one in-flight flush) while co-committers pile in,
  // then take the pending set and flush it OUTSIDE the mutex so the next
  // round can form meanwhile.
  leader_active_ = true;
  while (flushed_ != my_round && failure_.ok()) cv_.Wait(mutex_);
  if (!failure_.ok()) {
    leader_active_ = false;
    cv_.NotifyAll();
    return failure_;
  }
  std::vector<int> round_fds = std::move(pending_fds_);
  pending_fds_.clear();
  round_ = my_round + 1;
  leader_active_ = false;
  lock.Unlock();
  Status flush = Fire(hook, PersistStage::kGroupCommitFlush, shard);
  if (flush.ok()) flush = FlushRound(std::move(round_fds));
  flushes_.fetch_add(1, std::memory_order_relaxed);
  lock.Lock();
  if (!flush.ok() && failure_.ok()) {
    // Every writer coalesced into this flush — and every later caller —
    // gets the SAME degradation: their appended frames' durability is
    // unknown, exactly like a failed inline fsync, and only a restart
    // (recovery re-reads the WALs) squares the ledger.
    failure_ = Status::FailedPrecondition(
        "group commit flush failed; the durability of every coalesced "
        "append is unknown — restart to recover (" + flush.message() +
        ")");
    failed_round_ = my_round;
  }
  flushed_ = my_round + 1;
  cv_.NotifyAll();
  if (!failure_.ok()) return failure_;
  return Status::OK();
}

// ----------------------------------------------------------------- ops --

Status ApplyWalOp(std::string_view payload, trust::TrustEngine* engine) {
  SIOT_ASSIGN_OR_RETURN(const WalOp op, DecodeAnyVersion(payload));
  switch (op.kind) {
    case WalOpKind::kOutcome: {
      // A corrupt log must never trip an engine SIOT_CHECK: the engine
      // treats an unknown task id as a programming error, so check it
      // here the way the serving boundary does.
      if (static_cast<std::size_t>(op.task) >= engine->catalog().size()) {
        return WalOpCorruption(
            payload, StrFormat("task %llu not in the catalog (%zu tasks)",
                               static_cast<unsigned long long>(op.task),
                               engine->catalog().size()));
      }
      engine->ReportOutcome(op.trustor, op.trustee, op.task, op.outcome,
                            op.trustor_was_abusive, op.intermediates);
      return Status::OK();
    }
    case WalOpKind::kTask: {
      const auto added =
          engine->catalog().AddUniform(op.name, op.characteristics);
      if (!added.ok()) {
        return WalOpCorruption(payload,
                               "invalid task: " + added.status().message());
      }
      return Status::OK();
    }
    case WalOpKind::kTheta:
      engine->reverse_evaluator().SetThreshold(op.trustee, op.task,
                                               op.value);
      return Status::OK();
    case WalOpKind::kEnv:
      engine->environment().SetIndicator(op.trustor, op.value);
      return Status::OK();
  }
  return WalOpCorruption(payload, "unknown op kind");
}

// --------------------------------------------------- ShardPersistence --

ShardPersistence::ShardPersistence(const PersistenceOptions* options,
                                   std::size_t shard)
    : options_(options),
      shard_(shard),
      wal_path_(ShardWalPath(options->directory, shard)),
      checkpoint_path_(ShardCheckpointPath(options->directory, shard)) {}

StatusOr<ShardLogPosition> ShardPersistence::Replay(
    trust::TrustEngine* engine) const {
  std::uint64_t applied_seq = 0;
  if (FileExists(checkpoint_path_)) {
    SIOT_ASSIGN_OR_RETURN(const std::string bytes,
                          ReadFileToString(checkpoint_path_));
    // The codec dispatches on the file's own format byte, so a directory
    // checkpointed before the binary format restores with no migration.
    SIOT_RETURN_IF_ERROR(DecodeCheckpoint(bytes, checkpoint_path_,
                                          &applied_seq, engine));
  }
  SIOT_ASSIGN_OR_RETURN(const WalContents wal, ReadWal(wal_path_));
  if (wal.dropped_tail) {
    // A torn tail is the expected artifact of a crash mid-append (the
    // write was never acknowledged). A corrupt tail — a full-length
    // frame with a bad CRC or length — means bit rot may have cut off
    // records that WERE acknowledged; recovery still proceeds with the
    // consistent prefix, but the operator must hear the difference.
    SIOT_LOG_WARN(
        "WAL %s: dropping %llu trailing bytes past the last valid frame "
        "(%zu records recovered) — %s",
        wal_path_.c_str(),
        static_cast<unsigned long long>(wal.dropped_bytes),
        wal.entries.size(),
        wal.tail == WalTailKind::kTorn
            ? "torn tail, expected after a crash mid-append"
            : ("corrupt frame, possibly cutting acknowledged writes: " +
               wal.tail_error)
                  .c_str());
  }
  ShardLogPosition position{applied_seq, wal.valid_bytes, 0};
  for (const WalEntry& entry : wal.entries) {
    if (entry.seq <= applied_seq) continue;  // Folded into the checkpoint.
    // Appends are assigned consecutive sequence numbers under the shard
    // lock, so the replayed tail must be contiguous; a gap or repeat
    // means frames were reordered or the file was spliced.
    if (entry.seq != position.last_seq + 1) {
      return Status::Corruption(StrFormat(
          "WAL %s: sequence jumped from %llu to %llu", wal_path_.c_str(),
          static_cast<unsigned long long>(position.last_seq),
          static_cast<unsigned long long>(entry.seq)));
    }
    SIOT_RETURN_IF_ERROR(ApplyWalOp(entry.payload, engine));
    position.last_seq = entry.seq;
    ++position.appends_since_checkpoint;
  }
  return position;
}

Status ShardPersistence::Resume(const ShardLogPosition& position) {
  // A .tmp checkpoint is a crash artifact of an unfinished Checkpoint();
  // the durable .ckpt (if any) is authoritative.
  SIOT_RETURN_IF_ERROR(RemoveFileIfExists(checkpoint_path_ + ".tmp"));
  next_seq_ = position.last_seq + 1;
  appends_since_checkpoint_ = position.appends_since_checkpoint;
  wal_bytes_ = position.wal_bytes;
  return writer_.Open(wal_path_, position.wal_bytes);
}

Status ShardPersistence::Recover(trust::TrustEngine* engine) {
  SIOT_ASSIGN_OR_RETURN(const ShardLogPosition position, Replay(engine));
  SIOT_RETURN_IF_ERROR(Resume(position));
  return SyncDirectory(options_->directory);
}

Status ShardPersistence::Log(const std::vector<std::string>& payloads,
                             bool sync) {
  if (payloads.empty()) return Status::OK();
  SIOT_RETURN_IF_ERROR(writer_.Append(payloads, next_seq_, sync,
                                      options_->fault_hook, shard_));
  if (sync) ++inline_fsyncs_;
  // The frames are written (deferred-sync callers: durable once THEIR
  // committer round flushes; they must not acknowledge before it) —
  // advance the counters before the post-append kill-point so even a
  // "crashed" object stays internally consistent.
  next_seq_ += payloads.size();
  appends_since_checkpoint_ += payloads.size();
  for (const std::string& payload : payloads) {
    wal_bytes_ += kFrameHeaderBytes + payload.size();
  }
  return Fire(options_->fault_hook, PersistStage::kWalAfterAppend,
              shard_);
}

Status ShardPersistence::Checkpoint(const trust::TrustEngine& engine) {
  const std::uint64_t applied_seq = next_seq_ - 1;
  std::vector<std::size_t> section_ends;
  const std::string content =
      EncodeCheckpointBinary(applied_seq, engine, &section_ends);
  const std::string tmp = checkpoint_path_ + ".tmp";
  const FaultHook& hook = options_->fault_hook;

  // Kill-points of the tmp write, in byte order: kCheckpointMidWrite
  // stands at the half-way cut (a torn file that ends mid-section), and
  // kCheckpointMidSection stands at the end of every binary section (a
  // torn file that ends EXACTLY on a section boundary — lengths and CRCs
  // valid as far as they go, the next section simply absent).
  std::vector<std::pair<std::size_t, PersistStage>> cuts;
  cuts.emplace_back(content.size() / 2, PersistStage::kCheckpointMidWrite);
  for (const std::size_t end : section_ends) {
    cuts.emplace_back(end, PersistStage::kCheckpointMidSection);
  }
  std::stable_sort(cuts.begin(), cuts.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IoError(ErrnoMessage("cannot open", tmp));
  Status status;
  std::size_t written = 0;
  for (const auto& [cut, stage] : cuts) {
    if (status.ok() && cut > written) {
      status = WriteFully(fd, content.data() + written, cut - written,
                          tmp);
      written = cut;
    }
    if (status.ok()) status = Fire(hook, stage, shard_);
  }
  if (status.ok() && content.size() > written) {
    status = WriteFully(fd, content.data() + written,
                        content.size() - written, tmp);
  }
  if (status.ok() && ::fsync(fd) != 0) {
    status = Status::IoError(ErrnoMessage("fsync failed", tmp));
  }
  ::close(fd);
  SIOT_RETURN_IF_ERROR(status);

  SIOT_RETURN_IF_ERROR(
      Fire(hook, PersistStage::kCheckpointBeforeRename, shard_));
  if (std::rename(tmp.c_str(), checkpoint_path_.c_str()) != 0) {
    return Status::IoError(ErrnoMessage("rename failed", tmp));
  }
  SIOT_RETURN_IF_ERROR(SyncDirectory(options_->directory));
  SIOT_RETURN_IF_ERROR(
      Fire(hook, PersistStage::kCheckpointBeforeTruncate, shard_));
  SIOT_RETURN_IF_ERROR(writer_.Truncate());
  appends_since_checkpoint_ = 0;
  wal_bytes_ = 0;
  return Status::OK();
}

}  // namespace siot::service
