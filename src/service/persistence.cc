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
#include <filesystem>
#include <limits>
#include <utility>

#include "common/byte_codec.h"
#include "common/checksum.h"
#include "common/file_util.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace siot::service {

namespace {

constexpr std::size_t kFrameHeaderBytes = 16;  // u32 len, u32 crc, u64 seq
constexpr std::uint32_t kMaxPayloadBytes = 1u << 28;

Status Fire(const FaultHook& hook, PersistStage stage, std::size_t shard) {
  if (!hook) return Status::OK();
  return hook(stage, shard);
}

/// File name of a shard's WAL segment; see ShardSegmentPath.
std::string SegmentName(std::size_t shard, std::uint64_t first_seq) {
  return first_seq == 0 ? StrFormat("shard-%zu.wal", shard)
                        : StrFormat("shard-%zu.%llu.wal", shard,
                                    static_cast<unsigned long long>(first_seq));
}

}  // namespace

// -------------------------------------------------------------- paths --

std::string ShardWalPath(const std::string& directory, std::size_t shard) {
  return ShardSegmentPath(directory, shard, 0);
}

std::string ShardCheckpointPath(const std::string& directory,
                                std::size_t shard) {
  return directory + "/shard-" + std::to_string(shard) + ".ckpt";
}

std::string ManifestPath(const std::string& directory) {
  return directory + "/manifest";
}

std::string ShardSegmentPath(const std::string& directory, std::size_t shard,
                             std::uint64_t first_seq) {
  return directory + "/" + SegmentName(shard, first_seq);
}

StatusOr<std::vector<WalSegment>> ListWalSegments(const std::string& directory,
                                                  std::size_t shard,
                                                  std::uint64_t from_seq) {
  std::vector<WalSegment> segments;
  const std::string prefix = "shard-" + std::to_string(shard) + ".";
  std::error_code ec;
  for (std::filesystem::directory_iterator it(directory, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (!name.starts_with(prefix)) continue;
    // The seq stays 0 for the legacy name; any name that does not spell
    // a segment exactly as SegmentName does is some other file.
    std::uint64_t first_seq = 0;
    std::from_chars(name.data() + prefix.size(), name.data() + name.size(),
                    first_seq);
    if (name != SegmentName(shard, first_seq)) continue;
    segments.push_back(
        {first_seq, ShardSegmentPath(directory, shard, first_seq)});
  }
  if (ec && ec != std::errc::no_such_file_or_directory) {
    return Status::IoError("cannot list " + directory + ": " + ec.message());
  }
  std::ranges::sort(segments, {}, &WalSegment::first_seq);
  // Drop the segments before the one holding from_seq.
  const auto holding = std::ranges::upper_bound(
      segments, from_seq, {}, &WalSegment::first_seq);
  if (holding != segments.begin()) {
    segments.erase(segments.begin(), holding - 1);
  }
  return segments;
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

Status WalWriter::Rotate(const std::string& path, const std::string& directory,
                         bool sync) {
  // The fsync comes first: with durable writes, a segment named S+1 may
  // exist only once every frame up to S is durable, and a group flush
  // that reaches the new segment through fd() owes the old one nothing.
  const int next =
      !sync || ::fsync(fd_) == 0
          ? ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644)
          : -1;
  const bool moved = next >= 0 && ::dup2(next, fd_) >= 0;
  Status status =
      moved ? SyncDirectory(directory)
            : Status::IoError(ErrnoMessage("cannot seal WAL into", path));
  if (next >= 0) ::close(next);
  if (moved) path_ = path;
  if (!status.ok()) poisoned_ = true;
  return status;
}

void WalWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {

/// Decodes the frame at the head of `bytes`: kEnd when `bytes` is empty,
/// kTorn/kCorrupt as WalTailKind describes; only a kFrame fills `entry`
/// and `frame_bytes` (header + payload size), and only a kCorrupt
/// `error`. The one decoder behind ReadWal and ShardLogReader, so the two
/// never disagree about frame validity.
enum class WalFrameDecode { kFrame, kEnd, kTorn, kCorrupt };
WalFrameDecode DecodeWalFrame(std::string_view bytes, WalEntry* entry,
                              std::size_t* frame_bytes,
                              std::string* error) {
  if (bytes.empty()) return WalFrameDecode::kEnd;
  BinaryReader header(bytes);
  std::uint32_t len = 0;
  std::uint32_t stored_crc = 0;
  std::uint64_t seq = 0;
  if (!header.U32(&len) || !header.U32(&stored_crc) || !header.U64(&seq)) {
    return WalFrameDecode::kTorn;
  }
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
    // the mismatch: bit rot.
    if (error) {
      *error = StrFormat("CRC mismatch on a complete %u-byte frame", len);
    }
    return WalFrameDecode::kCorrupt;
  }
  if (entry != nullptr) {
    entry->seq = seq;
    entry->payload = std::string(bytes.substr(kFrameHeaderBytes, len));
  }
  if (frame_bytes != nullptr) {
    *frame_bytes = kFrameHeaderBytes + static_cast<std::size_t>(len);
  }
  return WalFrameDecode::kFrame;
}

}  // namespace

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
  MutexLock lock(&mutex_);
  // Counted under the mutex the enrollment below holds: whoever sees the
  // count sees a request that is enrolled or refused.
  sync_requests_.fetch_add(1, std::memory_order_relaxed);
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

// ----------------------------------------------------- ShardLogReader --

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

}  // namespace

ShardLogReader::ShardLogReader(std::string directory, std::size_t shard)
    : directory_(std::move(directory)), shard_(shard) {}

ShardLogReader::~ShardLogReader() { Close(); }

void ShardLogReader::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  read_offset_ = 0;
  torn_tail_ = false;
}

Status ShardLogReader::LoadCheckpoint(trust::TrustEngine* engine) {
  const std::string path = ShardCheckpointPath(directory_, shard_);
  if (!FileExists(path)) return Status::OK();
  // The leader replaces the file atomically: this reads the old
  // checkpoint or the new one, never a mix. The codec dispatches on the
  // file's own format byte, so a directory checkpointed before the
  // binary format restores with no migration.
  SIOT_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  trust::TrustEngine fresh(engine->config());
  std::uint64_t seq = 0;
  SIOT_RETURN_IF_ERROR(DecodeCheckpoint(bytes, path, &seq, &fresh));
  if (seq < applied_seq_) {
    return Status::Corruption(StrFormat(
        "checkpoint %s rewound to seq %llu behind the applied seq %llu — "
        "the leader's history went backwards",
        path.c_str(), static_cast<unsigned long long>(seq),
        static_cast<unsigned long long>(applied_seq_)));
  }
  if (seq > applied_seq_ || !restored_) {
    // Everything applied so far (and more) is folded in: jump the engine
    // forward wholesale. At an equal seq the frames already made the
    // engine byte-identical to the checkpoint, so it stays.
    *engine = std::move(fresh);
    applied_seq_ = seq;
  }
  checkpoint_seq_ = seq;
  return Status::OK();
}

StatusOr<bool> ShardLogReader::OpenNext(trust::TrustEngine* engine) {
  // Set once the checkpoint could not close the gap to the first listed
  // segment: the log then goes on there.
  bool uncovered = false;
  for (;;) {
    const std::uint64_t next = applied_seq_ + 1;
    SIOT_ASSIGN_OR_RETURN(std::vector<WalSegment> segments,
                          ListWalSegments(directory_, shard_, next));
    // A segment read to its sealed end is done even when it still lists
    // as holding `next` (its last frames were lost before the seal).
    if (finished_) {
      std::erase_if(segments, [this](const WalSegment& segment) {
        return segment.first_seq == segment_;
      });
    }
    if (segments.empty()) return false;
    if (uncovered || segments.front().first_seq <= next) {
      const int fd = ::open(segments.front().path.c_str(), O_RDONLY);
      if (fd >= 0) {
        fd_ = fd;
        segment_ = segments.front().first_seq;
        sealed_ = segments.size() > 1;
        finished_ = false;
        return true;
      }
      if (errno != ENOENT) {
        return Status::IoError(
            ErrnoMessage("cannot open WAL", segments.front().path));
      }
      // Unlinked since the listing, by a checkpoint that covers it.
    }
    const std::uint64_t before = applied_seq_;
    SIOT_RETURN_IF_ERROR(LoadCheckpoint(engine));
    uncovered = applied_seq_ == before;
  }
}

StatusOr<std::size_t> ShardLogReader::Read(trust::TrustEngine* engine,
                                           BadFramePolicy bad_frame,
                                           std::size_t limit) {
  if (!restored_) {
    SIOT_RETURN_IF_ERROR(LoadCheckpoint(engine));
    restored_ = true;
  }
  if (limit == 0) limit = std::numeric_limits<std::size_t>::max();
  std::size_t applied = 0;
  for (;;) {
    if (fd_ < 0) {
      SIOT_ASSIGN_OR_RETURN(const bool opened, OpenNext(engine));
      if (!opened) return applied;
    }
    const std::string path = ShardSegmentPath(directory_, shard_, segment_);
    struct ::stat st;
    if (::fstat(fd_, &st) != 0) {
      return Status::IoError(ErrnoMessage("cannot stat WAL", path));
    }
    SIOT_ASSIGN_OR_RETURN(
        const std::string bytes,
        ReadRange(fd_, read_offset_, static_cast<std::uint64_t>(st.st_size),
                  path));
    std::string_view rest(bytes);
    WalFrameDecode decoded = WalFrameDecode::kEnd;
    std::string error;
    while (applied < limit) {
      WalEntry entry;
      std::size_t frame_bytes = 0;
      decoded = DecodeWalFrame(rest, &entry, &frame_bytes, &error);
      if (decoded != WalFrameDecode::kFrame) break;
      // Frames at or below the checkpoint's seq are folded into it (a
      // segment opened from its start may begin before the checkpoint).
      // Appends are assigned consecutive sequence numbers under the shard
      // lock, so the rest must be contiguous, across segments too; a gap
      // or repeat means frames were reordered, a segment is missing or a
      // file was spliced.
      if (entry.seq > checkpoint_seq_) {
        if (entry.seq != applied_seq_ + 1) {
          return Status::Corruption(StrFormat(
              "WAL %s: sequence jumped from %llu to %llu at byte %llu",
              path.c_str(), static_cast<unsigned long long>(applied_seq_),
              static_cast<unsigned long long>(entry.seq),
              static_cast<unsigned long long>(read_offset_)));
        }
        SIOT_RETURN_IF_ERROR(ApplyWalOp(entry.payload, engine));
        applied_seq_ = entry.seq;
        ++applied;
      }
      read_offset_ += frame_bytes;
      rest.remove_prefix(frame_bytes);
    }
    if (applied >= limit) return applied;
    torn_tail_ = decoded == WalFrameDecode::kTorn;
    if (decoded == WalFrameDecode::kCorrupt &&
        bad_frame == BadFramePolicy::kHalt) {
      return Status::Corruption(
          StrFormat("WAL %s: %s at byte %llu", path.c_str(), error.c_str(),
                    static_cast<unsigned long long>(read_offset_)));
    }
    if (!rest.empty() && bad_frame == BadFramePolicy::kCutTail) {
      // A torn tail is the expected artifact of a crash mid-append (the
      // write was never acknowledged). A corrupt tail — a full-length
      // frame with a bad CRC or length — means bit rot may have cut off
      // records that WERE acknowledged; recovery still proceeds with the
      // consistent prefix, but the operator must hear the difference.
      SIOT_LOG_WARN(
          "WAL %s: dropping %zu trailing bytes past the last valid frame "
          "(byte %llu) — %s",
          path.c_str(), rest.size(),
          static_cast<unsigned long long>(read_offset_),
          torn_tail_
              ? "torn tail, expected after a crash mid-append"
              : ("corrupt frame, possibly cutting acknowledged writes: " +
                 error)
                    .c_str());
    }
    // The name of a seal's new segment is the seq after the sealed
    // one's last frame; an unlink follows a seal. Either way the bytes
    // just read were all the segment will ever hold.
    const std::uint64_t next = applied_seq_ + 1;
    sealed_ = sealed_ || st.st_nlink == 0 ||
              (next != segment_ &&
               FileExists(ShardSegmentPath(directory_, shard_, next)));
    if (!sealed_) return applied;
    Close();
    finished_ = true;
  }
}

ShardReplicationLag ShardLogReader::Lag() const {
  ShardReplicationLag lag;
  lag.shard = shard_;
  lag.applied_seq = lag.visible_seq = applied_seq_;
  lag.read_offset = read_offset_;
  lag.torn_tail = torn_tail_;
  // Decodes `fd` from `from` to its end, counting the complete frames a
  // Read would fold in right now.
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
      rest.remove_prefix(frame_bytes);
    }
  };
  // The open segment from the read offset (through the descriptor, which
  // outlives an unlink), then every later one whole.
  if (fd_ >= 0) {
    scan(fd_, read_offset_);
    lag.wal_bytes = read_offset_ + lag.byte_lag;
  }
  for (const WalSegment& segment :
       ListWalSegments(directory_, shard_).value_or({})) {
    if (fd_ >= 0 && segment.first_seq <= segment_) continue;
    const int fd = ::open(segment.path.c_str(), O_RDONLY);
    if (fd < 0) continue;
    scan(fd, 0);
    ::close(fd);
  }
  lag.seq_lag = lag.visible_seq - lag.applied_seq;
  return lag;
}

// --------------------------------------------------- ShardPersistence --

ShardPersistence::ShardPersistence(const PersistenceOptions* options,
                                   std::size_t shard)
    : options_(options),
      shard_(shard),
      checkpoint_path_(ShardCheckpointPath(options->directory, shard)) {}

Status ShardPersistence::Resume(const ShardLogPosition& position) {
  // A .tmp checkpoint is a crash artifact of an unfinished Checkpoint();
  // the durable .ckpt (if any) is authoritative.
  SIOT_RETURN_IF_ERROR(RemoveFileIfExists(checkpoint_path_ + ".tmp"));
  SIOT_ASSIGN_OR_RETURN(const std::vector<WalSegment> segments,
                        ListWalSegments(options_->directory, shard_));
  std::uint64_t newest = segments.empty() ? position.last_seq + 1
                                          : segments.back().first_seq;
  std::string path = ShardSegmentPath(options_->directory, shard_, newest);
  if (!segments.empty() && position.segment_first_seq != newest) {
    // Appending anywhere but the newest segment would put frames behind
    // ones replay reads later.
    return Status::FailedPrecondition("resume position is not in " + path +
                                      ", the newest WAL segment");
  }
  next_seq_ = position.last_seq + 1;
  if (newest > next_seq_) {
    // Without durable writes, a crash after a seal can keep the new
    // segment's name but lose frames the sealed one held: the log then
    // ends before its newest (so empty) segment starts. Start it again
    // where the log ends.
    SIOT_RETURN_IF_ERROR(RemoveFileIfExists(path));
    newest = next_seq_;
    path = ShardSegmentPath(options_->directory, shard_, newest);
  }
  segment_first_seq_ = newest;
  wal_bytes_ = position.wal_bytes;
  // The appends toward the next inline checkpoint. A leader restarts the
  // count at every seal (Seal), so frames in the newest segment count
  // from the seal that opened it, whether its checkpoint reached the disk
  // or a crash stopped the checkpointer first. An empty newest segment
  // may be a seal the leader died at: then the frames past the
  // checkpoint on disk count, which is the one `position` names or a
  // later one (a follower loads a checkpoint only to cross a gap). A
  // checkpoint begins the segment after it, so it is the seq before the
  // first segment past the named one.
  std::uint64_t counted_from = position.checkpoint_seq;
  for (const WalSegment& segment : segments) {
    if (segment.first_seq > counted_from) {
      counted_from = std::min(segment.first_seq - 1, position.last_seq);
      break;
    }
  }
  if (wal_bytes_ > 0 && segment_first_seq_ > counted_from + 1) {
    counted_from = segment_first_seq_ - 1;
  }
  appends_since_checkpoint_ = position.last_seq - counted_from;
  return writer_.Open(path, position.wal_bytes);
}

Status ShardPersistence::Recover(trust::TrustEngine* engine) {
  ShardLogReader reader(options_->directory, shard_);
  SIOT_RETURN_IF_ERROR(reader.Read(engine, BadFramePolicy::kCutTail).status());
  SIOT_RETURN_IF_ERROR(Resume(reader.position()));
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

StatusOr<std::uint64_t> ShardPersistence::Seal() {
  const std::uint64_t seq = next_seq_ - 1;
  // The count toward the next inline checkpoint restarts at every seal,
  // whatever becomes of the checkpoint; Resume counts the same way.
  appends_since_checkpoint_ = 0;
  // Nothing to seal when the open segment already starts at the next seq
  // (it is empty).
  if (segment_first_seq_ == next_seq_) return seq;
  // Appends after this checkpoint go to a segment that starts past it,
  // so no file a follower reads ever shrinks.
  SIOT_RETURN_IF_ERROR(writer_.Rotate(
      ShardSegmentPath(options_->directory, shard_, next_seq_),
      options_->directory, options_->sync_every_append));
  segment_first_seq_ = next_seq_;
  wal_bytes_ = 0;
  SIOT_RETURN_IF_ERROR(
      Fire(options_->fault_hook, PersistStage::kCheckpointAfterSeal, shard_));
  return seq;
}

Status ShardPersistence::Checkpoint(const trust::TrustEngine& engine) {
  SIOT_ASSIGN_OR_RETURN(const std::uint64_t seq, Seal());
  return WriteCheckpoint(seq, engine);
}

Status ShardPersistence::WriteCheckpoint(
    std::uint64_t applied_seq, const trust::TrustEngine& engine) const {
  const FaultHook& hook = options_->fault_hook;
  std::vector<std::size_t> section_ends;
  const std::string content =
      EncodeCheckpointBinary(applied_seq, engine, &section_ends);
  const std::string tmp = checkpoint_path_ + ".tmp";

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
      Fire(hook, PersistStage::kCheckpointBeforeUnlink, shard_));
  // Every frame of the older segments is <= applied_seq now. An unlink a
  // crash loses leaves a segment replay skips by sequence number, so the
  // directory needs no sync for them.
  SIOT_ASSIGN_OR_RETURN(const std::vector<WalSegment> segments,
                        ListWalSegments(options_->directory, shard_));
  for (const WalSegment& segment : segments) {
    if (segment.first_seq > applied_seq) break;
    SIOT_RETURN_IF_ERROR(RemoveFileIfExists(segment.path));
  }
  return Status::OK();
}

}  // namespace siot::service
