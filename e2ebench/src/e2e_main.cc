// Copyright 2026 The siot-trust Authors.
// End-to-end benchmark of the serving stack: a durable TrustService
// leader and a WAL-tailing ReplicaService follower driven by closed-loop
// clients over a planted-community social graph. See e2ebench/README.md
// for the workloads, the metrics and how to read the traced-run table.
//
//   siot_e2e --workload decide-10k --seed 1 --seconds 10 --trace 0
//            --data-dir .bench_data --trace-dir .bench_traces
//
// With --trace 0 it measures the end-to-end metrics with the services'
// own background threads. With --trace 1 it records one span per client
// call, then replays a seeded sample of the recorded requests through
// each layer's public functions and prints the per-layer table. Either
// way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed output check prints that line with "correct": false and exits
// with status 1.

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/file_util.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "e2e_stats.h"
#include "e2e_streams.h"
#include "graph/graph.h"
#include "service/checkpoint_codec.h"
#include "service/overlay_serving.h"
#include "service/persistence.h"
#include "service/replication.h"
#include "service/trust_service.h"
#include "service/wal_codec.h"
#include "trust/inference.h"
#include "trust/overlay_builder.h"
#include "trust/transitivity.h"
#include "trust/trust_engine.h"
#include "trust/trust_store_io.h"

namespace siot::e2e {
namespace {

using Clock = std::chrono::steady_clock;
using service::DelegationServiceRequest;
using service::OutcomeReport;
using service::ReplicaService;
using service::TransitiveTrustRequest;
using service::TrustService;
using trust::AgentId;

// ------------------------------------------------------------ settings --
// The common set-up; identical on both sides of every comparison and
// printed with every result.

constexpr std::size_t kShards = 16;
constexpr std::size_t kCheckpointEveryAppends = 512;
constexpr std::chrono::milliseconds kPollPeriod{2};
constexpr std::chrono::milliseconds kRebuildPeriod{2000};
constexpr std::size_t kReportBatch = 64;
constexpr std::size_t kTransitReportEvery = 8;
constexpr std::size_t kSetupRepeats = 3;
constexpr double kShortSetupSeconds = 1.0;
constexpr std::size_t kShortSetupRepeats = 9;
constexpr std::size_t kWarmBatch = 8192;
constexpr std::size_t kFsyncProbes = 1000;
constexpr std::size_t kReplaySample = 1000;
constexpr std::size_t kDerivedReplaySample = 150;
constexpr std::size_t kTransitCheckEvery = 61;
constexpr std::size_t kMaxCheckedSnapshots = 3;
constexpr std::size_t kCheckThreads = 4;
constexpr std::chrono::seconds kAwaitTimeout{120};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "siot_e2e: %s\n", message.c_str());
  std::exit(2);
}

template <typename T>
T Must(StatusOr<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}
void Must(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return NearestRank(values, 0.5);
}

// ---------------------------------------------------------------- args --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir = ".bench_data";
  std::string trace_dir = ".bench_traces";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Die("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--data-dir") {
      args.data_dir = value;
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else {
      Die("unknown argument " + key);
    }
  }
  if (FindWorkload(args.workload) == nullptr) {
    Die("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0)) Die("--seconds must be positive");
  return args;
}

// ------------------------------------------------------- host context --

struct HostContext {
  unsigned nproc = 0;
  std::string compiler = SIOT_E2E_COMPILER;
  std::string build_type = SIOT_E2E_BUILD_TYPE;
  std::string fs_type;
  LatencySummary fsync_us;
};

std::string FilesystemType(const std::string& path) {
  struct ::statfs fs;
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x2FC12FC1: return "zfs";
    case 0x6969: return "nfs";
    default: {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buffer;
    }
  }
}

/// The device's own flush latency on the data directory: small appends,
/// each followed by fsync.
LatencySummary FsyncProbe(const std::string& dir) {
  const std::string path = dir + "/fsync-probe";
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) Die("cannot open " + path);
  std::vector<double> samples;
  samples.reserve(kFsyncProbes);
  const std::string block(512, 'x');
  for (std::size_t i = 0; i < kFsyncProbes; ++i) {
    const auto start = Clock::now();
    if (::write(fd, block.data(), block.size()) !=
            static_cast<ssize_t>(block.size()) ||
        ::fsync(fd) != 0) {
      Die("fsync probe failed on " + path);
    }
    samples.push_back(Micros(Clock::now() - start));
  }
  ::close(fd);
  std::filesystem::remove(path);
  return Summarize(std::move(samples));
}

/// Refuses to measure a configuration that would change what is compared.
void CheckGuards(const HostContext& host) {
  if (host.build_type != "Release" && host.build_type != "RelWithDebInfo") {
    Die("refusing to measure a '" + host.build_type +
        "' build; configure with -DCMAKE_BUILD_TYPE=Release");
  }
  if (std::string(SIOT_E2E_SANITIZE).size() > 0) {
    Die("refusing to measure a sanitizer build (SIOT_SANITIZE=" +
        std::string(SIOT_E2E_SANITIZE) + ")");
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  Die("refusing to measure a sanitizer build");
#endif
  if (std::getenv("SIOT_GROUP_COMMIT_WINDOW_US") != nullptr) {
    Die("refusing to run with SIOT_GROUP_COMMIT_WINDOW_US set: it changes "
        "the flush discipline between the sides of a comparison");
  }
}

// ------------------------------------------------------------ services --

service::TrustServiceConfig ServiceConfig() {
  service::TrustServiceConfig config;
  config.shard_count = kShards;
  return config;
}

/// The measured leader: fsync on every append, inline checkpoints, no
/// background checkpoint thread, default (off) group-commit window.
service::PersistenceOptions LeaderOptions(const std::string& dir) {
  service::PersistenceOptions options;
  options.directory = dir;
  options.sync_every_append = true;
  options.checkpoint_every_appends = kCheckpointEveryAppends;
  return options;
}

trust::TransitivityParams TransitParams() { return {}; }

service::ReplicaOptions FollowerOptions(
    const std::string& dir, std::shared_ptr<const graph::Graph> graph,
    bool own_threads, bool rebuilds) {
  service::ReplicaOptions options;
  options.directory = dir;
  options.poll_period = own_threads ? kPollPeriod
                                    : std::chrono::milliseconds{0};
  options.overlay_graph = std::move(graph);
  options.transitivity = TransitParams();
  options.snapshot_rebuild_period = own_threads && rebuilds
                                        ? kRebuildPeriod
                                        : std::chrono::milliseconds{0};
  return options;
}

/// Byte-exact fingerprint of one shard engine's state: its binary
/// checkpoint serialization (canonical order, raw IEEE-754 bits — equal
/// only for equal states), several times cheaper than the text form at
/// the restart workload's hundred thousand records.
std::uint32_t StateHash(const trust::TrustEngine& engine) {
  const std::string bytes =
      service::EncodeCheckpointBinary(0, engine, nullptr);
  return Crc32c(bytes);
}

/// Everything a workload runs against.
struct Stack {
  const WorkloadSpec* spec = nullptr;
  std::shared_ptr<const graph::Graph> graph;
  std::string dir;
  double graph_s = 0.0;
  std::size_t records = 0;
  std::unique_ptr<TrustService> leader;
  std::unique_ptr<ReplicaService> follower;
  // restart only: the state the directory must recover to.
  std::vector<std::uint32_t> reference_hashes;
  std::vector<service::ShardWalPosition> reference_positions;
  std::vector<OutcomeReport> tail_reports;
  double hashing_s = 0.0;
};

/// Writes the workload's directory: tasks, thresholds, warm-up history
/// and (restart) the WAL tail, with syncing off — set-up is not the
/// measured write path. Returns the record count.
std::size_t WriteDirectory(Stack& stack, std::uint64_t seed) {
  const WorkloadSpec& spec = *stack.spec;
  service::PersistenceOptions options;
  options.directory = stack.dir;
  auto writer = Must(TrustService::Open(ServiceConfig(), options),
                     "open set-up leader");
  for (const TaskDef& task : Tasks()) {
    Must(writer->RegisterTask(task.name, task.characteristics),
         "register task");
  }
  for (AgentId agent = 0; agent < spec.agents; agent += kThresholdStride) {
    Must(writer->SetReverseThreshold(agent, trust::kNoTask, kThreshold),
         "set threshold");
  }
  std::vector<OutcomeReport> batch;
  batch.reserve(kWarmBatch + spec.records_per_agent);
  const auto flush = [&] {
    Must(writer->BatchReportOutcome(batch), "warm-up report");
    batch.clear();
  };
  for (AgentId trustor = 0; trustor < spec.agents; ++trustor) {
    for (OutcomeReport& report :
         WarmReports(*stack.graph, seed, trustor, spec.records_per_agent)) {
      batch.push_back(std::move(report));
    }
    if (batch.size() >= kWarmBatch) flush();
  }
  if (!batch.empty()) flush();
  Must(writer->Checkpoint(), "set-up checkpoint");
  // restart: a WAL tail of outcome frames that re-report existing records.
  Rng tail_rng(MixSeed(seed, 0x7A11));
  for (std::size_t i = 0; i < spec.wal_tail_frames; ++i) {
    const auto trustor =
        static_cast<AgentId>(tail_rng.NextBounded(spec.agents));
    const auto warm =
        WarmReports(*stack.graph, seed, trustor, spec.records_per_agent);
    const OutcomeReport& pick = warm[tail_rng.NextBounded(warm.size())];
    batch.push_back(DrawOutcome(seed, trustor, pick.trustee, pick.task,
                                tail_rng));
    stack.tail_reports.push_back(batch.back());
    if (batch.size() >= kWarmBatch) flush();
  }
  if (!batch.empty()) flush();
  const std::size_t records = writer->Stats().record_count;
  if (spec.kind == WorkloadKind::kRestart) {
    const auto start = Clock::now();
    for (std::size_t s = 0; s < writer->shard_count(); ++s) {
      stack.reference_hashes.push_back(StateHash(writer->shard_engine(s)));
    }
    stack.reference_positions = writer->WalPositions();
    stack.hashing_s = Seconds(Clock::now() - start);
  }
  return records;
}

/// One full set-up: graph, directory, services. `own_threads` selects the
/// deployed configuration (the follower's own poll/rebuild threads) over
/// benchmark-driven polls and rebuilds (traced runs).
Stack SetUp(const WorkloadSpec& spec, std::uint64_t seed,
            const std::string& dir, bool own_threads, double* setup_s) {
  Stack stack;
  stack.spec = &spec;
  stack.dir = dir;
  std::filesystem::remove_all(dir);
  Must(CreateDirectories(dir), "create data directory");
  const auto start = Clock::now();
  stack.graph = std::make_shared<const graph::Graph>(
      Must(GenerateWorkloadGraph(spec.agents, seed), "generate graph"));
  stack.graph_s = Seconds(Clock::now() - start);
  stack.records = WriteDirectory(stack, seed);
  if (spec.kind != WorkloadKind::kRestart) {
    stack.leader = Must(TrustService::Open(ServiceConfig(), LeaderOptions(dir)),
                        "open leader");
    const bool rebuilds = spec.kind == WorkloadKind::kTransit;
    stack.follower = Must(
        ReplicaService::Open(ServiceConfig(),
                             FollowerOptions(dir, stack.graph, own_threads,
                                             rebuilds)),
        "open follower");
    if (rebuilds) {
      if (own_threads) {
        while (!stack.follower->OverlayInfo().built) {
          Must(stack.follower->OverlayRebuildStatus(), "first rebuild");
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      } else {
        Must(stack.follower->BuildOverlaySnapshot(), "first rebuild");
      }
    }
  }
  // Reference hashing (restart) is output-check work, not set-up.
  *setup_s = Seconds(Clock::now() - start) - stack.hashing_s;
  return stack;
}

/// Honest names: the sizes that ran are the sizes the name states.
void CheckSizes(const Stack& stack) {
  const WorkloadSpec& spec = *stack.spec;
  const std::size_t expected = spec.agents * spec.records_per_agent;
  if (stack.graph->node_count() != spec.agents ||
      stack.records != expected) {
    Die("workload " + std::string(spec.name) + " generated " +
        std::to_string(stack.graph->node_count()) + " agents and " +
        std::to_string(stack.records) + " records, expected " +
        std::to_string(spec.agents) + " and " + std::to_string(expected));
  }
}

// -------------------------------------------------------------- clients --

enum class Op : std::uint8_t {
  kDelegate, kPreEvaluate, kReport, kTransit, kRecover, kCatchUp, kPromote
};

const char* OpName(Op op) {
  switch (op) {
    case Op::kDelegate: return "RequestDelegation";
    case Op::kPreEvaluate: return "PreEvaluate";
    case Op::kReport: return "ReportOutcome";
    case Op::kTransit: return "TransitiveTrust";
    case Op::kRecover: return "TrustService::Open";
    case Op::kCatchUp: return "ReplicaService::Open+AwaitPositions";
    case Op::kPromote: return "Promote";
  }
  return "?";
}

/// One client call as the traced run records it.
struct RequestSpan {
  std::uint64_t id = 0;
  Op op = Op::kDelegate;
  std::uint32_t shard = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct RecordedDelegation {
  std::uint64_t id;
  DelegationServiceRequest request;
};
struct RecordedPreEvaluate {
  std::uint64_t id;
  service::PreEvaluateRequest request;
};
struct RecordedReports {
  std::uint64_t id;
  std::vector<OutcomeReport> reports;
};
struct RecordedTransit {
  std::uint64_t id;
  TransitiveTrustRequest request;
};

/// A served transitive answer kept for the output check, with the
/// snapshot it was answered from.
struct TransitSample {
  TransitiveTrustRequest request;
  trust::TransitivityResult result;
  std::shared_ptr<const trust::VersionedOverlaySnapshot> snapshot;
};

/// What one client saw in one phase.
struct ClientLog {
  std::vector<double> delegate_us;
  std::vector<double> preeval_us;
  std::vector<double> report_us;
  std::vector<double> transit_us;
  std::vector<double> snapshot_age_ms;
  std::size_t reports_sent = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  // Traced phase only.
  std::vector<RequestSpan> spans;
  std::vector<RecordedDelegation> delegations;
  std::vector<RecordedPreEvaluate> preevals;
  std::vector<RecordedReports> report_calls;
  std::vector<RecordedTransit> transits;
  std::vector<TransitSample> transit_samples;
  std::vector<std::uint64_t> transit_sample_versions;
};

/// Retains at most kMaxCheckedSnapshots distinct snapshots for the
/// transit answer check, shared by the clients.
class SnapshotKeeper {
 public:
  bool Admit(const std::shared_ptr<const trust::VersionedOverlaySnapshot>& s) {
    MutexLock lock(&mutex_);
    if (kept_.count(s.get()) > 0) return true;
    if (kept_.size() >= kMaxCheckedSnapshots) return false;
    kept_.insert(s.get());
    return true;
  }

 private:
  Mutex mutex_;
  std::set<const void*> kept_ SIOT_GUARDED_BY(mutex_);
};

struct RunContext {
  Stack* stack = nullptr;
  std::uint64_t seed = 0;
  Clock::time_point epoch;
  SnapshotKeeper* keeper = nullptr;
};

class Client {
 public:
  Client(const RunContext& ctx, std::size_t index, std::size_t clients)
      : ctx_(ctx),
        index_(index),
        stream_(*ctx.stack->graph, ctx.seed, index, clients),
        check_rng_(MixSeed(MixSeed(ctx.seed, 0xC4EC), index)) {}

  /// Runs closed-loop calls until `stop`, appending to `log`; `traced`
  /// records spans and the requests the replay needs.
  void Run(const std::atomic<bool>& stop, bool traced, ClientLog& log) {
    traced_ = traced;
    log_ = &log;
    switch (ctx_.stack->spec->kind) {
      case WorkloadKind::kDecide:
        while (!stop.load(std::memory_order_relaxed)) DecideIteration();
        if (!pending_.empty()) FlushReports();
        break;
      case WorkloadKind::kReport:
        while (!stop.load(std::memory_order_relaxed)) ReportIteration();
        break;
      case WorkloadKind::kTransit:
        while (!stop.load(std::memory_order_relaxed)) TransitIteration();
        break;
      case WorkloadKind::kRestart:
        break;
    }
    log_ = nullptr;
  }

 private:
  std::uint64_t NextId() {
    return (static_cast<std::uint64_t>(index_ + 1) << 48) | ++sequence_;
  }

  std::int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - ctx_.epoch)
        .count();
  }

  void Record(Op op, std::uint64_t id, AgentId trustor, Clock::time_point start,
              Clock::time_point end, const Status& status) {
    ++log_->attempted;
    if (!status.ok()) {
      ++log_->failed;
      if (log_->first_error.empty()) {
        log_->first_error = std::string(OpName(op)) + ": " + status.ToString();
      }
    }
    const double us = Micros(end - start);
    switch (op) {
      case Op::kDelegate: log_->delegate_us.push_back(us); break;
      case Op::kPreEvaluate: log_->preeval_us.push_back(us); break;
      case Op::kReport: log_->report_us.push_back(us); break;
      case Op::kTransit: log_->transit_us.push_back(us); break;
      case Op::kRecover:
      case Op::kCatchUp:
      case Op::kPromote: break;
    }
    if (traced_) {
      log_->spans.push_back(
          {id, op,
           static_cast<std::uint32_t>(
               service::ShardIndexForTrustor(trustor, kShards)),
           Ns(start), Ns(end)});
    }
  }

  void FlushReports() {
    TrustService& leader = *ctx_.stack->leader;
    const std::uint64_t id = NextId();
    const auto start = Clock::now();
    const Status status = leader.BatchReportOutcome(pending_);
    const auto end = Clock::now();
    Record(Op::kReport, id, pending_.front().trustor, start, end, status);
    log_->reports_sent += pending_.size();
    if (traced_) log_->report_calls.push_back({id, pending_});
    pending_.clear();
  }

  void DecideIteration() {
    TrustService& leader = *ctx_.stack->leader;
    DelegationServiceRequest request = stream_.NextDelegation();
    const std::uint64_t id = NextId();
    auto start = Clock::now();
    const auto decision = leader.RequestDelegation(request);
    auto end = Clock::now();
    Record(Op::kDelegate, id, request.trustor, start, end, decision.status());
    AgentId chosen = trust::kNoAgent;
    if (decision.ok() && decision->trustee != trust::kNoAgent &&
        decision->trustee != request.trustor) {
      chosen = decision->trustee;
    }
    const AgentId target =
        chosen != trust::kNoAgent ? chosen : request.candidates.front();
    const std::uint64_t pre_id = NextId();
    start = Clock::now();
    const auto pre = leader.PreEvaluate(request.trustor, target, request.task);
    end = Clock::now();
    Record(Op::kPreEvaluate, pre_id, request.trustor, start, end,
           pre.status());
    if (traced_) {
      log_->preevals.push_back(
          {pre_id, {request.trustor, target, request.task}});
    }
    if (chosen != trust::kNoAgent) {
      pending_.push_back(stream_.Outcome(request.trustor, chosen,
                                         request.task));
    }
    if (traced_) log_->delegations.push_back({id, std::move(request)});
    if (pending_.size() >= kReportBatch) FlushReports();
  }

  void SendReport(const OutcomeReport& report) {
    TrustService& leader = *ctx_.stack->leader;
    const std::uint64_t id = NextId();
    const auto start = Clock::now();
    const Status status = leader.ReportOutcome(report);
    const auto end = Clock::now();
    Record(Op::kReport, id, report.trustor, start, end, status);
    ++log_->reports_sent;
    if (traced_) log_->report_calls.push_back({id, {report}});
  }

  void ReportIteration() { SendReport(stream_.NextReport()); }

  void TransitIteration() {
    ReplicaService& follower = *ctx_.stack->follower;
    const TransitiveTrustRequest request = stream_.NextTransit();
    const bool check = check_rng_.NextBounded(kTransitCheckEvery) == 0;
    std::shared_ptr<const trust::VersionedOverlaySnapshot> before;
    if (check) before = follower.CurrentOverlaySnapshot();
    const std::uint64_t id = NextId();
    const auto start = Clock::now();
    const auto answer = follower.TransitiveTrust(request);
    const auto end = Clock::now();
    Record(Op::kTransit, id, request.trustor, start, end, answer.status());
    if (answer.ok()) {
      log_->snapshot_age_ms.push_back(
          static_cast<double>(answer->snapshot_age.count()));
      if (check && before != nullptr && before->version() == answer->version &&
          ctx_.keeper->Admit(before)) {
        log_->transit_samples.push_back({request, answer->result, before});
      }
    }
    if (traced_) log_->transits.push_back({id, request});
    if (index_ == 0 && ++queries_ % kTransitReportEvery == 0) {
      SendReport(stream_.NextReport());
    }
  }

  const RunContext& ctx_;
  std::size_t index_;
  RequestStream stream_;
  Rng check_rng_;
  bool traced_ = false;
  ClientLog* log_ = nullptr;
  std::uint64_t sequence_ = 0;
  std::uint64_t queries_ = 0;
  std::vector<OutcomeReport> pending_;
};

/// Benchmark-driven follower polls and rebuilds (traced runs), with the
/// measurements the follower's own threads would not expose.
struct BackgroundLog {
  std::vector<double> poll_us;
  std::vector<double> frames_per_poll;
  std::vector<double> lag_frames;
  std::vector<double> build_ms;
  std::size_t frames = 0;
  double poll_busy_s = 0.0;
  std::size_t checkpoints = 0;
  std::string poll_error;
  std::string build_error;
};

/// Counts leader checkpoints from outside: every checkpoint atomically
/// replaces a shard's .ckpt file with a fresh inode.
class CheckpointWatcher {
 public:
  explicit CheckpointWatcher(const std::string& dir) : dir_(dir) {
    for (std::size_t s = 0; s < kShards; ++s) inodes_.push_back(Inode(s));
  }
  std::size_t Changes() {
    std::size_t changes = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      const std::uint64_t now = Inode(s);
      if (now != inodes_[s]) {
        ++changes;
        inodes_[s] = now;
      }
    }
    return changes;
  }

 private:
  std::uint64_t Inode(std::size_t shard) const {
    struct ::stat st;
    const std::string path = service::ShardCheckpointPath(dir_, shard);
    return ::stat(path.c_str(), &st) == 0 ? st.st_ino : 0;
  }
  std::string dir_;
  std::vector<std::uint64_t> inodes_;
};

/// Result of running the clients for one phase.
struct Phase {
  double elapsed_s = 0.0;
  std::vector<ClientLog> logs;
  BackgroundLog background;
  service::TrustServiceStats stats_before;
  service::TrustServiceStats stats_after;

  std::uint64_t Attempted() const {
    std::uint64_t n = 0;
    for (const auto& log : logs) n += log.attempted;
    return n;
  }
  std::uint64_t Failed() const {
    std::uint64_t n = 0;
    for (const auto& log : logs) n += log.failed;
    return n;
  }
  template <typename Field>
  std::vector<double> Gather(Field field) const {
    std::vector<double> all;
    for (const auto& log : logs) {
      all.insert(all.end(), (log.*field).begin(), (log.*field).end());
    }
    return all;
  }
};

/// Runs the clients for `seconds`, accumulating into `phase` (a phase may
/// be run in several slices). `drive_follower` polls (and, for transit,
/// rebuilds) the follower from benchmark threads at the follower's own
/// periods — the traced run's configuration, whose follower has no
/// threads of its own. `traced` records spans.
void RunPhase(const RunContext& ctx, std::vector<Client>& clients,
              double seconds, bool drive_follower, bool traced,
              Phase& phase) {
  Stack& stack = *ctx.stack;
  if (phase.logs.empty()) {
    phase.logs.resize(clients.size());
    phase.stats_before = stack.leader->Stats();
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> stop_background{false};
  std::vector<std::thread> threads;
  threads.reserve(clients.size() + 2);
  if (drive_follower) {
    threads.emplace_back([&] {
      CheckpointWatcher watcher(stack.dir);
      BackgroundLog& bg = phase.background;
      while (!stop_background.load()) {
        const auto start = Clock::now();
        const auto polled = stack.follower->PollAll();
        const auto end = Clock::now();
        if (!polled.ok()) {
          bg.poll_error = "PollAll: " + polled.status().ToString();
          break;
        }
        bg.poll_us.push_back(Micros(end - start));
        bg.frames_per_poll.push_back(static_cast<double>(polled.value()));
        bg.frames += polled.value();
        bg.poll_busy_s += Seconds(end - start);
        bg.checkpoints += watcher.Changes();
        if (bg.poll_us.size() % 4 == 0) {
          std::uint64_t lag = 0;
          for (const auto& shard : stack.follower->ReplicationLag()) {
            lag += shard.seq_lag;
          }
          bg.lag_frames.push_back(static_cast<double>(lag));
        }
        std::this_thread::sleep_until(start + kPollPeriod);
      }
    });
    if (stack.spec->kind == WorkloadKind::kTransit) {
      threads.emplace_back([&] {
        auto next = Clock::now() + kRebuildPeriod;
        while (!stop_background.load()) {
          if (Clock::now() < next) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            continue;
          }
          const auto start = Clock::now();
          const Status built = stack.follower->BuildOverlaySnapshot();
          if (!built.ok()) {
            phase.background.build_error = "Build: " + built.ToString();
            break;
          }
          phase.background.build_ms.push_back(Millis(Clock::now() - start));
          next = start + kRebuildPeriod;
        }
      });
    }
  }
  const auto start = Clock::now();
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] { clients[c].Run(stop, traced, phase.logs[c]); });
  }
  std::this_thread::sleep_until(
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds)));
  stop.store(true);
  // Clients first (the elapsed time covers their calls), then background.
  for (std::size_t t = threads.size() - clients.size(); t < threads.size();
       ++t) {
    threads[t].join();
  }
  phase.elapsed_s += Seconds(Clock::now() - start);
  stop_background.store(true);
  for (std::size_t t = 0; t < threads.size() - clients.size(); ++t) {
    threads[t].join();
  }
  phase.stats_after = stack.leader->Stats();
}

// --------------------------------------------------------------- checks --

struct Checks {
  std::vector<std::string> failures;
  std::vector<std::string> passed;
  void Expect(bool ok, const std::string& what) {
    (ok ? passed : failures).push_back(what);
  }
};

/// decide/report/transit: the follower reaches the leader's positions and
/// every shard serializes byte-identically on both.
void CheckReplicaMatchesLeader(Stack& stack, Checks& checks) {
  const auto positions = stack.leader->WalPositions();
  const Status awaited = stack.follower->AwaitPositions(positions, kAwaitTimeout);
  checks.Expect(awaited.ok(), "follower reached leader WalPositions" +
                                  (awaited.ok() ? std::string()
                                                : ": " + awaited.ToString()));
  if (!awaited.ok()) return;
  std::size_t mismatched = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    if (trust::SerializeTrustEngineState(stack.leader->shard_engine(s)) !=
        trust::SerializeTrustEngineState(stack.follower->shard_engine(s))) {
      ++mismatched;
    }
  }
  checks.Expect(mismatched == 0,
                "every shard serializes identically on leader and follower"
                " (" + std::to_string(mismatched) + " differ)");
}

std::string DescribeTransitivity(const trust::TransitivityResult& result) {
  std::string out = std::to_string(result.inquired_nodes) + ":";
  char buffer[64];
  for (const trust::PotentialTrustee& t : result.trustees) {
    std::snprintf(buffer, sizeof(buffer), "%u=%a[", t.agent,
                  t.trustworthiness);
    out += buffer;
    for (const double v : t.per_characteristic) {
      std::snprintf(buffer, sizeof(buffer), "%a,", v);
      out += buffer;
    }
    out += "]";
  }
  return out;
}

/// transit: sampled served answers equal a single-threaded search over the
/// snapshot that served them.
void CheckTransitSamples(const std::vector<ClientLog>& logs, Checks& checks) {
  std::size_t total = 0;
  std::size_t mismatched = 0;
  std::map<const void*, std::unique_ptr<trust::TransitivitySearch>> searches;
  for (const ClientLog& log : logs) {
    for (const TransitSample& sample : log.transit_samples) {
      auto& search = searches[sample.snapshot.get()];
      if (search == nullptr) {
        search = std::make_unique<trust::TransitivitySearch>(
            sample.snapshot->snapshot(), sample.snapshot->catalog(),
            TransitParams());
      }
      const auto reference = search->FindPotentialTrustees(
          sample.request.trustor,
          sample.snapshot->catalog().Get(sample.request.task),
          sample.request.method);
      ++total;
      if (DescribeTransitivity(reference) !=
          DescribeTransitivity(sample.result)) {
        ++mismatched;
      }
    }
  }
  checks.Expect(total > 0 && mismatched == 0,
                std::to_string(total) +
                    " sampled transitive answers equal a single-threaded "
                    "search over their snapshot (" +
                    std::to_string(mismatched) + " differ)");
}

// -------------------------------------------------------------- restart --

/// One restart cycle's timed calls and state checks (trivially copyable:
/// it crosses a pipe).
struct CycleTimes {
  double recover_s = 0.0;
  double catchup_s = 0.0;
  double failover_s = 0.0;
  bool recovered_ok = false;
  bool caught_up_ok = false;
  bool promoted_ok = false;
};

/// Shards whose state differs from the reference, hashed on kCheckThreads
/// threads (the check runs between timed calls, with nothing else busy).
template <typename EngineOf>
std::size_t CountMismatches(const Stack& stack, const EngineOf& engine_of) {
  std::atomic<std::size_t> mismatched{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kCheckThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t s = t; s < kShards; s += kCheckThreads) {
        if (StateHash(engine_of(s)) != stack.reference_hashes[s]) ++mismatched;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return mismatched.load();
}

/// One restart cycle: leader recover → close, follower catch-up, promote →
/// close. Each recovered state is compared with the state before close.
CycleTimes RestartCycle(const Stack& stack) {
  CycleTimes times;
  {
    const auto start = Clock::now();
    auto leader = Must(
        TrustService::Open(ServiceConfig(), LeaderOptions(stack.dir)),
        "recover leader");
    times.recover_s = Seconds(Clock::now() - start);
    times.recovered_ok =
        CountMismatches(stack, [&](std::size_t s) -> const trust::TrustEngine& {
          return leader->shard_engine(s);
        }) == 0;
  }
  const auto start = Clock::now();
  auto follower = Must(
      ReplicaService::Open(ServiceConfig(),
                           FollowerOptions(stack.dir, nullptr, false, false)),
      "open follower");
  Must(follower->AwaitPositions(stack.reference_positions, kAwaitTimeout),
       "follower catch-up");
  times.catchup_s = Seconds(Clock::now() - start);
  times.caught_up_ok =
      CountMismatches(stack, [&](std::size_t s) -> const trust::TrustEngine& {
        return follower->shard_engine(s);
      }) == 0;
  const auto promote_start = Clock::now();
  auto promoted = Must(follower->Promote(LeaderOptions(stack.dir)), "promote");
  times.failover_s = Seconds(Clock::now() - promote_start);
  times.promoted_ok =
      CountMismatches(stack, [&](std::size_t s) -> const trust::TrustEngine& {
        return promoted->shard_engine(s);
      }) == 0;
  return times;
}

/// Runs RestartCycle in a forked child. Every cycle then starts from the
/// heap the set-up left, as each restart of a real process starts afresh.
/// Run one after another in one process, cycles slowed down one after
/// another, each inheriting the heap the ones before it left.
CycleTimes ForkedRestartCycle(const Stack& stack, Checks& checks) {
  int fds[2];
  if (::pipe(fds) != 0) Die("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    const CycleTimes times = RestartCycle(stack);
    const bool sent = ::write(fds[1], &times, sizeof(times)) ==
                      static_cast<ssize_t>(sizeof(times));
    ::_exit(sent ? 0 : 3);
  }
  ::close(fds[1]);
  CycleTimes times;
  std::size_t got = 0;
  while (got < sizeof(times)) {
    const ssize_t n = ::read(fds[0], reinterpret_cast<char*>(&times) + got,
                             sizeof(times) - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || got != sizeof(times)) {
    Die("restart cycle process failed (status " + std::to_string(status) +
        ")");
  }
  checks.Expect(times.recovered_ok,
                "recovered leader state equals the state before close");
  checks.Expect(times.caught_up_ok,
                "caught-up follower state equals the state before close");
  checks.Expect(times.promoted_ok,
                "promoted leader state equals the state before close");
  return times;
}

struct RestartPhase {
  double elapsed_s = 0.0;
  std::vector<CycleTimes> cycles;
  std::vector<RequestSpan> spans;
};

RestartPhase RunRestartPhase(const Stack& stack, double seconds, bool traced,
                             Clock::time_point epoch, Checks& checks) {
  RestartPhase phase;
  const auto start = Clock::now();
  std::uint64_t id = 0;
  double timed_s = 0;
  // Cycles until the timed calls alone have run for `seconds`; the state
  // checks between them are not timed.
  do {
    const auto cycle_start = Clock::now();
    const CycleTimes times = ForkedRestartCycle(stack, checks);
    phase.cycles.push_back(times);
    timed_s += times.recover_s + times.catchup_s + times.failover_s;
    if (traced) {
      // The child's calls laid end to end from the cycle's start (the
      // untimed state checks between them are left out).
      std::int64_t at = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            cycle_start - epoch)
                            .count();
      for (const auto& [op, s] :
           {std::pair{Op::kRecover, times.recover_s},
            std::pair{Op::kCatchUp, times.catchup_s},
            std::pair{Op::kPromote, times.failover_s}}) {
        const auto end = at + static_cast<std::int64_t>(s * 1e9);
        phase.spans.push_back({++id, op, 0, at, end});
        at = end;
      }
    }
  } while (timed_s < seconds);
  phase.elapsed_s = Seconds(Clock::now() - start);
  return phase;
}

// --------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void PrintLatency(const char* name, const std::vector<double>& samples) {
  const LatencySummary summary = Summarize(samples);
  std::printf("  %-18s %s\n", name, DescribeLatency(summary, "us").c_str());
}

void PrintHeader(const Args& args, const HostContext& host,
                 const WorkloadSpec& spec) {
  std::printf("siot e2e benchmark — workload %s, seed %llu, %g s, trace %d\n",
              std::string(spec.name).c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("host: nproc %u, compiler %s, build %s, data fs %s, device "
              "fsync %s\n",
              host.nproc, host.compiler.c_str(), host.build_type.c_str(),
              host.fs_type.c_str(),
              DescribeLatency(host.fsync_us, "us").c_str());
  std::printf("set-up: %zu shards; durable leader (sync_every_append, "
              "group commit off, checkpoint every %zu appends); one "
              "tailing follower (poll %lld ms%s); tasks gps{0} image{1} "
              "traffic{0,1}; theta %.2f on every %zuth agent; graph mean "
              "degree %zu\n",
              kShards, kCheckpointEveryAppends,
              static_cast<long long>(kPollPeriod.count()),
              spec.kind == WorkloadKind::kTransit ? ", rebuild every 2000 ms"
                                                  : "",
              kThreshold, kThresholdStride, kMeanDegree);
  std::printf("load: %zu closed-loop client(s), %zu agents, %zu records%s\n",
              spec.clients, spec.agents, spec.agents * spec.records_per_agent,
              spec.wal_tail_frames > 0
                  ? (" + " + std::to_string(spec.wal_tail_frames) +
                     " WAL tail frames")
                        .c_str()
                  : "");
}

// ---------------------------------------------------------- traced run --

/// One replayed layer call, parented to the client request it replays.
struct LayerSpan {
  std::uint64_t parent = 0;
  std::string layer;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class LayerTimer {
 public:
  explicit LayerTimer(Clock::time_point epoch) : epoch_(epoch) {}

  /// Times `fn` as one call of `metric` (a layer.metric name), parented
  /// to `parent`; returns its duration in microseconds.
  template <typename Fn>
  double Time(const std::string& metric, std::uint64_t parent, Fn&& fn) {
    const auto start = Clock::now();
    fn();
    const auto end = Clock::now();
    spans_.push_back({parent, metric, Ns(start), Ns(end)});
    const double us = Micros(end - start);
    samples_[metric].push_back(us);
    return us;
  }

  const std::vector<double>& Samples(const std::string& metric) const {
    static const std::vector<double> kEmpty;
    const auto it = samples_.find(metric);
    return it == samples_.end() ? kEmpty : it->second;
  }
  double MeanUs(const std::string& metric) const {
    return Mean(Samples(metric));
  }
  const std::vector<LayerSpan>& spans() const { return spans_; }

 private:
  std::int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  Clock::time_point epoch_;
  std::vector<LayerSpan> spans_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Per-layer metric of one §4.3 search method.
std::string SearchMetric(trust::TransitivityMethod method) {
  switch (method) {
    case trust::TransitivityMethod::kTraditional:
      return "transitivity.search_us.traditional";
    case trust::TransitivityMethod::kConservative:
      return "transitivity.search_us.conservative";
    case trust::TransitivityMethod::kAggressive:
      return "transitivity.search_us.aggressive";
  }
  return "transitivity.search_us.unknown";
}

template <typename T>
std::vector<const T*> SampleOf(const std::vector<T>& all, Rng& rng,
                               std::size_t limit = kReplaySample) {
  std::vector<const T*> out;
  for (const std::size_t i :
       rng.SampleWithoutReplacement(all.size(), std::min(all.size(), limit))) {
    out.push_back(&all[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Inputs of the layer replay: the recorded client requests, or — for a
/// call the workload does not make — requests derived from the trustors
/// and reports it does send.
struct ReplayInputs {
  std::vector<RecordedDelegation> delegations;
  std::vector<RecordedPreEvaluate> preevals;
  std::vector<RecordedReports> reports;
  std::vector<RecordedTransit> transits;
  std::set<std::string> derived;  ///< Layers fed derived inputs.
};

ReplayInputs CollectInputs(const Stack& stack,
                           const std::vector<ClientLog>& logs) {
  ReplayInputs in;
  for (const ClientLog& log : logs) {
    in.delegations.insert(in.delegations.end(), log.delegations.begin(),
                          log.delegations.end());
    in.preevals.insert(in.preevals.end(), log.preevals.begin(),
                       log.preevals.end());
    in.reports.insert(in.reports.end(), log.report_calls.begin(),
                      log.report_calls.end());
    in.transits.insert(in.transits.end(), log.transits.begin(),
                       log.transits.end());
  }
  if (in.reports.empty()) {
    // restart sends no client reports: its WAL tail is the report stream.
    std::uint64_t id = 1ull << 62;
    for (const OutcomeReport& report : stack.tail_reports) {
      in.reports.push_back({++id, {report}});
    }
    in.derived.insert("trust_engine.report_us");
    in.derived.insert("wal_codec.encode_us");
  }
  // Trustors the workload actually served, for derived requests.
  std::vector<std::pair<std::uint64_t, std::pair<AgentId, trust::TaskId>>>
      served;
  for (const auto& r : in.delegations) {
    served.push_back({r.id, {r.request.trustor, r.request.task}});
  }
  for (const auto& r : in.transits) {
    served.push_back({r.id, {r.request.trustor, r.request.task}});
  }
  for (const auto& r : in.reports) {
    if (served.size() >= 4 * kReplaySample) break;
    served.push_back({r.id, {r.reports.front().trustor, r.reports.front().task}});
  }
  if (in.delegations.empty()) {
    for (const auto& [id, who] : served) {
      DelegationServiceRequest request;
      request.trustor = who.first;
      request.task = who.second;
      const auto neighbours = stack.graph->Neighbors(who.first);
      request.candidates.assign(neighbours.begin(), neighbours.end());
      in.delegations.push_back({id, std::move(request)});
    }
    in.derived.insert("trust_engine.delegate_us");
    in.derived.insert("trust_engine.estimate_us");
  }
  if (in.preevals.empty()) {
    for (const auto& r : in.reports) {
      const OutcomeReport& first = r.reports.front();
      in.preevals.push_back({r.id, {first.trustor, first.trustee, first.task}});
      if (in.preevals.size() >= 4 * kReplaySample) break;
    }
    in.derived.insert("trust_engine.preeval_us");
  }
  if (in.transits.empty()) {
    std::size_t k = 0;
    for (const auto& [id, who] : served) {
      TransitiveTrustRequest request;
      request.trustor = who.first;
      request.task = who.second;
      request.method = static_cast<trust::TransitivityMethod>(k++ % 3);
      in.transits.push_back({id, request});
    }
    for (const char* method : {"traditional", "conservative", "aggressive"}) {
      in.derived.insert(std::string("transitivity.search_us.") + method);
    }
  }
  return in;
}

/// Per-layer results of the replay.
struct LayerReport {
  std::vector<Metric> json;      ///< BENCHMARK.json per_layer metrics.
  std::vector<Metric> extra;     ///< Printed only.
};

/// The engine-side source of a candidate's estimates (EstimateOutcomes'
/// precedence), classified through the public API.
enum class Source { kDirect, kInferred, kInitial };
Source ClassifySource(const trust::TrustEngine& engine, AgentId trustor,
                      AgentId trustee, trust::TaskId task) {
  if (engine.DirectTrustworthiness(trustor, trustee, task).has_value()) {
    return Source::kDirect;
  }
  const auto inferred =
      trust::InferFromStore(engine.catalog(), engine.store(),
                            engine.normalizer(), trustor, trustee,
                            engine.catalog().Get(task));
  return inferred.ok() ? Source::kInferred : Source::kInitial;
}

void ReplayEngine(const Stack& stack, const ReplayInputs& in, Rng& rng,
                  LayerTimer& timer, LayerReport& report) {
  TrustService& leader = *stack.leader;
  double candidates = 0, requests = 0, refusals = 0, reverse_evals = 0;
  double direct = 0, inferred = 0, initial = 0;
  for (const RecordedDelegation* r : SampleOf(in.delegations, rng)) {
    const auto& request = r->request;
    const trust::TrustEngine& engine =
        leader.shard_engine(leader.ShardOf(request.trustor));
    trust::DelegationRequestResult result;
    timer.Time("trust_engine.delegate_us", r->id, [&] {
      result = engine.RequestDelegation(request.trustor, request.task,
                                        request.candidates,
                                        request.self_estimates);
    });
    timer.Time("trust_engine.estimate_us", r->id, [&] {
      for (const AgentId candidate : request.candidates) {
        const auto estimates =
            engine.EstimateOutcomes(request.trustor, candidate, request.task);
        asm volatile("" : : "g"(&estimates) : "memory");
      }
    });
    ++requests;
    candidates += static_cast<double>(request.candidates.size());
    refusals += static_cast<double>(result.refusals.size());
    reverse_evals += static_cast<double>(result.refusals.size());
    if (result.trustee != trust::kNoAgent && !result.self_execution) {
      ++reverse_evals;
    }
    for (const AgentId candidate : request.candidates) {
      switch (ClassifySource(engine, request.trustor, candidate,
                             request.task)) {
        case Source::kDirect: ++direct; break;
        case Source::kInferred: ++inferred; break;
        case Source::kInitial: ++initial; break;
      }
    }
  }
  for (const RecordedPreEvaluate* r : SampleOf(in.preevals, rng)) {
    const auto& q = r->request;
    const trust::TrustEngine& engine = leader.shard_engine(leader.ShardOf(q.trustor));
    timer.Time("trust_engine.preeval_us", r->id, [&] {
      const double tw = engine.PreEvaluate(q.trustor, q.trustee, q.task);
      asm volatile("" : : "g"(&tw) : "memory");
    });
  }
  // Reports mutate: replay them into scratch copies of the shard engines.
  std::map<std::size_t, trust::TrustEngine> scratch;
  double payload_bytes = 0, payloads = 0;
  for (const RecordedReports* r : SampleOf(in.reports, rng)) {
    for (const OutcomeReport& rep : r->reports) {
      const std::size_t shard = leader.ShardOf(rep.trustor);
      auto it = scratch.find(shard);
      if (it == scratch.end()) {
        it = scratch.emplace(shard, leader.shard_engine(shard)).first;
      }
      trust::TrustEngine& engine = it->second;
      timer.Time("trust_engine.report_us", r->id, [&] {
        engine.ReportOutcome(rep.trustor, rep.trustee, rep.task, rep.outcome,
                             rep.trustor_was_abusive, rep.intermediates);
      });
      std::string payload;
      timer.Time("wal_codec.encode_us", r->id, [&] {
        payload = service::EncodeOutcomeOpBinary(
            rep.trustor, rep.trustee, rep.task, rep.outcome,
            rep.trustor_was_abusive, rep.intermediates);
      });
      payload_bytes += static_cast<double>(payload.size());
      ++payloads;
    }
  }
  const auto us = [&](const char* m) { return timer.MeanUs(m); };
  report.json.push_back({"trust_engine.delegate_us", us("trust_engine.delegate_us"), "us"});
  report.json.push_back({"trust_engine.estimate_us", us("trust_engine.estimate_us"), "us"});
  report.json.push_back({"trust_engine.preeval_us", us("trust_engine.preeval_us"), "us"});
  report.json.push_back({"trust_engine.report_us", us("trust_engine.report_us"), "us"});
  report.json.push_back({"trust_engine.candidates_per_request", candidates / std::max(requests, 1.0), "count"});
  report.json.push_back({"trust_engine.refusal_ratio", refusals / std::max(reverse_evals, 1.0), "ratio"});
  const double sources = std::max(direct + inferred + initial, 1.0);
  report.json.push_back({"trust_engine.source_direct_ratio", direct / sources, "ratio"});
  report.json.push_back({"trust_engine.source_inferred_ratio", inferred / sources, "ratio"});
  report.json.push_back({"trust_engine.source_initial_ratio", initial / sources, "ratio"});
  report.json.push_back({"wal_codec.encode_us", us("wal_codec.encode_us"), "us"});
  report.json.push_back({"wal_codec.payload_bytes", payload_bytes / std::max(payloads, 1.0), "bytes"});
}

void ReplayStorage(const Stack& stack, const ReplayInputs& in,
                   LayerTimer& timer, LayerReport& report) {
  TrustService& leader = *stack.leader;
  // WAL read, frame decode and replay apply over the shards' live WALs.
  double read_ms = 0.0;
  for (std::size_t s = 0; s < kShards; ++s) {
    service::WalContents contents;
    const auto start = Clock::now();
    contents = Must(service::ReadWal(service::ShardWalPath(stack.dir, s)),
                    "read WAL");
    read_ms += Millis(Clock::now() - start);
    trust::TrustEngine scratch = leader.shard_engine(s);
    std::size_t taken = 0;
    for (const service::WalEntry& entry : contents.entries) {
      if (++taken > kReplaySample / 4) break;
      const std::uint64_t parent = (1ull << 61) | (s << 32) | entry.seq;
      timer.Time("wal_codec.decode_us", parent, [&] {
        Must(service::DecodeAnyVersion(entry.payload), "decode frame");
      });
      timer.Time("persistence.replay_apply_us", parent, [&] {
        Must(service::ApplyWalOp(entry.payload, &scratch), "apply frame");
      });
    }
  }
  // The device's share: one encoded report appended to a scratch WAL on
  // the same filesystem, with the flush off and on.
  std::string payload = "x";
  if (!in.reports.empty()) {
    const OutcomeReport& rep = in.reports.front().reports.front();
    payload = service::EncodeOutcomeOpBinary(rep.trustor, rep.trustee,
                                             rep.task, rep.outcome,
                                             rep.trustor_was_abusive,
                                             rep.intermediates);
  }
  {
    const std::string path = stack.dir + "/scratch-probe.wal";
    service::WalWriter writer;
    Must(writer.Open(path, 0), "open scratch WAL");
    const std::vector<std::string> payloads = {payload};
    std::uint64_t seq = 1;
    for (std::size_t i = 0; i < kReplaySample / 4; ++i) {
      timer.Time("persistence.append_us", 0, [&] {
        Must(writer.Append(payloads, seq++, false, {}, 0), "append");
      });
      timer.Time("persistence.fsync_us", 0, [&] {
        Must(writer.Append(payloads, seq++, true, {}, 0), "sync append");
      });
    }
    writer.Close();
    std::filesystem::remove(path);
  }
  // Checkpoint codec per shard, on the leader's current shard states.
  double encode_ms = 0, decode_ms = 0, bytes = 0, records = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    const trust::TrustEngine& engine = leader.shard_engine(s);
    std::string encoded;
    encode_ms += timer.Time("checkpoint_codec.encode_ms", 0, [&] {
      encoded = service::EncodeCheckpointBinary(1, engine, nullptr);
    }) / 1000.0;
    trust::TrustEngine fresh(ServiceConfig().engine);
    std::uint64_t seq = 0;
    decode_ms += timer.Time("checkpoint_codec.decode_ms", 0, [&] {
      Must(service::DecodeCheckpoint(encoded, "replay", &seq, &fresh),
           "decode checkpoint");
    }) / 1000.0;
    bytes += static_cast<double>(encoded.size());
    records += static_cast<double>(engine.store().size());
  }
  // A whole shard checkpoint as the leader writes one (encode, tmp write,
  // fsync, rename, directory fsync, WAL truncate), into a scratch
  // directory on the same filesystem.
  double write_ms = 0;
  {
    service::PersistenceOptions options;
    options.directory = stack.dir + "/checkpoint-probe";
    Must(CreateDirectories(options.directory), "create probe directory");
    for (std::size_t s = 0; s < kShards; ++s) {
      service::ShardPersistence persistence(&options, s);
      trust::TrustEngine empty(ServiceConfig().engine);
      Must(persistence.Recover(&empty), "open probe shard");
      write_ms += timer.Time("persistence.checkpoint_write_ms", 0, [&] {
        Must(persistence.Checkpoint(leader.shard_engine(s)),
             "probe checkpoint");
      }) / 1000.0;
    }
    std::filesystem::remove_all(options.directory);
  }
  report.extra.push_back(
      {"persistence.checkpoint_write_ms", write_ms / kShards, "ms"});
  report.json.push_back({"wal_codec.decode_us", timer.MeanUs("wal_codec.decode_us"), "us"});
  report.json.push_back({"persistence.append_us", timer.MeanUs("persistence.append_us"), "us"});
  report.json.push_back({"persistence.fsync_us", timer.MeanUs("persistence.fsync_us"), "us"});
  report.json.push_back({"persistence.read_wal_ms", read_ms / kShards, "ms"});
  report.json.push_back({"persistence.replay_apply_us", timer.MeanUs("persistence.replay_apply_us"), "us"});
  report.json.push_back({"checkpoint_codec.encode_ms", encode_ms / kShards, "ms"});
  report.json.push_back({"checkpoint_codec.decode_ms", decode_ms / kShards, "ms"});
  report.json.push_back({"checkpoint_codec.bytes_per_record", bytes / std::max(records, 1.0), "bytes"});
}

void ReplayOverlay(const Stack& stack, const ReplayInputs& in, Rng& rng,
                   LayerTimer& timer, LayerReport& report) {
  ReplicaService& follower = *stack.follower;
  // Full build through the service, then the assembly alone from outside
  // over the same follower stores (quiescent: no poll runs now).
  const double build_ms = timer.Time("overlay_serving.build_ms", 0, [&] {
    Must(follower.BuildOverlaySnapshot(), "build overlay");
  }) / 1000.0;
  std::vector<const trust::TrustStore*> stores;
  trust::SnapshotVersion version;
  for (std::size_t s = 0; s < kShards; ++s) {
    stores.push_back(&follower.shard_engine(s).store());
    version.applied_seq.push_back(0);
  }
  const double assembly_ms = timer.Time("overlay_builder.assembly_ms", 0, [&] {
    const trust::ShardedStoreOverlay source(
        stores, follower.shard_engine(0).normalizer(),
        [](AgentId a) { return service::ShardIndexForTrustor(a, kShards); });
    const trust::VersionedOverlaySnapshot built(
        stack.graph, follower.shard_engine(0).catalog(), source, version);
    asm volatile("" : : "g"(&built) : "memory");
  }) / 1000.0;
  // Searches over the served snapshot, sealed as the service seals it.
  const auto snapshot = follower.CurrentOverlaySnapshot();
  trust::TransitivitySearch search(snapshot->snapshot(), snapshot->catalog(),
                                   TransitParams());
  std::vector<trust::TaskId> tasks;
  for (trust::TaskId t = 0; t < snapshot->catalog().size(); ++t) {
    tasks.push_back(t);
  }
  search.PrepareTasks(tasks);
  search.Seal();
  double inquired = 0, found = 0, queries = 0;
  // Searches off the workload's path only inform the table; a smaller
  // sample keeps the traced run of the large workloads short.
  const bool derived = in.derived.count(SearchMetric(
                           trust::TransitivityMethod::kTraditional)) > 0;
  for (const RecordedTransit* r :
       SampleOf(in.transits, rng,
                derived ? kDerivedReplaySample : kReplaySample)) {
    const auto& q = r->request;
    trust::TransitivityResult result;
    timer.Time(SearchMetric(q.method), r->id, [&] {
                 result = search.FindPotentialTrustees(
                     q.trustor, snapshot->catalog().Get(q.task), q.method);
               });
    inquired += static_cast<double>(result.inquired_nodes);
    found += static_cast<double>(result.trustees.size());
    ++queries;
  }
  report.json.push_back({"overlay_serving.build_ms", build_ms, "ms"});
  report.json.push_back({"overlay_builder.assembly_ms", assembly_ms, "ms"});
  report.json.push_back({"overlay_serving.prepare_ms", build_ms - assembly_ms, "ms"});
  for (const char* method : {"traditional", "conservative", "aggressive"}) {
    const std::string name = std::string("transitivity.search_us.") + method;
    report.json.push_back({name, timer.MeanUs(name), "us"});
  }
  report.json.push_back({"transitivity.inquired_nodes", inquired / std::max(queries, 1.0), "count"});
  report.json.push_back({"transitivity.trustees_found", found / std::max(queries, 1.0), "count"});
}

double Find(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  Die("no metric " + name);
}

/// Seconds of the traced phase attributed to each layer: layer time per
/// call × calls made, with the serving layer's residual (end-to-end minus
/// its layer calls) for each client call type.
struct Attribution {
  std::map<std::string, double> seconds;
  std::vector<Metric> residuals;
};

/// Adds the write path of `reports` outcome reports sent in `calls`
/// client calls taking `e2e_us` in total.
void AttributeReports(const LayerReport& layers, const Phase& phase,
                      double reports, double calls, double e2e_us,
                      Attribution& out) {
  if (calls <= 0) return;
  const auto m = [&](const char* name) { return Find(layers.json, name); };
  const double fsyncs = static_cast<double>(phase.stats_after.wal_fsyncs -
                                            phase.stats_before.wal_fsyncs);
  const double checkpoints = static_cast<double>(phase.background.checkpoints);
  const double engine_us = reports * m("trust_engine.report_us");
  const double encode_us = reports * m("wal_codec.encode_us");
  const double flush_us = fsyncs * m("persistence.fsync_us");
  // An inline checkpoint is the codec's encode plus the persistence
  // layer's file writes and flushes.
  const double encode_ms = m("checkpoint_codec.encode_ms");
  const double checkpoint_us = checkpoints * encode_ms * 1e3;
  const double checkpoint_io_us =
      checkpoints *
      std::max(Find(layers.extra, "persistence.checkpoint_write_ms") -
                   encode_ms,
               0.0) *
      1e3;
  out.seconds["trust_engine"] += engine_us / 1e6;
  out.seconds["wal_codec"] += encode_us / 1e6;
  out.seconds["persistence"] += (flush_us + checkpoint_io_us) / 1e6;
  out.seconds["checkpoint_codec"] += checkpoint_us / 1e6;
  const std::vector<LayerTerm> terms = {
      {engine_us / calls, 1}, {encode_us / calls, 1}, {flush_us / calls, 1},
      {checkpoint_us / calls, 1}, {checkpoint_io_us / calls, 1}};
  const double residual = Residual(e2e_us / calls, terms);
  out.seconds["trust_service"] += residual * calls / 1e6;
  out.residuals.push_back({"trust_service.report_residual_us", residual, "us"});
}

Attribution Attribute(const WorkloadSpec& spec, const LayerReport& layers,
                      const Phase& phase, const LayerTimer& timer) {
  Attribution out;
  const auto m = [&](const char* name) { return Find(layers.json, name); };
  const auto total_us = [](const std::vector<double>& v) {
    double sum = 0;
    for (const double x : v) sum += x;
    return sum;
  };
  std::size_t reports = 0;
  for (const auto& log : phase.logs) reports += log.reports_sent;
  const auto report_us = phase.Gather(&ClientLog::report_us);
  if (spec.kind == WorkloadKind::kDecide) {
    const auto delegate_us = phase.Gather(&ClientLog::delegate_us);
    const auto preeval_us = phase.Gather(&ClientLog::preeval_us);
    const double n_del = static_cast<double>(delegate_us.size());
    const double n_pre = static_cast<double>(preeval_us.size());
    out.seconds["trust_engine"] +=
        (n_del * m("trust_engine.delegate_us") +
         n_pre * m("trust_engine.preeval_us")) / 1e6;
    const LayerTerm delegate_term{m("trust_engine.delegate_us"), 1};
    const double delegate_residual =
        Residual(Mean(delegate_us), std::span(&delegate_term, 1));
    const LayerTerm preeval_term{m("trust_engine.preeval_us"), 1};
    const double preeval_residual =
        Residual(Mean(preeval_us), std::span(&preeval_term, 1));
    out.seconds["trust_service"] +=
        (delegate_residual * n_del + preeval_residual * n_pre) / 1e6;
    out.residuals.push_back(
        {"trust_service.delegate_residual_us", delegate_residual, "us"});
    out.residuals.push_back(
        {"trust_service.preeval_residual_us", preeval_residual, "us"});
  }
  if (spec.kind == WorkloadKind::kTransit) {
    const auto transit_us = phase.Gather(&ClientLog::transit_us);
    double search_us = 0;
    for (const auto& log : phase.logs) {
      for (const RecordedTransit& t : log.transits) {
        search_us += timer.MeanUs(SearchMetric(t.request.method));
      }
    }
    out.seconds["transitivity"] += search_us / 1e6;
    out.seconds["overlay_serving"] +=
        (total_us(transit_us) - search_us) / 1e6 +
        total_us(phase.background.build_ms) / 1e3;
  }
  AttributeReports(layers, phase, static_cast<double>(reports),
                   static_cast<double>(report_us.size()), total_us(report_us),
                   out);
  out.seconds["replication"] += phase.background.poll_busy_s;
  return out;
}

/// restart: per cycle, every Open decodes all checkpoints and replays the
/// whole WAL tail; what the replayed layers do not explain is the
/// service's own open/close work.
Attribution AttributeRestart(const LayerReport& layers,
                             const RestartPhase& phase,
                             std::size_t wal_frames) {
  Attribution out;
  const auto m = [&](const char* name) { return Find(layers.json, name); };
  const double frames = static_cast<double>(wal_frames);
  const double decode_s = kShards * m("checkpoint_codec.decode_ms") / 1e3;
  const double codec_s = frames * m("wal_codec.decode_us") / 1e6;
  const double replay_s = kShards * m("persistence.read_wal_ms") / 1e3 +
                          frames * m("persistence.replay_apply_us") / 1e6;
  for (const CycleTimes& cycle : phase.cycles) {
    out.seconds["checkpoint_codec"] += 3 * decode_s;
    out.seconds["wal_codec"] += 3 * codec_s;
    out.seconds["persistence"] += 3 * replay_s;
    out.seconds["trust_service"] +=
        cycle.recover_s - (decode_s + codec_s + replay_s);
    out.seconds["replication"] += cycle.catchup_s + cycle.failover_s -
                                  2 * (decode_s + codec_s + replay_s);
  }
  return out;
}

struct Prediction {
  std::set<std::string> layers;
  const char* text;
};

Prediction Predicted(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kDecide: return {{"trust_engine"}, "trust_engine"};
    case WorkloadKind::kReport:
      return {{"persistence"}, "persistence (fsync)"};
    case WorkloadKind::kTransit:
      return {{"transitivity", "overlay_serving"},
              "transitivity and overlay_serving"};
    case WorkloadKind::kRestart:
      return {{"checkpoint_codec", "persistence", "wal_codec"},
              "checkpoint_codec decode plus WAL replay"};
  }
  return {{}, ""};
}

void PrintLayerTable(const WorkloadSpec& spec, const LayerReport& layers,
                     const std::vector<Metric>& extra,
                     const Attribution& attribution,
                     const std::set<std::string>& derived) {
  std::printf("\nper-layer table — %s (replayed public calls; * = inputs "
              "derived from this workload's trustors, not on its path)\n",
              std::string(spec.name).c_str());
  for (const Metric& metric : layers.json) {
    std::printf("  %-40s %14.3f %-6s%s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), derived.count(metric.name) ? " *" : "");
  }
  for (const std::vector<Metric>* list : {&layers.extra, &extra}) {
    for (const Metric& metric : *list) {
      std::printf("  %-40s %14.3f %-6s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  double total = 0;
  for (const auto& [layer, s] : attribution.seconds) total += std::max(s, 0.0);
  std::printf("\nattributed time over the traced phase (layer time per call "
              "x calls; residual -> the calling service):\n");
  std::vector<std::pair<double, std::string>> ranked;
  for (const auto& [layer, s] : attribution.seconds) {
    ranked.push_back({s, layer});
    std::printf("  %-20s %10.4f s %6.1f%%\n", layer.c_str(), s,
                total > 0 ? 100.0 * std::max(s, 0.0) / total : 0.0);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  const Prediction prediction = Predicted(spec.kind);
  const bool confirmed =
      !ranked.empty() && prediction.layers.count(ranked.front().second) > 0;
  std::printf("dominant layer: %s (%.1f%%); predicted: %s -> %s\n",
              ranked.empty() ? "none" : ranked.front().second.c_str(),
              ranked.empty() || total <= 0
                  ? 0.0
                  : 100.0 * ranked.front().first / total,
              prediction.text, confirmed ? "confirmed" : "MISMATCH");
}

void WriteSpans(const std::string& path,
                const std::vector<RequestSpan>& requests,
                const std::vector<LayerSpan>& layer_spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) Die("cannot write " + path);
  for (const RequestSpan& s : requests) {
    std::fprintf(file,
                 "{\"kind\": \"request\", \"id\": %llu, \"op\": \"%s\", "
                 "\"shard\": %u, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 static_cast<unsigned long long>(s.id), OpName(s.op), s.shard,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  for (const LayerSpan& s : layer_spans) {
    std::fprintf(file,
                 "{\"kind\": \"layer\", \"parent\": %llu, \"layer\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 static_cast<unsigned long long>(s.parent), s.layer.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fclose(file);
}

// ----------------------------------------------------------------- runs --

std::string RunDir(const Args& args, const char* role) {
  return args.data_dir + "/" + args.workload + "-s" +
         std::to_string(args.seed) + "-p" + std::to_string(::getpid()) + "-" +
         role;
}

void PrintChecks(const Checks& checks) {
  std::printf("\noutput checks:\n");
  std::map<std::string, std::size_t> passed;
  for (const auto& p : checks.passed) ++passed[p];
  for (const auto& [what, n] : passed) {
    std::printf("  ok   %s%s\n", what.c_str(),
                n > 1 ? (" (x" + std::to_string(n) + ")").c_str() : "");
  }
  for (const auto& f : checks.failures) std::printf("  FAIL %s\n", f.c_str());
}

int Finish(const Checks& checks, std::uint64_t attempted,
           std::uint64_t failed, const std::vector<Metric>& metrics) {
  PrintChecks(checks);
  const bool correct = checks.failures.empty() && failed == 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

int RunUntraced(const Args& args, const WorkloadSpec& spec) {
  // Several full set-ups (more when they are short, whose times spread
  // more); the last one is measured.
  std::vector<double> setups;
  Stack stack;
  const std::string dir = RunDir(args, "run");
  std::size_t repeats = kSetupRepeats;
  for (std::size_t i = 0; i < repeats; ++i) {
    stack = Stack();
    double setup_s = 0;
    stack = SetUp(spec, args.seed, dir, /*own_threads=*/true, &setup_s);
    setups.push_back(setup_s);
    if (setup_s < kShortSetupSeconds) repeats = kShortSetupRepeats;
  }
  CheckSizes(stack);
  std::printf("setup_s            %.3f s (median of %zu set-ups; graph "
              "generation %.3f s)\n",
              Median(setups), setups.size(), stack.graph_s);
  Checks checks;
  std::vector<Metric> metrics = {{"setup_s", Median(setups), "s"}};
  std::uint64_t attempted = 0, failed = 0;
  if (spec.kind == WorkloadKind::kRestart) {
    const RestartPhase phase =
        RunRestartPhase(stack, args.seconds, false, Clock::now(), checks);
    std::vector<double> recover, catchup, failover, cycle;
    for (const CycleTimes& c : phase.cycles) {
      recover.push_back(c.recover_s);
      catchup.push_back(c.catchup_s);
      failover.push_back(c.failover_s);
      cycle.push_back((c.recover_s + c.catchup_s + c.failover_s) * 1e6);
    }
    attempted = 3 * phase.cycles.size();
    // Tens of cycles fit in a run: the median cycle spreads less than
    // their mean.
    const double ops = 3.0 / (Median(cycle) / 1e6);
    std::printf("ops_per_s          %.3f 1/s (Open, catch-up and Promote "
                "over the median cycle)\n", ops);
    std::printf("failed_op_ratio    0 (0 of %llu)\n",
                static_cast<unsigned long long>(attempted));
    std::printf("recover_s          %.4f s median (n=%zu)\n", Median(recover),
                recover.size());
    std::printf("catchup_s          %.4f s median (n=%zu)\n", Median(catchup),
                catchup.size());
    std::printf("failover_s         %.4f s median (n=%zu)\n",
                Median(failover), failover.size());
    std::printf("cycle_s           ");
    for (const double c : cycle) std::printf(" %.3f", c / 1e6);
    std::printf("\n");
    metrics.push_back({"ops_per_s", ops, "1/s"});
  } else {
    RunContext ctx;
    ctx.stack = &stack;
    ctx.seed = args.seed;
    ctx.epoch = Clock::now();
    SnapshotKeeper keeper;
    ctx.keeper = &keeper;
    std::vector<Client> clients;
    for (std::size_t c = 0; c < spec.clients; ++c) {
      clients.emplace_back(ctx, c, spec.clients);
    }
    Phase phase;
    RunPhase(ctx, clients, args.seconds, false, false, phase);
    attempted = phase.Attempted();
    failed = phase.Failed();
    for (const auto& log : phase.logs) {
      if (!log.first_error.empty()) {
        std::printf("first failure: %s\n", log.first_error.c_str());
      }
    }
    const double ops = static_cast<double>(attempted - failed) / phase.elapsed_s;
    std::printf("ops_per_s          %.1f 1/s (%llu calls in %.3f s)\n", ops,
                static_cast<unsigned long long>(attempted), phase.elapsed_s);
    std::printf("failed_op_ratio    %g (%llu of %llu)\n",
                attempted ? static_cast<double>(failed) / attempted : 0.0,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    const auto delegate = phase.Gather(&ClientLog::delegate_us);
    const auto preeval = phase.Gather(&ClientLog::preeval_us);
    const auto report = phase.Gather(&ClientLog::report_us);
    const auto transit = phase.Gather(&ClientLog::transit_us);
    switch (spec.kind) {
      case WorkloadKind::kDecide:
        std::printf("delegate_*_us      ");
        PrintLatency("", delegate);
        std::printf("preeval_*_us       ");
        PrintLatency("", preeval);
        std::printf("report_*_us        ");
        PrintLatency("(batch of 64)", report);
        break;
      case WorkloadKind::kReport:
        std::printf("report_*_us        ");
        PrintLatency("", report);
        break;
      case WorkloadKind::kTransit:
        std::printf("transit_*_us       ");
        PrintLatency("", transit);
        std::printf("leader report_*_us ");
        PrintLatency("", report);
        break;
      case WorkloadKind::kRestart:
        break;
    }
    metrics.push_back({"ops_per_s", ops, "1/s"});
    const auto stats = stack.leader->Stats();
    std::printf("leader: %llu reports, %llu fsyncs, %llu coalesced\n",
                static_cast<unsigned long long>(
                    stats.outcome_reports - phase.stats_before.outcome_reports),
                static_cast<unsigned long long>(
                    stats.wal_fsyncs - phase.stats_before.wal_fsyncs),
                static_cast<unsigned long long>(
                    stats.wal_syncs_coalesced -
                    phase.stats_before.wal_syncs_coalesced));
    CheckReplicaMatchesLeader(stack, checks);
    if (spec.kind == WorkloadKind::kTransit) {
      CheckTransitSamples(phase.logs, checks);
    }
  }
  checks.Expect(failed == 0, "failed_op_ratio is 0");
  stack.follower.reset();
  stack.leader.reset();
  std::filesystem::remove_all(dir);
  return Finish(checks, attempted, failed, metrics);
}

int RunTraced(const Args& args, const WorkloadSpec& spec) {
  const std::string dir = RunDir(args, "traced");
  double setup_s = 0;
  Stack stack = SetUp(spec, args.seed, dir, /*own_threads=*/false, &setup_s);
  CheckSizes(stack);
  Checks checks;
  const Clock::time_point epoch = Clock::now();
  const double half = args.seconds / 2;
  LayerTimer timer(epoch);
  LayerReport layers;
  std::vector<Metric> extra;
  std::vector<RequestSpan> request_spans;
  Rng replay_rng(MixSeed(args.seed, 0x5EB1));
  std::uint64_t attempted = 0, failed = 0;
  double overhead = 0;
  Attribution attribution;
  ReplayInputs inputs;
  if (spec.kind == WorkloadKind::kRestart) {
    const RestartPhase plain = RunRestartPhase(stack, half, false, epoch, checks);
    const RestartPhase traced = RunRestartPhase(stack, half, true, epoch, checks);
    const auto rate = [](const RestartPhase& p) {
      return 3.0 * static_cast<double>(p.cycles.size()) / p.elapsed_s;
    };
    overhead = rate(plain) / rate(traced) - 1;
    attempted = 3 * (plain.cycles.size() + traced.cycles.size());
    request_spans = traced.spans;
    // Layer replay needs shard engines and a follower: recover both.
    stack.leader = Must(
        TrustService::Open(ServiceConfig(), LeaderOptions(stack.dir)),
        "recover leader");
    service::ReplicaOptions options =
        FollowerOptions(stack.dir, stack.graph, false, true);
    options.max_frames_per_poll = 512;
    stack.follower = Must(ReplicaService::Open(ServiceConfig(), options),
                          "open follower");
    std::vector<double> poll_us, frames;
    for (;;) {
      const auto start = Clock::now();
      const std::size_t applied =
          Must(stack.follower->PollAll(), "catch-up poll");
      poll_us.push_back(Micros(Clock::now() - start));
      frames.push_back(static_cast<double>(applied));
      if (applied == 0) break;
    }
    inputs = CollectInputs(stack, {});
    ReplayEngine(stack, inputs, replay_rng, timer, layers);
    ReplayStorage(stack, inputs, timer, layers);
    ReplayOverlay(stack, inputs, replay_rng, timer, layers);
    layers.json.push_back({"replication.poll_us", Mean(poll_us), "us"});
    layers.json.push_back({"replication.frames_per_poll", Mean(frames), "count"});
    attribution = AttributeRestart(layers, traced, stack.tail_reports.size());
  } else {
    RunContext ctx;
    ctx.stack = &stack;
    ctx.seed = args.seed;
    ctx.epoch = epoch;
    SnapshotKeeper keeper;
    ctx.keeper = &keeper;
    std::vector<Client> clients;
    for (std::size_t c = 0; c < spec.clients; ++c) {
      clients.emplace_back(ctx, c, spec.clients);
    }
    // Untraced and traced slices in ABBA order, so a drift of the state
    // over the run (records accumulate) cancels out of the overhead.
    Phase plain, traced;
    const double quarter = args.seconds / 4;
    RunPhase(ctx, clients, quarter, true, false, plain);
    RunPhase(ctx, clients, quarter, true, true, traced);
    RunPhase(ctx, clients, quarter, true, true, traced);
    RunPhase(ctx, clients, quarter, true, false, plain);
    const auto rate = [](const Phase& p) {
      return static_cast<double>(p.Attempted()) / p.elapsed_s;
    };
    overhead = rate(plain) / rate(traced) - 1;
    attempted = plain.Attempted() + traced.Attempted();
    failed = plain.Failed() + traced.Failed();
    for (const Phase* p : {&plain, &traced}) {
      for (const std::string* error :
           {&p->background.poll_error, &p->background.build_error}) {
        if (!error->empty()) checks.Expect(false, *error);
      }
    }
    for (const auto& log : traced.logs) {
      request_spans.insert(request_spans.end(), log.spans.begin(),
                           log.spans.end());
    }
    CheckReplicaMatchesLeader(stack, checks);
    if (spec.kind == WorkloadKind::kTransit) {
      std::vector<ClientLog> all = plain.logs;
      all.insert(all.end(), traced.logs.begin(), traced.logs.end());
      CheckTransitSamples(all, checks);
    }
    inputs = CollectInputs(stack, traced.logs);
    ReplayEngine(stack, inputs, replay_rng, timer, layers);
    ReplayStorage(stack, inputs, timer, layers);
    ReplayOverlay(stack, inputs, replay_rng, timer, layers);
    const BackgroundLog& bg = traced.background;
    layers.json.push_back({"replication.poll_us", Mean(bg.poll_us), "us"});
    layers.json.push_back(
        {"replication.frames_per_poll", Mean(bg.frames_per_poll), "count"});
    attribution = Attribute(spec, layers, traced, timer);
    const auto& before = traced.stats_before;
    const auto& after = traced.stats_after;
    const double reports =
        static_cast<double>(after.outcome_reports - before.outcome_reports);
    const double requests =
        static_cast<double>(after.wal_sync_requests - before.wal_sync_requests);
    extra = attribution.residuals;
    extra.push_back({"persistence.fsyncs_per_report",
                     static_cast<double>(after.wal_fsyncs - before.wal_fsyncs) /
                         std::max(reports, 1.0),
                     "count"});
    extra.push_back({"persistence.syncs_coalesced_ratio",
                     static_cast<double>(after.wal_syncs_coalesced -
                                         before.wal_syncs_coalesced) /
                         std::max(requests, 1.0),
                     "ratio"});
    extra.push_back({"persistence.checkpoints",
                     static_cast<double>(bg.checkpoints), "count"});
    extra.push_back({"replication.apply_frames_per_s",
                     bg.poll_busy_s > 0 ? bg.frames / bg.poll_busy_s : 0.0,
                     "1/s"});
    const LatencySummary lag = Summarize(bg.lag_frames);
    extra.push_back({lag.p99 ? "replication.lag_frames_p99"
                             : "replication.lag_frames_p50",
                     lag.p99.value_or(lag.p50), "count"});
    if (spec.kind == WorkloadKind::kTransit) {
      const LatencySummary age =
          Summarize(traced.Gather(&ClientLog::snapshot_age_ms));
      extra.push_back({"overlay_serving.snapshot_age_p99_ms",
                       age.p99.value_or(age.p50), "ms"});
      extra.push_back({"overlay_serving.rebuilds",
                       static_cast<double>(bg.build_ms.size()), "count"});
    }
  }
  layers.json.push_back({"graph.generate_s", stack.graph_s, "s"});
  layers.json.push_back({"trace.overhead_ratio", overhead, "ratio"});
  checks.Expect(failed == 0, "failed_op_ratio is 0");
  PrintLayerTable(spec, layers, extra, attribution, inputs.derived);
  Must(CreateDirectories(args.trace_dir), "create trace directory");
  const std::string trace_path = args.trace_dir + "/" + args.workload +
                                 "-seed" + std::to_string(args.seed) +
                                 ".jsonl";
  WriteSpans(trace_path, request_spans, timer.spans());
  std::printf("spans: %zu request + %zu layer spans written to %s\n",
              request_spans.size(), timer.spans().size(), trace_path.c_str());
  stack.follower.reset();
  stack.leader.reset();
  std::filesystem::remove_all(dir);
  return Finish(checks, std::max<std::uint64_t>(attempted, 1), failed,
                layers.json);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  HostContext host;
  host.nproc = std::thread::hardware_concurrency();
  CheckGuards(host);
  Must(CreateDirectories(args.data_dir), "create data directory");
  host.fs_type = FilesystemType(args.data_dir);
  host.fsync_us = FsyncProbe(args.data_dir);
  PrintHeader(args, host, spec);
  return args.trace ? RunTraced(args, spec) : RunUntraced(args, spec);
}

}  // namespace
}  // namespace siot::e2e

int main(int argc, char** argv) { return siot::e2e::Main(argc, argv); }
