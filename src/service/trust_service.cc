// Copyright 2026 The siot-trust Authors.

#include "service/trust_service.h"

#include <cmath>
#include <unordered_map>
#include <utility>

#include "common/file_util.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace siot::service {

TrustService::TrustService(TrustServiceConfig config)
    : core_(config.shard_count, config.engine) {}

// ----------------------------------------------------------- durability --

/// The manifest pins everything recovery correctness depends on: the
/// shard count (ShardOf must route every trustor to the shard whose WAL
/// holds its history) and the engine configuration (WAL replay re-runs
/// the update equations; different β or environment handling would
/// silently diverge from the pre-restart state).
std::string BuildServiceManifest(std::size_t shard_count,
                                 const TrustServiceConfig& config) {
  const trust::TrustEngineConfig& e = config.engine;
  std::string out = "siot-manifest 1\n";
  out += StrFormat("shards %zu\n", shard_count);
  out += StrFormat("normalization %d\n", static_cast<int>(e.normalization));
  out += StrFormat("value_bound %.17g\n", e.value_bound);
  out += StrFormat("beta %.17g %.17g %.17g %.17g\n", e.beta.success_rate,
                   e.beta.gain, e.beta.damage, e.beta.cost);
  out += StrFormat("strategy %d\n", static_cast<int>(e.strategy));
  out += StrFormat("default_theta %.17g\n", e.default_theta);
  out += StrFormat("initial_estimates %.17g %.17g %.17g %.17g\n",
                   e.initial_estimates.success_rate, e.initial_estimates.gain,
                   e.initial_estimates.damage, e.initial_estimates.cost);
  out += StrFormat("environment_aware %d\n", e.environment_aware ? 1 : 0);
  out += StrFormat("environment_aggregation %d\n",
                   static_cast<int>(e.environment_aggregation));
  return out;
}

Status CheckServiceManifest(const std::string& directory,
                            std::size_t shard_count,
                            const TrustServiceConfig& config, bool create) {
  const std::string manifest = BuildServiceManifest(shard_count, config);
  const std::string manifest_path = ManifestPath(directory);
  if (!FileExists(manifest_path)) {
    if (create) return WriteFileAtomic(manifest_path, manifest);
    return Status::FailedPrecondition(
        "directory " + directory +
        " has no manifest — a replica follows a directory a leader "
        "initialized; it never creates one");
  }
  SIOT_ASSIGN_OR_RETURN(const std::string existing,
                        ReadFileToString(manifest_path));
  if (existing != manifest) {
    return Status::InvalidArgument(
        "directory " + directory +
        " was created under a different service configuration (shard "
        "count or engine config); recovering or replaying under it "
        "would silently diverge");
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<TrustService>> TrustService::Open(
    const TrustServiceConfig& config, const PersistenceOptions& options) {
  SIOT_ASSIGN_OR_RETURN(std::unique_ptr<TrustService> service,
                        Prepare(config, options, DirectoryLock()));
  // The service holds the fence, so every shard's log is static: each
  // one restores its checkpoint and drains its log concurrently, under
  // its own (uncontended) lock, through the reader a follower tails with.
  std::vector<std::unique_ptr<ShardLogReader>> readers(service->shard_count());
  std::vector<ShardLogPosition> positions(service->shard_count());
  std::vector<AdminState> admin(service->shard_count());
  SIOT_RETURN_IF_ERROR(ForEachIndexConcurrently(
      service->shard_count(), [&](std::size_t s) -> Status {
        Shard& shard = service->core_.shard(s);
        const WriterLock lock(&shard.mutex);
        readers[s] = std::make_unique<ShardLogReader>(options.directory, s);
        SIOT_RETURN_IF_ERROR(
            readers[s]->Read(&shard.engine, BadFramePolicy::kCutTail)
                .status());
        positions[s] = readers[s]->position();
        admin[s] = AdminState(shard.engine);
        return Status::OK();
      }));
  SIOT_RETURN_IF_ERROR(service->ResumeWriters(positions, admin));
  // The admin writes a crash left half-replicated, now logged, reach the
  // engines the way every frame does: through the reader.
  for (std::size_t s = 0; s < service->shard_count(); ++s) {
    Shard& shard = service->core_.shard(s);
    const WriterLock lock(&shard.mutex);
    SIOT_RETURN_IF_ERROR(
        readers[s]->Read(&shard.engine, BadFramePolicy::kCutTail).status());
    service->core_.NoteCatalogLocked(shard);
  }
  return service;
}

StatusOr<std::unique_ptr<TrustService>> TrustService::OpenForAdoption(
    const TrustServiceConfig& config, const PersistenceOptions& options,
    DirectoryLock fence, std::span<const ShardLogPosition> positions,
    std::span<const AdminState> admin) {
  SIOT_ASSIGN_OR_RETURN(std::unique_ptr<TrustService> service,
                        Prepare(config, options, std::move(fence)));
  if (positions.size() != service->shard_count() ||
      admin.size() != service->shard_count()) {
    return Status::InvalidArgument(StrFormat(
        "adoption names %zu positions and %zu admin states for %zu shards",
        positions.size(), admin.size(), service->shard_count()));
  }
  SIOT_RETURN_IF_ERROR(service->ResumeWriters(positions, admin));
  return service;
}

void TrustService::AdoptEngines(std::vector<trust::TrustEngine> engines) {
  core_.ExchangeEngines(engines);
}

StatusOr<std::unique_ptr<TrustService>> TrustService::Prepare(
    const TrustServiceConfig& config, const PersistenceOptions& options,
    DirectoryLock fence) {
  if (options.directory.empty()) {
    return Status::InvalidArgument("persistence directory is empty");
  }
  SIOT_RETURN_IF_ERROR(CreateDirectories(options.directory));
  std::unique_ptr<TrustService> service(new TrustService(config));
  // One live service per directory: concurrent appenders would
  // interleave WAL sequence numbers and wreck recovery. A promote hands
  // in the fence it already holds; everyone else acquires here.
  if (fence.held()) {
    // A fence for some OTHER directory would skip the acquire while
    // protecting nothing — the exact double-appender scenario the LOCK
    // exists to prevent.
    if (fence.directory() != options.directory) {
      return Status::InvalidArgument(
          "the pre-acquired fence locks '" + fence.directory() +
          "' but Open was asked for '" + options.directory + "'");
    }
    service->directory_lock_ = std::move(fence);
  } else {
    SIOT_RETURN_IF_ERROR(
        service->directory_lock_.Acquire(options.directory));
  }
  service->persistence_ = options;
  SIOT_RETURN_IF_ERROR(CheckServiceManifest(
      options.directory, service->shard_count(), config, /*create=*/true));
  for (std::size_t s = 0; s < service->shard_count(); ++s) {
    Shard& shard = service->core_.shard(s);
    // Uncontended (nothing else sees the service yet); keeps the guarded
    // access provable.
    const WriterLock lock(&shard.mutex);
    shard.persist =
        std::make_unique<ShardPersistence>(&service->persistence_, s);
  }
  return service;
}

Status TrustService::ResumeWriters(std::span<const ShardLogPosition> positions,
                                   std::span<const AdminState> admin) {
  for (std::size_t s = 0; s < shard_count(); ++s) {
    Shard& shard = core_.shard(s);
    const WriterLock lock(&shard.mutex);
    SIOT_RETURN_IF_ERROR(shard.persist->Resume(positions[s]));
  }
  // One sync makes every WAL file a first boot created durable.
  SIOT_RETURN_IF_ERROR(SyncDirectory(persistence_.directory));
  return LogMissingAdminOps(admin);
}

TrustService::AdminState::AdminState(const trust::TrustEngine& engine)
    : catalog(engine.catalog()),
      thresholds(engine.reverse_evaluator().AllThresholds()),
      indicators(engine.environment().AllIndicators()) {}

namespace {

/// The admin ops `lagging` (shard `shard`) misses against `authority`
/// (shard 0): catalog entries, thresholds and indicators, as WAL payloads.
StatusOr<std::vector<std::string>> MissingAdminOps(
    const TrustService::AdminState& authority,
    const TrustService::AdminState& lagging, std::size_t shard) {
  if (lagging.catalog.size() > authority.catalog.size()) {
    return Status::Corruption(StrFormat(
        "shard %zu recovered %zu catalog tasks but shard 0 has %zu — "
        "admin replication always reaches shard 0 first",
        shard, lagging.catalog.size(), authority.catalog.size()));
  }
  std::vector<std::string> ops;
  for (auto id = static_cast<trust::TaskId>(lagging.catalog.size());
       id < authority.catalog.size(); ++id) {
    const trust::Task& task = authority.catalog.Get(id);
    std::vector<trust::CharacteristicId> characteristics;
    characteristics.reserve(task.parts().size());
    for (const trust::WeightedCharacteristic& part : task.parts()) {
      characteristics.push_back(part.id);
    }
    ops.push_back(EncodeTaskOpBinary(task.name(), characteristics));
  }
  const auto pack = [](trust::AgentId a, trust::TaskId t) {
    return (static_cast<std::uint64_t>(a) << 32) | t;
  };
  std::unordered_map<std::uint64_t, double> have;
  for (const trust::ThresholdEntry& entry : lagging.thresholds) {
    have.emplace(pack(entry.trustee, entry.task), entry.theta);
  }
  for (const trust::ThresholdEntry& entry : authority.thresholds) {
    const auto it = have.find(pack(entry.trustee, entry.task));
    if (it == have.end() || it->second != entry.theta) {
      ops.push_back(
          EncodeThetaOpBinary(entry.trustee, entry.task, entry.theta));
    }
  }
  std::unordered_map<trust::AgentId, double> have_env(
      lagging.indicators.begin(), lagging.indicators.end());
  for (const auto& [agent, indicator] : authority.indicators) {
    const auto it = have_env.find(agent);
    if (it == have_env.end() || it->second != indicator) {
      ops.push_back(EncodeEnvOpBinary(agent, indicator));
    }
  }
  return ops;
}

}  // namespace

Status TrustService::LogMissingAdminOps(std::span<const AdminState> admin) {
  for (std::size_t s = 1; s < shard_count(); ++s) {
    SIOT_ASSIGN_OR_RETURN(const std::vector<std::string> ops,
                          MissingAdminOps(admin[0], admin[s], s));
    Shard& shard = core_.shard(s);
    const WriterLock lock(&shard.mutex);
    SIOT_RETURN_IF_ERROR(  // No-op when empty.
        shard.persist->Log(ops, persistence_.sync_every_append));
  }
  return Status::OK();
}

Status TrustService::Checkpoint() {
  if (!persistent()) {
    return Status::FailedPrecondition(
        "service was not opened with persistence");
  }
  for (std::size_t s = 0; s < shard_count(); ++s) {
    Shard& shard = core_.shard(s);
    const WriterLock lock(&shard.mutex);
    SIOT_RETURN_IF_ERROR(shard.persist->Checkpoint(shard.engine));
  }
  return Status::OK();
}

void TrustService::RecordBackgroundFailure(const Status& status) {
  SIOT_LOG_WARN("inline checkpoint failed: %s", status.ToString().c_str());
  const MutexLock lock(&background_mutex_);
  if (background_status_.ok()) background_status_ = status;
}

Status TrustService::background_status() const {
  const MutexLock lock(&background_mutex_);
  return background_status_;
}

// --------------------------------------------------------------- writes --

template <typename Apply>
Status TrustService::WriteShards(std::span<const ShardWrite> writes,
                                 bool lead_shard_durable_first,
                                 const Apply& apply) {
  const bool sync = persistence_.sync_every_append;
  std::vector<std::size_t> grouped;
  std::vector<int> grouped_fds;
  for (std::size_t k = 0; k < writes.size(); ++k) {
    Shard& shard = core_.shard(writes[k].shard);
    const WriterLock lock(&shard.mutex);
    if (shard.persist) {
      const bool inline_sync =
          writes.size() == 1 || (lead_shard_durable_first && k == 0);
      // One frame batch per shard: a torn tail drops whole trailing
      // records, never half a record.
      if (Status logged =
              shard.persist->Log(writes[k].payloads, sync && inline_sync);
          !logged.ok()) {
        degraded_.store(true, std::memory_order_release);
        return logged;
      }
      if (sync && !inline_sync) {
        grouped.push_back(writes[k].shard);
        grouped_fds.push_back(shard.persist->wal_fd());
      }
    }
    apply(shard);
    if (shard.persist && persistence_.checkpoint_every_appends != 0 &&
        shard.persist->appends_since_checkpoint() >=
            persistence_.checkpoint_every_appends) {
      // The write is logged and applied (its seal fsyncs the segment a
      // round still owes), so a failed checkpoint costs recovery time,
      // not correctness.
      const Status status = shard.persist->Checkpoint(shard.engine);
      if (!status.ok()) RecordBackgroundFailure(status);
    }
  }
  if (grouped.empty()) return Status::OK();
  Status synced = group_committer_.Sync(grouped_fds, persistence_.fault_hook,
                                        grouped.front());
  if (!synced.ok()) {
    // The round's durability is unknown on EVERY enrolled shard; poison
    // each writer (under its lock — appenders hold it) exactly as a
    // failed inline fsync would have, then degrade the whole service.
    for (const std::size_t s : grouped) {
      Shard& shard = core_.shard(s);
      const WriterLock lock(&shard.mutex);
      shard.persist->Poison();
    }
    degraded_.store(true, std::memory_order_release);
  }
  return synced;
}

template <typename Apply>
Status TrustService::WriteEveryShard(const std::string& op,
                                     const Apply& apply) {
  std::vector<ShardWrite> writes(shard_count());
  for (std::size_t s = 0; s < shard_count(); ++s) {
    writes[s] = {s, {op}};
  }
  return WriteShards(writes, /*lead_shard_durable_first=*/true,
                     [&](Shard& shard) {
                       shard.mutex.AssertHeld();  // WriteShards holds it.
                       apply(shard.engine);
                       core_.NoteCatalogLocked(shard);
                     });
}

Status TrustService::CheckNotDegraded() const {
  if (degraded()) {
    return Status::FailedPrecondition(
        "a WAL append failed earlier; the service refuses further "
        "mutations (replicas may be divergent) — restart to recover");
  }
  return Status::OK();
}

// ------------------------------------------------------------- control --

StatusOr<trust::TaskId> TrustService::RegisterTask(
    const std::string& name,
    const std::vector<trust::CharacteristicId>& characteristics) {
  SIOT_RETURN_IF_ERROR(CheckNotDegraded());
  const MutexLock admin(&admin_mutex_);
  // Validate up front so a rejected registration (duplicate name, bad
  // characteristics) leaves every catalog unchanged, the replicas stay
  // identical, and — in durable mode — nothing reaches a WAL. Once
  // validation passes, every per-shard AddUniform must succeed.
  {
    const Shard& shard0 = core_.shard(0);
    const ReaderLock lock(&shard0.mutex);
    if (shard0.engine.catalog().FindByName(name).ok()) {
      return Status::AlreadyExists("task name '" + name +
                                   "' already used");
    }
  }
  {
    const auto probe = trust::Task::CreateUniform(0, name, characteristics);
    if (!probe.ok()) return probe.status();
  }
  trust::TaskId id = trust::kNoTask;
  SIOT_RETURN_IF_ERROR(WriteEveryShard(
      EncodeTaskOpBinary(name, characteristics),
      [&](trust::TrustEngine& engine) {
        const auto replica = engine.catalog().AddUniform(name, characteristics);
        SIOT_CHECK(replica.ok());
        if (id == trust::kNoTask) id = replica.value();
        SIOT_CHECK(replica.value() == id);
      }));
  return id;
}

Status TrustService::SetReverseThreshold(trust::AgentId trustee,
                                         trust::TaskId task, double theta) {
  // A NaN threshold would poison reverse evaluations AND defeat
  // MissingAdminOps' exact-equality compare (NaN != NaN would re-log the
  // op on every restart).
  if (std::isnan(theta)) {
    return Status::InvalidArgument("reverse threshold is NaN");
  }
  SIOT_RETURN_IF_ERROR(CheckNotDegraded());
  const MutexLock admin(&admin_mutex_);
  return WriteEveryShard(
      EncodeThetaOpBinary(trustee, task, theta),
      [&](trust::TrustEngine& engine) {
        engine.reverse_evaluator().SetThreshold(trustee, task, theta);
      });
}

Status TrustService::SetEnvironmentIndicator(trust::AgentId agent,
                                             double indicator) {
  // The engine treats an out-of-range indicator as a programming error
  // (SIOT_CHECK); the serving boundary rejects it as data instead.
  if (!(indicator > 0.0 && indicator <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("environment indicator %g outside (0, 1]", indicator));
  }
  SIOT_RETURN_IF_ERROR(CheckNotDegraded());
  const MutexLock admin(&admin_mutex_);
  return WriteEveryShard(EncodeEnvOpBinary(agent, indicator),
                         [&](trust::TrustEngine& engine) {
                           engine.environment().SetIndicator(agent,
                                                             indicator);
                         });
}

// ---------------------------------------------------------- data plane --

namespace {

/// A delegation relay chain is a handful of hops (the paper's §4.5 uses
/// single intermediates); 1024 is far beyond any honest chain. The bound
/// keeps one hostile report from minting a WAL record big enough to trip
/// the writer's payload-size check — client data must never reach a
/// SIOT_CHECK.
constexpr std::size_t kMaxIntermediates = 1024;

Status ValidateReport(const OutcomeReport& report) {
  SIOT_RETURN_IF_ERROR(ValidateAgent(report.trustor, "trustor"));
  // Catches clients echoing an unavailable/no_candidates result's trustee
  // straight back into the report.
  SIOT_RETURN_IF_ERROR(ValidateAgent(report.trustee, "trustee"));
  if (report.intermediates.size() > kMaxIntermediates) {
    return Status::InvalidArgument(
        StrFormat("delegation chain of %zu intermediates exceeds the "
                  "limit of %zu",
                  report.intermediates.size(), kMaxIntermediates));
  }
  // A non-finite observation would poison the pair's estimates forever —
  // and with persistence the NaN round-trips through every restart, so
  // the boundary must keep it out of the model entirely.
  for (const double value : {report.outcome.gain, report.outcome.damage,
                             report.outcome.cost}) {
    if (!std::isfinite(value)) {
      return Status::InvalidArgument(
          "outcome gain/damage/cost must be finite");
    }
  }
  return Status::OK();
}

}  // namespace

Status TrustService::BatchReportOutcome(
    std::span<const OutcomeReport> reports) {
  SIOT_RETURN_IF_ERROR(CheckNotDegraded());
  for (const OutcomeReport& report : reports) {
    SIOT_RETURN_IF_ERROR(core_.ValidateTask(report.task));
    SIOT_RETURN_IF_ERROR(ValidateReport(report));
  }
  std::vector<ShardWrite> writes;
  std::vector<std::vector<std::size_t>> members(shard_count());
  GroupByShard(
      shard_count(), reports.size(),
      [&](std::size_t i) { return reports[i].trustor; },
      [&](std::size_t s, const std::vector<std::size_t>& indices) {
        ShardWrite& write = writes.emplace_back(ShardWrite{s, {}});
        if (persistent()) {
          for (const std::size_t i : indices) {
            const OutcomeReport& r = reports[i];
            write.payloads.push_back(EncodeOutcomeOpBinary(
                r.trustor, r.trustee, r.task, r.outcome,
                r.trustor_was_abusive, r.intermediates));
          }
        }
        members[s] = indices;
      });
  return WriteShards(
      writes, /*lead_shard_durable_first=*/false,
      [&](Shard& shard) {
        shard.mutex.AssertHeld();  // WriteShards holds it.
        for (const std::size_t i : members[shard.index]) {
          const OutcomeReport& r = reports[i];
          shard.engine.ReportOutcome(r.trustor, r.trustee, r.task,
                                     r.outcome, r.trustor_was_abusive,
                                     r.intermediates);
        }
        outcome_reports_.fetch_add(members[shard.index].size(),
                                   std::memory_order_relaxed);
      });
}

// --------------------------------------------------------- observation --

std::vector<ShardWalPosition> TrustService::WalPositions() const {
  std::vector<ShardWalPosition> positions;
  if (!persistent()) return positions;
  positions.reserve(shard_count());
  for (std::size_t s = 0; s < shard_count(); ++s) {
    const Shard& shard = core_.shard(s);
    // Taking the lock shared waits out any in-flight append (appenders
    // hold it exclusive), which is exactly the frame-visibility barrier
    // the header promises.
    const ReaderLock lock(&shard.mutex);
    positions.push_back(
        {s, shard.persist->last_seq(), shard.persist->wal_bytes()});
  }
  return positions;
}

TrustServiceStats TrustService::Stats() const {
  TrustServiceStats stats = core_.Stats();
  stats.outcome_reports =
      outcome_reports_.load(std::memory_order_relaxed);
  for (std::size_t s = 0; s < shard_count(); ++s) {
    const Shard& shard = core_.shard(s);
    const ReaderLock lock(&shard.mutex);
    if (shard.persist) {
      stats.wal_sync_requests += shard.persist->inline_fsyncs();
      stats.wal_fsyncs += shard.persist->inline_fsyncs();
    }
  }
  const std::uint64_t group_flushes = group_committer_.flushes();
  const std::uint64_t group_requests = group_committer_.sync_requests();
  stats.wal_sync_requests += group_requests;
  stats.wal_fsyncs += group_flushes;
  stats.wal_syncs_coalesced = group_requests - group_flushes;
  return stats;
}

}  // namespace siot::service
