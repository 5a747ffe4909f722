// Copyright 2026 The siot-trust Authors.

#include "service/overlay_serving.h"

#include <utility>

#include "common/macros.h"
#include "common/string_util.h"

namespace siot::service {

namespace {

std::chrono::milliseconds AgeOf(std::chrono::steady_clock::time_point then) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - then);
}

}  // namespace

OverlaySnapshotIndex::OverlaySnapshotIndex(
    std::shared_ptr<const graph::Graph> graph,
    trust::TransitivityParams params)
    : graph_(std::move(graph)), params_(std::move(params)) {
  SIOT_CHECK(graph_ != nullptr);
}

Status OverlaySnapshotIndex::Publish(
    std::shared_ptr<const trust::VersionedOverlaySnapshot> snapshot,
    std::chrono::milliseconds assembly_cost) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("null overlay snapshot");
  }
  if (snapshot->graph_ptr() != graph_) {
    return Status::InvalidArgument(
        "overlay snapshot built over a different graph than the index "
        "serves");
  }
  // The expensive part — one hop cache per catalog task over every
  // directed edge — runs here, with no service lock of any kind held.
  auto search = std::make_unique<trust::TransitivitySearch>(
      snapshot->snapshot(), snapshot->catalog(), params_);
  std::vector<trust::TaskId> tasks(snapshot->catalog().size());
  for (trust::TaskId id = 0; id < tasks.size(); ++id) tasks[id] = id;
  search->PrepareTasks(tasks);
  search->Seal();

  auto prepared = std::make_shared<Prepared>();
  prepared->snapshot = std::move(snapshot);
  prepared->search = std::move(search);
  prepared->published_at = std::chrono::steady_clock::now();
  prepared->prepared_tasks = tasks.size();
  prepared->assembly_cost = assembly_cost;
  const MutexLock lock(&mutex_);
  current_ = std::move(prepared);
  ++rebuild_count_;
  return Status::OK();
}

std::shared_ptr<const OverlaySnapshotIndex::Prepared>
OverlaySnapshotIndex::Current() const {
  const MutexLock lock(&mutex_);
  return current_;
}

Status OverlaySnapshotIndex::ValidateAgainst(
    const Prepared& prepared, const TransitiveTrustRequest& request) const {
  const graph::Graph& graph = prepared.snapshot->graph();
  if (request.trustor >= graph.node_count()) {
    return Status::InvalidArgument(
        StrFormat("trustor %u outside the social graph (%zu nodes)",
                  static_cast<unsigned>(request.trustor),
                  graph.node_count()));
  }
  if (request.task >= prepared.snapshot->catalog().size()) {
    return Status::InvalidArgument(StrFormat(
        "task %u not in the served snapshot's catalog (%zu tasks at "
        "version %s) — if it was registered since, wait for a rebuild",
        static_cast<unsigned>(request.task),
        prepared.snapshot->catalog().size(),
        trust::FormatSnapshotVersion(prepared.snapshot->version()).c_str()));
  }
  return Status::OK();
}

TransitiveTrustResult OverlaySnapshotIndex::Answer(
    const Prepared& prepared, const TransitiveTrustRequest& request) const {
  TransitiveTrustResult out;
  out.result = prepared.search->FindPotentialTrustees(
      request.trustor, prepared.snapshot->catalog().Get(request.task),
      request.method);
  out.version = prepared.snapshot->version();
  out.snapshot_age = AgeOf(prepared.published_at);
  return out;
}

StatusOr<TransitiveTrustResult> OverlaySnapshotIndex::Query(
    const TransitiveTrustRequest& request) const {
  const std::shared_ptr<const Prepared> prepared = Current();
  if (prepared == nullptr) {
    return Status::FailedPrecondition("no overlay snapshot built yet");
  }
  if (Status status = ValidateAgainst(*prepared, request); !status.ok()) {
    return status;
  }
  return Answer(*prepared, request);
}

StatusOr<std::vector<TransitiveTrustResult>> OverlaySnapshotIndex::BatchQuery(
    std::span<const TransitiveTrustRequest> requests) const {
  const std::shared_ptr<const Prepared> prepared = Current();
  if (prepared == nullptr) {
    return Status::FailedPrecondition("no overlay snapshot built yet");
  }
  // Whole-batch validation, atomic rejection — then every answer comes
  // from this one snapshot, even if a rebuild publishes mid-batch.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (Status status = ValidateAgainst(*prepared, requests[i]);
        !status.ok()) {
      return Status(
          status.code(),
          StrFormat("request %zu: %s", i, status.message().c_str()));
    }
  }
  std::vector<TransitiveTrustResult> out;
  out.reserve(requests.size());
  for (const TransitiveTrustRequest& request : requests) {
    out.push_back(Answer(*prepared, request));
  }
  return out;
}

std::shared_ptr<const trust::VersionedOverlaySnapshot>
OverlaySnapshotIndex::CurrentSnapshot() const {
  const std::shared_ptr<const Prepared> prepared = Current();
  return prepared != nullptr ? prepared->snapshot : nullptr;
}

OverlaySnapshotInfo OverlaySnapshotIndex::Info() const {
  OverlaySnapshotInfo info;
  std::shared_ptr<const Prepared> prepared;
  {
    const MutexLock lock(&mutex_);
    prepared = current_;
    info.rebuild_count = rebuild_count_;
  }
  if (prepared == nullptr) return info;
  info.built = true;
  info.version = prepared->snapshot->version();
  info.age = AgeOf(prepared->published_at);
  info.node_count = prepared->snapshot->graph().node_count();
  info.directed_edge_count =
      prepared->snapshot->snapshot().directed_edge_count();
  info.prepared_tasks = prepared->prepared_tasks;
  info.last_assembly_cost = prepared->assembly_cost;
  return info;
}

}  // namespace siot::service
