// Copyright 2026 The siot-trust Authors.

#include "service/sharded_engines.h"

#include <utility>

#include "common/parallel_for.h"

namespace siot::service {

std::size_t ShardIndexForTrustor(trust::AgentId trustor,
                                 std::size_t shard_count) {
  std::uint64_t z = trustor;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return static_cast<std::size_t>((z ^ (z >> 31)) % shard_count);
}

Status ForEachIndexConcurrently(
    std::size_t count, const std::function<Status(std::size_t)>& body) {
  // A failed status travels as an exception, so ParallelFor's
  // lowest-index rethrow picks the serial loop's first failure, whether
  // that item returned it or threw.
  struct Failed {
    Status status;
  };
  try {
    ParallelFor(/*threads=*/0, count, [&body](std::size_t i) {
      Status status = body(i);
      if (!status.ok()) throw Failed{std::move(status)};
    });
  } catch (const Failed& failed) {
    return failed.status;
  }
  return Status::OK();
}

Status ValidateAgent(trust::AgentId agent, const char* role) {
  if (agent == trust::kNoAgent) {
    return Status::InvalidArgument(
        std::string(role) + " is the kNoAgent sentinel");
  }
  return Status::OK();
}

}  // namespace siot::service
