// Copyright 2026 The siot-trust Authors.

#include "service/sharded_engines.h"

namespace siot::service {

std::size_t ShardIndexForTrustor(trust::AgentId trustor,
                                 std::size_t shard_count) {
  std::uint64_t z = trustor;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return static_cast<std::size_t>((z ^ (z >> 31)) % shard_count);
}

Status ValidateAgent(trust::AgentId agent, const char* role) {
  if (agent == trust::kNoAgent) {
    return Status::InvalidArgument(
        std::string(role) + " is the kNoAgent sentinel");
  }
  return Status::OK();
}

}  // namespace siot::service
