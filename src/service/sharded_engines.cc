// Copyright 2026 The siot-trust Authors.

#include "service/sharded_engines.h"

#include <exception>
#include <system_error>
#include <thread>

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
  std::vector<Status> statuses(count);
  // An exception (bad_alloc) must not end a helper thread: it is carried
  // to this thread and rethrown in index order, like a status.
  std::vector<std::exception_ptr> thrown(count);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      try {
        statuses[i] = body(i);
      } catch (...) {
        thrown[i] = std::current_exception();
      }
    }
  };
  const std::size_t threads = std::min<std::size_t>(
      count, std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::thread> helpers;
  try {
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(work);
  } catch (const std::system_error&) {
    // Fewer helpers only slow the fan-out; the rest claim every index.
  }
  work();
  for (std::thread& helper : helpers) helper.join();
  for (std::size_t i = 0; i < count; ++i) {
    if (thrown[i]) std::rethrow_exception(thrown[i]);
    if (!statuses[i].ok()) return statuses[i];
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
