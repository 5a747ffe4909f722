// Copyright 2026 The siot-trust Authors.
// ParallelFor: the one way this library fans work out over threads.
//
// The §5 experiment drivers, the attack suite and both service roles'
// shard restores all run through it. Its threads exist only for one call;
// items are claimed dynamically, so which thread runs which item is up to
// the scheduler. Determinism therefore never comes from scheduling: a
// caller derives one RNG stream per item (DeriveStream, common/rng.h) and
// writes only to the item's own result slot, then aggregates in index
// order, so its output is bit-identical at every thread count.

#ifndef SIOT_COMMON_PARALLEL_FOR_H_
#define SIOT_COMMON_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

namespace siot {

/// Runs `body(i)` for every i in [0, count) on up to `threads` threads
/// (0 = hardware concurrency), the calling thread among them; `threads`
/// = 1 runs inline. If the system refuses a thread, fewer run. Every body
/// runs even when another throws; then the lowest-index exception is
/// rethrown, exactly what a serial loop that kept going would surface
/// first. Each body confines its writes to what item i owns.
void ParallelFor(std::size_t threads, std::size_t count,
                 const std::function<void(std::size_t)>& body);

}  // namespace siot

#endif  // SIOT_COMMON_PARALLEL_FOR_H_
