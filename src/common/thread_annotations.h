// Copyright 2026 The siot-trust Authors.
// Clang Thread Safety Analysis annotations (-Wthread-safety), in the
// style shared by abseil and the clang documentation, prefixed SIOT_.
//
// The macros expand to Clang `capability` attributes under clang and to
// nothing everywhere else, so the tree stays warning-clean under g++
// while the clang CI leg proves the lock discipline at compile time:
// every member annotated SIOT_GUARDED_BY can only be touched with its
// lock held (shared for reads, exclusive for writes), every helper
// annotated SIOT_REQUIRES can only be called with the lock already
// held, and a double acquire of one capability is a compile error.
//
// What the analysis can and cannot see (and how this repo handles it):
//   * It is intra-procedural and syntactic: capabilities are tracked by
//     expression (`shard.mutex`), so lock and access must share a base
//     expression. Keep a single local reference per critical section.
//   * Locks acquired in a loop (the all-shard consistent cut) are
//     invisible to it. The one holder of a dynamic lock set,
//     siot::MultiReaderLock, is annotated
//     SIOT_NO_THREAD_SAFETY_ANALYSIS with its deadlock-freedom argument
//     written at the declaration, and every guarded access under it
//     goes through a helper that re-asserts the single capability it
//     needs (SIOT_ASSERT_SHARED_CAPABILITY via SharedMutex::
//     AssertReaderHeld) — the assert-capability audit.
//   * What it proves is discipline, not schedules: TSan still covers
//     lock-free publication (atomics, shared_ptr snapshots) and
//     wait/notify protocols. See README "Static analysis & concurrency
//     discipline".

#ifndef SIOT_COMMON_THREAD_ANNOTATIONS_H_
#define SIOT_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define SIOT_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define SIOT_THREAD_ANNOTATION_ATTRIBUTE_(x)  // no-op off clang
#endif

/// Marks a type as a capability ("mutex", "shared_mutex", ...).
#define SIOT_CAPABILITY(x) SIOT_THREAD_ANNOTATION_ATTRIBUTE_(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define SIOT_SCOPED_CAPABILITY \
  SIOT_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)

/// Data member readable only with `x` held (shared suffices), writable
/// only with `x` held exclusively.
#define SIOT_GUARDED_BY(x) SIOT_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))

/// Pointer member whose POINTEE is guarded by `x` (the pointer itself is
/// not; it must be immutable once concurrency starts).
#define SIOT_PT_GUARDED_BY(x) \
  SIOT_THREAD_ANNOTATION_ATTRIBUTE_(pt_guarded_by(x))

/// Lock-ordering declarations (checked under -Wthread-safety-beta).
#define SIOT_ACQUIRED_BEFORE(...) \
  SIOT_THREAD_ANNOTATION_ATTRIBUTE_(acquired_before(__VA_ARGS__))
#define SIOT_ACQUIRED_AFTER(...) \
  SIOT_THREAD_ANNOTATION_ATTRIBUTE_(acquired_after(__VA_ARGS__))

/// Function precondition: the listed capabilities are held (exclusively /
/// at least shared) on entry and still held on exit.
#define SIOT_REQUIRES(...) \
  SIOT_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))
#define SIOT_REQUIRES_SHARED(...) \
  SIOT_THREAD_ANNOTATION_ATTRIBUTE_(requires_shared_capability(__VA_ARGS__))

/// Function acquires / releases the listed capabilities.
#define SIOT_ACQUIRE(...) \
  SIOT_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))
#define SIOT_ACQUIRE_SHARED(...) \
  SIOT_THREAD_ANNOTATION_ATTRIBUTE_(acquire_shared_capability(__VA_ARGS__))
#define SIOT_RELEASE(...) \
  SIOT_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))
#define SIOT_RELEASE_SHARED(...) \
  SIOT_THREAD_ANNOTATION_ATTRIBUTE_(release_shared_capability(__VA_ARGS__))
#define SIOT_RELEASE_GENERIC(...) \
  SIOT_THREAD_ANNOTATION_ATTRIBUTE_(release_generic_capability(__VA_ARGS__))

/// Function must NOT be called with the listed capabilities held
/// (deadlock guard for self-locking helpers).
#define SIOT_EXCLUDES(...) \
  SIOT_THREAD_ANNOTATION_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

/// Tells the analysis the capability IS held here without acquiring it —
/// the audit hook for lock sets it cannot track. Use only where the hold
/// is provable from surrounding code, and say why at the call site.
#define SIOT_ASSERT_CAPABILITY(x) \
  SIOT_THREAD_ANNOTATION_ATTRIBUTE_(assert_capability(x))
#define SIOT_ASSERT_SHARED_CAPABILITY(x) \
  SIOT_THREAD_ANNOTATION_ATTRIBUTE_(assert_shared_capability(x))

/// Function returns a reference to the capability guarding its result.
#define SIOT_RETURN_CAPABILITY(x) \
  SIOT_THREAD_ANNOTATION_ATTRIBUTE_(lock_returned(x))

/// Opts a function out of the analysis entirely. Every use in this repo
/// must carry a written justification comment; tools/lint_concurrency.py
/// and the PR checklist hold that line.
#define SIOT_NO_THREAD_SAFETY_ANALYSIS \
  SIOT_THREAD_ANNOTATION_ATTRIBUTE_(no_thread_safety_analysis)

#endif  // SIOT_COMMON_THREAD_ANNOTATIONS_H_
