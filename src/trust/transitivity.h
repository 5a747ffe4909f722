// Copyright 2026 The siot-trust Authors.
// Transitivity of trust (paper §4.3, Eqs. 5–17).
//
// When trustor X and a potential trustee Y share no direct experience,
// trustworthiness transfers along social paths of intermediate nodes. The
// paper clarifies three schemes:
//
//  * Traditional (Eq. 5): unrestricted path product — trust transfers as
//    long as every consecutive pair has a record *for the exact task*.
//  * Two-sided combination (Eq. 7): a hop combines recommendation trust a
//    and next-hop trust b as a·b + (1−a)·(1−b) — the second term (mistrust
//    of the recommender times the recommender's own misjudgment) is what
//    existing models drop.
//  * Conservative (Eqs. 8–11): transfer only along hops whose experienced
//    tasks cover ALL characteristics of the new task (per-hop inference by
//    Eq. 4), gated by ω1 (recommenders) and ω2 (trustee).
//  * Aggressive (Eqs. 12–17): different characteristics may travel
//    different paths; a node is a potential trustee once the union of
//    arriving characteristic assessments covers the whole task and the
//    trustee itself has experienced every characteristic.
//
// The search is a hop-bounded relaxation over the social graph, run in
// frontier rounds: round r relaxes only the edges of the nodes whose value
// rose in round r − 1, so a query costs O(reached nodes × degree × hops)
// rather than O(graph size × hops). It reports the paper's §5.5 metrics:
// potential trustees with task-level trustworthiness, and the number of
// inquired nodes (search overhead, Fig. 12).

#ifndef SIOT_TRUST_TRANSITIVITY_H_
#define SIOT_TRUST_TRANSITIVITY_H_

#include <functional>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "trust/inference.h"
#include "trust/task.h"
#include "trust/types.h"

namespace siot::trust {

/// Eq. 5: plain product of trustworthiness values along a path.
double ChainProductTransitivity(const std::vector<double>& values);

/// Eq. 7: TW_A←C = a·b + (1−a)·(1−b) for recommendation trust a and
/// next-hop trust b.
double TwoSidedCombine(double a, double b);

/// Eq. 7 folded along a path (left fold; single element returns itself).
double ChainTwoSidedTransitivity(const std::vector<double>& values);

/// The three §4.3 schemes.
enum class TransitivityMethod {
  kTraditional,
  kConservative,
  kAggressive,
};

std::string_view TransitivityMethodName(TransitivityMethod method);

/// View of the trust overlay: the direct experiences an observer holds
/// about an adjacent subject. A TrustOverlaySnapshot captures one for the
/// search; it is implemented over one or more shards' TrustStores
/// (ShardedStoreOverlay) and over synthetic tables in the simulations.
class TrustOverlay {
 public:
  virtual ~TrustOverlay() = default;
  /// Tasks `observer` has direct experience about `subject`, with their
  /// Eq. 18 trustworthiness values.
  virtual std::vector<TaskExperience> DirectExperience(
      AgentId observer, AgentId subject) const = 0;
};

class TrustOverlaySnapshot;

/// Search configuration.
struct TransitivityParams {
  /// ω1: minimum per-hop trustworthiness for recommendation hops.
  double omega1 = 0.5;
  /// ω2: minimum trustworthiness for the final (trustee) hop.
  double omega2 = 0.5;
  /// Maximum path length in hops (edges).
  std::size_t max_hops = 6;
  /// Optional filter restricting which agents may serve as trustees
  /// (intermediates are unrestricted). Null accepts every agent.
  std::function<bool(AgentId)> trustee_eligible;
};

/// One potential trustee found by the search.
struct PotentialTrustee {
  AgentId agent = kNoAgent;
  /// Task-level transferred trustworthiness (Eq. 5 / Eq. 11 / Eq. 17).
  double trustworthiness = 0.0;
  /// Per-characteristic transferred values aligned with task.parts()
  /// (traditional method fills all entries with the task value).
  std::vector<double> per_characteristic;
};

/// Search output with the §5.5 metrics.
struct TransitivityResult {
  /// Potential trustees sorted by descending trustworthiness (ties by id).
  std::vector<PotentialTrustee> trustees;
  /// Number of distinct nodes the delegation request reached (excluding
  /// the trustor) — the Fig. 12 search overhead.
  std::size_t inquired_nodes = 0;
};

/// Hop-bounded transitivity search over a TrustOverlaySnapshot's social
/// graph.
///
/// Cost: a query works only at the nodes it reaches — O(reached nodes ×
/// degree × hops). Its per-node state lives in flat per-thread scratch
/// arrays that the query resets entry by entry on exit; each querying
/// thread keeps about n × (16·parts + 4) bytes of it (n agents, parts = the
/// task's characteristic count), sized to the largest graph and task that
/// thread has searched. The trustee_eligible filter runs after the scratch
/// is released, so it may throw or run a search of its own. The scratch
/// is per thread, so the sharing contract below is unchanged by it.
///
/// Hop information is computed once per task into flat arrays indexed by
/// the snapshot's dense directed-edge index, so the hops out of a node are
/// contiguous — about edges × (8·parts + 9) bytes per prepared task — and
/// reused across every query for that task: the §5.5 experiments search
/// the same task from hundreds of trustors. Concurrency: a query for a
/// PREPARED task (PrepareTasks) only reads the caches, so one search
/// instance may be shared across threads for prepared tasks; a query for
/// an UNprepared task builds its cache in place (FindPotentialTrustees is
/// const, the cache is mutable) and must not run concurrently with any
/// other query.
class TransitivitySearch {
 public:
  /// The snapshot and the catalog must outlive the search object.
  TransitivitySearch(const TrustOverlaySnapshot& snapshot,
                     const TaskCatalog& catalog, TransitivityParams params);

  ~TransitivitySearch();

  /// Precomputes the per-task caches for `tasks` up front. The per-task
  /// builds are independent and run through ParallelFor on `threads`
  /// threads (0 = hardware concurrency; the default 1 builds them
  /// serially on the calling thread). After preparation,
  /// FindPotentialTrustees for a prepared task only READS the caches, so
  /// one search instance may be shared across threads as long as every
  /// concurrently queried task was prepared.
  void PrepareTasks(const std::vector<TaskId>& tasks,
                    std::size_t threads = 1);

  /// Freezes the per-task caches. This is the read-only-after-prepare
  /// contract made enforceable — after Seal(),
  ///   * FindPotentialTrustees for a PREPARED task is a pure read (safe
  ///     to share this object across any number of query threads), and
  ///   * a query for an UNprepared task, which would otherwise build its
  ///     cache in place through the mutable caches_ pointer, trips
  ///     SIOT_CHECK instead of silently mutating shared state, as does a
  ///     further PrepareTasks call.
  /// The serving layer seals before publishing a snapshot and keeps only
  /// a const handle, so a published search cannot be mutated at all.
  void Seal() { sealed_ = true; }

  /// True once Seal() ran.
  bool sealed() const { return sealed_; }

  /// Finds potential trustees of `trustor` for `task` under `method`.
  TransitivityResult FindPotentialTrustees(AgentId trustor, const Task& task,
                                           TransitivityMethod method) const;

 private:
  struct TaskCaches;

  TransitivityResult SearchTraditional(AgentId trustor,
                                       const Task& task) const;
  TransitivityResult SearchCharacteristicBased(AgentId trustor,
                                               const Task& task,
                                               bool conservative) const;

  const TrustOverlaySnapshot& snapshot_;
  const TaskCatalog& catalog_;
  TransitivityParams params_;
  /// Per-task caches, lazily grown, hence mutable — FindPotentialTrustees
  /// is logically const. Frozen (no growth, asserted) once sealed_ is set.
  mutable std::unique_ptr<TaskCaches> caches_;
  bool sealed_ = false;
};

}  // namespace siot::trust

#endif  // SIOT_TRUST_TRANSITIVITY_H_
