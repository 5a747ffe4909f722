// Copyright 2026 The siot-trust Authors.

#include "trust/transitivity.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>

#include "common/macros.h"
#include "common/parallel_for.h"
#include "trust/overlay_snapshot.h"

namespace siot::trust {

double ChainProductTransitivity(const std::vector<double>& values) {
  double product = 1.0;
  for (double v : values) product *= v;
  return product;
}

double TwoSidedCombine(double a, double b) {
  // Eq. 7: a·b + (1−a)(1−b) = 1 − a − b + 2ab.
  return 1.0 - a - b + 2.0 * a * b;
}

double ChainTwoSidedTransitivity(const std::vector<double>& values) {
  SIOT_CHECK(!values.empty());
  double acc = values.front();
  for (std::size_t i = 1; i < values.size(); ++i) {
    acc = TwoSidedCombine(acc, values[i]);
  }
  return acc;
}

std::string_view TransitivityMethodName(TransitivityMethod method) {
  switch (method) {
    case TransitivityMethod::kTraditional:
      return "Traditional";
    case TransitivityMethod::kConservative:
      return "Conservative";
    case TransitivityMethod::kAggressive:
      return "Aggressive";
  }
  return "?";
}

namespace {

constexpr double kUnset = -1.0;

void BuildExactCache(const TrustOverlaySnapshot& snapshot, const Task& task,
                     std::vector<double>& exact) {
  const std::size_t edges = snapshot.directed_edge_count();
  exact.assign(edges, kUnset);
  for (std::size_t e = 0; e < edges; ++e) {
    for (const TaskExperience& exp : snapshot.Experiences(e)) {
      if (exp.task == task.id()) {
        exact[e] = exp.trustworthiness;
        break;
      }
    }
  }
}

/// One task's hop information for every directed edge of a snapshot, flat
/// and indexed by the dense directed-edge index, so the hops out of one
/// node are contiguous.
struct HopTable {
  /// edges × parts: edge e's characteristic i at e * parts + i — the Eq. 4
  /// inner average, kUnset where the observer has no covering experience.
  std::vector<double> per_characteristic;
  /// Per edge: every characteristic of the task is covered on this hop.
  std::vector<std::uint8_t> complete;
};

void BuildHopCache(const TrustOverlaySnapshot& snapshot,
                   const TaskCatalog& catalog, const Task& task,
                   HopTable& hops) {
  const std::size_t edges = snapshot.directed_edge_count();
  const std::size_t parts = task.parts().size();
  hops.per_characteristic.assign(edges * parts, kUnset);
  hops.complete.assign(edges, 0);
  for (std::size_t e = 0; e < edges; ++e) {
    // The kernel writes covered parts into the hop row; the rest stay
    // kUnset.
    const CoveredInference inference = InferCovered(
        catalog, task, snapshot.Experiences(e),
        std::span<double>(hops.per_characteristic.data() + e * parts,
                          parts));
    hops.complete[e] = task.CoveredBy(inference.covered);
  }
}

/// The cache of `task` in `by_task`. A hit is a pure read (shared-search
/// concurrency relies on it); a miss builds the cache in place with
/// `build` — single-threaded callers only, and a programming error once
/// the search is sealed for sharing.
template <typename Cache, typename BuildFn>
const Cache& FindOrBuild(std::unordered_map<TaskId, Cache>& by_task,
                         const Task& task, bool sealed, BuildFn&& build) {
  auto it = by_task.find(task.id());
  if (it == by_task.end()) {
    SIOT_CHECK_MSG(!sealed,
                   "query for unprepared task %u on a sealed "
                   "TransitivitySearch",
                   static_cast<unsigned>(task.id()));
    it = by_task.try_emplace(task.id()).first;
    build(it->second);
  }
  return it->second;
}

void ValidateParams(const TransitivityParams& params) {
  // The hop-relaxation takes per-node maxima, which is exactly optimal
  // when every propagated hop value is >= 0.5 (Eq. 7 is then monotone in
  // its accumulated argument) — guaranteed when ω1 >= 0.5. Below 0.5 the
  // search still finds exactly the right set of potential trustees
  // (coverage and gating are unaffected); only the reported
  // trustworthiness magnitudes become a greedy approximation.
  SIOT_CHECK_MSG(params.omega1 >= 0.0 && params.omega1 <= 1.0,
                 "omega1=%f must be in [0, 1]", params.omega1);
  SIOT_CHECK_MSG(params.omega2 >= 0.0 && params.omega2 <= 1.0,
                 "omega2=%f must be in [0, 1]", params.omega2);
  SIOT_CHECK(params.max_hops >= 1);
}

/// Per-thread relaxation state, sized to the largest graph the thread has
/// searched. Each node owns one block of 2 × parts doubles — the best value
/// carried onward for propagation, then the best value whose final hop met
/// the trustee gate — and one state word (the 1-based round whose frontier
/// it joined last, and its touched/reached flags). Keeping a node's state
/// together makes relaxing an edge touch two cache lines, not four. At rest
/// every value is kUnset and every state word 0. A query appends each node
/// to `touched` before its first write to that node, so Release() restores
/// exactly the entries the query used.
struct SearchScratch {
  static constexpr std::uint32_t kTouched = 1;
  static constexpr std::uint32_t kReached = 2;
  static constexpr std::uint32_t kFlags = kTouched | kReached;
  static constexpr int kRoundShift = 2;

  std::vector<double> cells;
  std::vector<std::uint32_t> state;
  std::vector<graph::NodeId> touched;
  std::vector<graph::NodeId> frontier;
  std::vector<graph::NodeId> next_frontier;
  /// Round-start values of the frontier nodes, frontier-major.
  std::vector<double> frontier_values;
  std::size_t parts = 0;
  bool in_use = false;

  void Bind(std::size_t n, std::size_t query_parts) {
    // Each array grows on its own, so a throw part-way leaves both
    // consistent with the at-rest invariant.
    if (cells.size() < 2 * n * query_parts) {
      cells.resize(2 * n * query_parts, kUnset);
    }
    if (state.size() < n) state.resize(n, 0);
    parts = query_parts;
  }

  double* Value(graph::NodeId v) { return cells.data() + 2 * parts * v; }
  double* Terminal(graph::NodeId v) { return Value(v) + parts; }
  bool Reached(graph::NodeId v) const { return state[v] & kReached; }

  void Touch(graph::NodeId v) {
    if (state[v] & kTouched) return;
    touched.push_back(v);
    state[v] |= kTouched;
  }

  void MarkReached(graph::NodeId v) {
    Touch(v);
    state[v] |= kReached;
  }

  /// Raises v's propagated value of part i to `candidate` if larger; a
  /// rise enrolls v in the frontier of round `next_round`.
  void Raise(graph::NodeId v, std::size_t i, double candidate,
             std::uint32_t next_round) {
    double& slot = Value(v)[i];
    if (!(candidate > slot)) return;
    Touch(v);
    slot = candidate;
    if ((state[v] >> kRoundShift) != next_round) {
      state[v] = (next_round << kRoundShift) | (state[v] & kFlags);
      next_frontier.push_back(v);
    }
  }

  void RaiseTerminal(graph::NodeId v, std::size_t i, double candidate) {
    double& slot = Terminal(v)[i];
    if (!(candidate > slot)) return;
    Touch(v);
    slot = candidate;
  }

  void Release() {
    for (const graph::NodeId v : touched) {
      std::fill_n(Value(v), 2 * parts, kUnset);
      state[v] = 0;
    }
    touched.clear();
    frontier.clear();
    next_frontier.clear();
    in_use = false;
  }
};

/// RAII hold on the calling thread's scratch; restores it on every exit
/// path. No caller code runs while a lease is held (the cache builds run
/// before it, the trustee filter after it), so a query never nests inside
/// another on the same thread.
class ScratchLease {
 public:
  ScratchLease(std::size_t n, std::size_t parts) {
    SIOT_CHECK_MSG(!scratch_.in_use, "transitivity query nested in a query");
    scratch_.Bind(n, parts);
    scratch_.in_use = true;
  }
  ~ScratchLease() { scratch_.Release(); }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  SearchScratch& operator*() const { return scratch_; }

 private:
  static thread_local SearchScratch scratch_;
};

thread_local SearchScratch ScratchLease::scratch_;

/// Frontier rounds of the hop-bounded relaxation. Round 0 relaxes the
/// trustor's edges; round r > 0 relaxes the edges of the nodes whose value
/// rose in round r − 1, in ascending id order (the dense scan's order, so
/// even equal candidates are offered alike), reading a copy of their
/// round-start values. That is the dense Jacobi round over every node minus
/// the nodes whose value did not change: those would only re-offer
/// candidates already folded into their neighbours' maxima. So the cost is
/// O(reached nodes × degree × hops), not O(n × hops).
///
/// `relax(u, k, v, upstream, next_round)` relaxes directed edge (u, v), v
/// being the k-th neighbour of u; `upstream` points at u's round-start
/// values (null for the trustor).
template <typename RelaxFn>
void RelaxFrontier(const graph::Graph& graph, AgentId trustor,
                   std::size_t max_hops, SearchScratch& s, RelaxFn&& relax) {
  const std::size_t parts = s.parts;
  s.frontier.assign(1, trustor);
  for (std::size_t hop = 0; hop < max_hops && !s.frontier.empty(); ++hop) {
    const auto next_round = static_cast<std::uint32_t>(hop + 1);
    s.frontier_values.resize(s.frontier.size() * parts);
    if (hop > 0) {
      for (std::size_t f = 0; f < s.frontier.size(); ++f) {
        std::copy_n(s.Value(s.frontier[f]), parts,
                    s.frontier_values.begin() + f * parts);
      }
    }
    s.next_frontier.clear();
    for (std::size_t f = 0; f < s.frontier.size(); ++f) {
      const graph::NodeId u = s.frontier[f];
      const double* upstream =
          hop == 0 ? nullptr : s.frontier_values.data() + f * parts;
      const auto neighbors = graph.Neighbors(u);
      for (std::size_t k = 0; k < neighbors.size(); ++k) {
        const graph::NodeId v = neighbors[k];
        if (v == trustor) continue;
        relax(u, k, v, upstream, next_round);
      }
    }
    s.frontier.swap(s.next_frontier);
    std::sort(s.frontier.begin(), s.frontier.end());
  }
}

/// Applies the caller's trustee filter (after the scratch is released, so
/// the filter may throw or search again) and sorts by the result order:
/// trustworthiness descending, then agent ascending.
TransitivityResult FinishResult(const TransitivityParams& params,
                                std::vector<PotentialTrustee> candidates,
                                std::size_t inquired_nodes) {
  TransitivityResult result;
  result.inquired_nodes = inquired_nodes;
  result.trustees = std::move(candidates);
  if (params.trustee_eligible) {
    std::erase_if(result.trustees, [&params](const PotentialTrustee& t) {
      return !params.trustee_eligible(t.agent);
    });
  }
  std::sort(result.trustees.begin(), result.trustees.end(),
            [](const PotentialTrustee& a, const PotentialTrustee& b) {
              if (a.trustworthiness != b.trustworthiness) {
                return a.trustworthiness > b.trustworthiness;
              }
              return a.agent < b.agent;
            });
  return result;
}

}  // namespace

/// Cross-query caches of per-directed-edge hop information, keyed by task.
/// Vectors are indexed by the snapshot's dense directed-edge index.
struct TransitivitySearch::TaskCaches {
  std::unordered_map<TaskId, std::vector<double>> exact_by_task;
  std::unordered_map<TaskId, HopTable> hops_by_task;
};

TransitivitySearch::TransitivitySearch(const TrustOverlaySnapshot& snapshot,
                                       const TaskCatalog& catalog,
                                       TransitivityParams params)
    : snapshot_(snapshot), catalog_(catalog), params_(std::move(params)),
      caches_(std::make_unique<TaskCaches>()) {
  ValidateParams(params_);
}

TransitivitySearch::~TransitivitySearch() = default;

void TransitivitySearch::PrepareTasks(const std::vector<TaskId>& tasks,
                                      std::size_t threads) {
  SIOT_CHECK_MSG(!sealed_, "PrepareTasks on a sealed TransitivitySearch");
  std::vector<TaskId> distinct = tasks;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  // Insert the (empty) cache slots serially; the heavy fills then write
  // only their own slot, so they can run concurrently. unordered_map
  // values are reference-stable across later insertions.
  struct Slot {
    TaskId task = kNoTask;
    std::vector<double>* exact = nullptr;
    HopTable* hops = nullptr;
  };
  std::vector<Slot> slots;
  slots.reserve(distinct.size());
  for (const TaskId task : distinct) {
    const auto [exact_it, exact_inserted] =
        caches_->exact_by_task.try_emplace(task);
    const auto [hops_it, hops_inserted] =
        caches_->hops_by_task.try_emplace(task);
    if (!exact_inserted && !hops_inserted) continue;  // already prepared
    slots.push_back({task, exact_inserted ? &exact_it->second : nullptr,
                     hops_inserted ? &hops_it->second : nullptr});
  }
  ParallelFor(threads, slots.size(), [this, &slots](std::size_t i) {
    const Slot& slot = slots[i];
    const Task& task = catalog_.Get(slot.task);
    if (slot.exact != nullptr) {
      BuildExactCache(snapshot_, task, *slot.exact);
    }
    if (slot.hops != nullptr) {
      BuildHopCache(snapshot_, catalog_, task, *slot.hops);
    }
  });
}

TransitivityResult TransitivitySearch::FindPotentialTrustees(
    AgentId trustor, const Task& task, TransitivityMethod method) const {
  SIOT_CHECK(trustor < snapshot_.graph().node_count());
  switch (method) {
    case TransitivityMethod::kTraditional:
      return SearchTraditional(trustor, task);
    case TransitivityMethod::kConservative:
      return SearchCharacteristicBased(trustor, task, /*conservative=*/true);
    case TransitivityMethod::kAggressive:
      return SearchCharacteristicBased(trustor, task,
                                       /*conservative=*/false);
  }
  return {};
}

TransitivityResult TransitivitySearch::SearchTraditional(
    AgentId trustor, const Task& task) const {
  // exact[e]: the trustworthiness of the exact task along directed edge e,
  // or kUnset.
  const std::vector<double>& exact = FindOrBuild(
      caches_->exact_by_task, task, sealed_,
      [&](std::vector<double>& cache) {
        BuildExactCache(snapshot_, task, cache);
      });
  const TrustOverlaySnapshot& snapshot = snapshot_;
  const graph::Graph& graph = snapshot.graph();
  std::vector<PotentialTrustee> candidates;
  std::size_t inquired_nodes = 0;
  {
    // value[v]: best Eq. 5 path product from trustor to v over viable hops
    // (every hop holds a record for the exact task); the trustor's is 1.
    ScratchLease lease(graph.node_count(), 1);
    SearchScratch& s = *lease;
    RelaxFrontier(
        graph, trustor, params_.max_hops, s,
        [&s, &exact, &snapshot](graph::NodeId u, std::size_t k,
                                graph::NodeId v, const double* upstream,
                                std::uint32_t next_round) {
          const double t = exact[snapshot.FirstEdge(u) + k];
          if (t <= 0.0) return;  // Eq. 5: positive trust transfers freely
          s.MarkReached(v);
          s.Raise(v, 0, (upstream == nullptr ? 1.0 : *upstream) * t,
                  next_round);
        });
    std::sort(s.touched.begin(), s.touched.end());
    for (const graph::NodeId v : s.touched) {
      if (s.Reached(v)) ++inquired_nodes;
      const double best = *s.Value(v);
      if (best == kUnset) continue;
      PotentialTrustee trustee;
      trustee.agent = v;
      trustee.trustworthiness = best;
      trustee.per_characteristic.assign(task.parts().size(), best);
      candidates.push_back(std::move(trustee));
    }
  }
  return FinishResult(params_, std::move(candidates), inquired_nodes);
}

TransitivityResult TransitivitySearch::SearchCharacteristicBased(
    AgentId trustor, const Task& task, bool conservative) const {
  const HopTable& hops = FindOrBuild(
      caches_->hops_by_task, task, sealed_, [&](HopTable& cache) {
        BuildHopCache(snapshot_, catalog_, task, cache);
      });
  const TrustOverlaySnapshot& snapshot = snapshot_;
  const graph::Graph& graph = snapshot.graph();
  const std::size_t parts = task.parts().size();
  std::vector<PotentialTrustee> candidates;
  std::size_t inquired_nodes = 0;
  {
    // value[v][i]: best Eq. 7 fold of characteristic i carried to v via
    // recommendation hops (each hop value >= omega1). terminal[v][i]: best
    // value whose FINAL hop satisfies the trustee gate omega2.
    // Characteristics start at the trustor un-attenuated: a first hop's
    // value is the hop value itself.
    ScratchLease lease(graph.node_count(), parts);
    SearchScratch& s = *lease;
    const double omega1 = params_.omega1;
    const double omega2 = params_.omega2;
    RelaxFrontier(
        graph, trustor, params_.max_hops, s,
        [&](graph::NodeId u, std::size_t k, graph::NodeId v,
            const double* upstream, std::uint32_t next_round) {
          const std::size_t e = snapshot.FirstEdge(u) + k;
          // Conservative transitivity requires every hop to cover the
          // whole task (Eq. 8); aggressive lets any covered
          // characteristic hop.
          if (conservative && hops.complete[e] == 0) return;
          const double* hop = hops.per_characteristic.data() + e * parts;
          bool hop_useful = false;
          for (std::size_t i = 0; i < parts; ++i) {
            const double t = hop[i];
            if (t == kUnset) continue;
            if (upstream != nullptr && upstream[i] == kUnset) continue;
            // Candidate value of characteristic i at v through u.
            const double via =
                upstream == nullptr ? t : TwoSidedCombine(upstream[i], t);
            // Recommendation propagation: gate by omega1.
            if (t >= omega1) {
              hop_useful = true;
              s.Raise(v, i, via, next_round);
            }
            // Trustee terminal hop: gate by omega2.
            if (t >= omega2) {
              hop_useful = true;
              s.RaiseTerminal(v, i, via);
            }
          }
          if (hop_useful) s.MarkReached(v);
        });
    std::sort(s.touched.begin(), s.touched.end());
    for (const graph::NodeId v : s.touched) {
      if (s.Reached(v)) ++inquired_nodes;
      // Trustee condition: every characteristic arrives through a terminal
      // hop meeting omega2 (conservative paths additionally required full
      // coverage on every hop, enforced above).
      const double* terminal = s.Terminal(v);
      if (std::find(terminal, terminal + parts, kUnset) != terminal + parts) {
        continue;
      }
      PotentialTrustee trustee;
      trustee.agent = v;
      trustee.per_characteristic.assign(terminal, terminal + parts);
      // Eq. 17: weight-combine the per-characteristic assessments.
      double combined = 0.0;
      for (std::size_t i = 0; i < parts; ++i) {
        combined += task.parts()[i].weight * terminal[i];
      }
      trustee.trustworthiness = combined;
      candidates.push_back(std::move(trustee));
    }
  }
  return FinishResult(params_, std::move(candidates), inquired_nodes);
}

}  // namespace siot::trust
