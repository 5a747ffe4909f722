// Copyright 2026 The siot-trust Authors.

#include "tests/trust/transitivity_reference.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "trust/inference.h"

namespace siot::trust {
namespace {

constexpr double kUnset = -1.0;

/// Per-directed-hop trust information for one target task.
struct HopInfo {
  /// Per-task-characteristic inferred value (Eq. 4 inner average);
  /// kUnset where the observer has no covering experience.
  std::vector<double> per_characteristic;
  /// True if every characteristic of the task is covered on this hop.
  bool complete = false;
  /// Trustworthiness of the exact task, if the observer has that record.
  double exact_task = kUnset;
};

HopInfo MakeHopInfo(const TaskCatalog& catalog, const Task& task,
                    const std::vector<TaskExperience>& experiences) {
  HopInfo info;
  const std::size_t parts = task.parts().size();
  const PartialInference inference = PartialInfer(catalog, task, experiences);
  info.per_characteristic.assign(parts, kUnset);
  for (std::size_t i = 0; i < parts; ++i) {
    const CharacteristicId c = task.parts()[i].id;
    if ((inference.covered >> c) & 1ull) {
      info.per_characteristic[i] = inference.per_characteristic[i];
    }
  }
  info.complete = inference.complete;
  for (const TaskExperience& exp : experiences) {
    if (exp.task == task.id()) {
      info.exact_task = exp.trustworthiness;
      break;
    }
  }
  return info;
}

}  // namespace

ReferenceTransitivitySearch::ReferenceTransitivitySearch(
    const graph::Graph& graph, const TaskCatalog& catalog,
    const TrustOverlay& overlay, TransitivityParams params)
    : graph_(graph), catalog_(catalog), overlay_(overlay),
      params_(std::move(params)) {}

TransitivityResult ReferenceTransitivitySearch::FindPotentialTrustees(
    AgentId trustor, const Task& task, TransitivityMethod method) const {
  SIOT_CHECK(trustor < graph_.node_count());
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

// `exact_tw(u, v, k)` returns the trustworthiness of the exact task along
// directed edge (u, v) — v being the k-th neighbor of u — or kUnset.
template <typename ExactFn>
TransitivityResult ReferenceTransitivitySearch::TraditionalImpl(
    AgentId trustor, const Task& task, ExactFn&& exact_tw) const {
  const std::size_t n = graph_.node_count();
  // best[v]: best Eq. 5 path product from trustor to v over viable hops
  // (every hop holds a record for the exact task).
  std::vector<double> best(n, kUnset);
  std::vector<double> next(n, kUnset);
  best[trustor] = 1.0;

  std::vector<bool> reached(n, false);
  for (std::size_t hop = 0; hop < params_.max_hops; ++hop) {
    next = best;
    bool changed = false;
    for (graph::NodeId u = 0; u < n; ++u) {
      if (best[u] == kUnset) continue;
      const auto neighbors = graph_.Neighbors(u);
      for (std::size_t k = 0; k < neighbors.size(); ++k) {
        const graph::NodeId v = neighbors[k];
        if (v == trustor) continue;
        const double t = exact_tw(u, v, k);
        if (t <= 0.0) continue;  // Eq. 5: positive trust transfers freely
        const double candidate = best[u] * t;
        reached[v] = true;
        if (candidate > next[v]) {
          next[v] = candidate;
          changed = true;
        }
      }
    }
    best.swap(next);
    if (!changed) break;
  }

  TransitivityResult result;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (v == trustor) continue;
    if (reached[v]) ++result.inquired_nodes;
    if (best[v] == kUnset) continue;
    if (params_.trustee_eligible && !params_.trustee_eligible(v)) continue;
    PotentialTrustee trustee;
    trustee.agent = v;
    trustee.trustworthiness = best[v];
    trustee.per_characteristic.assign(task.parts().size(), best[v]);
    result.trustees.push_back(std::move(trustee));
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

TransitivityResult ReferenceTransitivitySearch::SearchTraditional(
    AgentId trustor, const Task& task) const {
  // Live overlay: derive exact-task values lazily, once per directed edge
  // per query.
  std::unordered_map<std::uint64_t, double> cache;
  return TraditionalImpl(
      trustor, task,
      [this, &task, &cache](AgentId u, AgentId v, std::size_t /*k*/) {
        const std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | v;
        const auto it = cache.find(key);
        if (it != cache.end()) return it->second;
        double t = kUnset;
        for (const TaskExperience& exp : overlay_.DirectExperience(u, v)) {
          if (exp.task == task.id()) {
            t = exp.trustworthiness;
            break;
          }
        }
        cache.emplace(key, t);
        return t;
      });
}

// `hop_info(u, v, k)` returns the HopInfo of directed edge (u, v) — v
// being the k-th neighbor of u.
template <typename HopFn>
TransitivityResult ReferenceTransitivitySearch::CharacteristicImpl(
    AgentId trustor, const Task& task, bool conservative,
    HopFn&& hop_info) const {
  const std::size_t n = graph_.node_count();
  const std::size_t parts = task.parts().size();

  // reach[v][i]: best Eq. 7 fold of characteristic i carried to v via
  // recommendation hops (each hop value >= omega1). trustee_val[v][i]: best
  // value whose FINAL hop satisfies the trustee gate omega2.
  std::vector<std::vector<double>> reach(n,
                                         std::vector<double>(parts, kUnset));
  std::vector<std::vector<double>> trustee_val(
      n, std::vector<double>(parts, kUnset));
  std::vector<bool> reached(n, false);

  // Identity: characteristics start at the trustor un-attenuated.
  // (Represented implicitly: a first hop's value is the hop value itself.)
  std::vector<std::vector<double>> next = reach;
  for (std::size_t hop = 0; hop < params_.max_hops; ++hop) {
    next = reach;
    bool changed = false;
    for (graph::NodeId u = 0; u < n; ++u) {
      const bool u_is_source = (u == trustor);
      if (!u_is_source) {
        bool u_active = false;
        for (std::size_t i = 0; i < parts; ++i) {
          if (reach[u][i] != kUnset) {
            u_active = true;
            break;
          }
        }
        if (!u_active) continue;
      }
      const auto neighbors = graph_.Neighbors(u);
      for (std::size_t k = 0; k < neighbors.size(); ++k) {
        const graph::NodeId v = neighbors[k];
        if (v == trustor) continue;
        const HopInfo& info = hop_info(u, v, k);
        // Conservative transitivity requires every hop to cover the whole
        // task (Eq. 8); aggressive lets any covered characteristic hop.
        if (conservative && !info.complete) continue;
        bool hop_useful = false;
        for (std::size_t i = 0; i < parts; ++i) {
          const double t = info.per_characteristic[i];
          if (t == kUnset) continue;
          const double upstream = u_is_source ? kUnset : reach[u][i];
          if (!u_is_source && upstream == kUnset) continue;
          // Candidate value of characteristic i at v through u.
          const double via =
              u_is_source ? t : TwoSidedCombine(upstream, t);
          // Recommendation propagation: gate by omega1.
          if (t >= params_.omega1) {
            hop_useful = true;
            if (via > next[v][i]) {
              next[v][i] = via;
              changed = true;
            }
          }
          // Trustee terminal hop: gate by omega2.
          if (t >= params_.omega2) {
            hop_useful = true;
            if (via > trustee_val[v][i]) trustee_val[v][i] = via;
          }
        }
        if (hop_useful) reached[v] = true;
      }
    }
    reach.swap(next);
    if (!changed) break;
  }

  TransitivityResult result;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (v == trustor) continue;
    if (reached[v]) ++result.inquired_nodes;
    // Trustee condition: every characteristic arrives through a terminal
    // hop meeting omega2 (conservative paths additionally required full
    // coverage on every hop, enforced above).
    bool complete = true;
    for (std::size_t i = 0; i < parts; ++i) {
      if (trustee_val[v][i] == kUnset) {
        complete = false;
        break;
      }
    }
    if (!complete) continue;
    if (params_.trustee_eligible && !params_.trustee_eligible(v)) continue;
    PotentialTrustee trustee;
    trustee.agent = v;
    trustee.per_characteristic = trustee_val[v];
    // Eq. 17: weight-combine the per-characteristic assessments.
    double combined = 0.0;
    for (std::size_t i = 0; i < parts; ++i) {
      combined += task.parts()[i].weight * trustee_val[v][i];
    }
    trustee.trustworthiness = combined;
    result.trustees.push_back(std::move(trustee));
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

TransitivityResult ReferenceTransitivitySearch::SearchCharacteristicBased(
    AgentId trustor, const Task& task, bool conservative) const {
  // Live overlay: lazy per-directed-hop info cache, one query's lifetime.
  std::unordered_map<std::uint64_t, HopInfo> hop_cache;
  return CharacteristicImpl(
      trustor, task, conservative,
      [this, &task, &hop_cache](AgentId u, AgentId v,
                                std::size_t /*k*/) -> const HopInfo& {
        const std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | v;
        const auto it = hop_cache.find(key);
        if (it != hop_cache.end()) return it->second;
        HopInfo info =
            MakeHopInfo(catalog_, task, overlay_.DirectExperience(u, v));
        return hop_cache.emplace(key, std::move(info)).first->second;
      });
}

}  // namespace siot::trust
