// Copyright 2026 The siot-trust Authors.

#include "trust/mutual.h"

#include <algorithm>

namespace siot::trust {

void ReverseEvaluator::RecordUsage(AgentId trustee, AgentId trustor,
                                   bool abusive) {
  UsageHistory& h = *history_.FindOrInsert(PairKey{trustee, trustor}).first;
  if (abusive) {
    ++h.abusive_uses;
  } else {
    ++h.responsive_uses;
  }
}

void ReverseEvaluator::RestoreHistory(AgentId trustee, AgentId trustor,
                                      const UsageHistory& history) {
  *history_.FindOrInsert(PairKey{trustee, trustor}).first = history;
}

const UsageHistory* ReverseEvaluator::FindHistory(AgentId trustee,
                                                  AgentId trustor) const {
  return history_.Find(PairKey{trustee, trustor});
}

double ReverseEvaluator::ReverseTrustworthiness(AgentId trustee,
                                                AgentId trustor) const {
  const UsageHistory* h = FindHistory(trustee, trustor);
  const double responsive = h ? static_cast<double>(h->responsive_uses) : 0.0;
  const double total = h ? static_cast<double>(h->total()) : 0.0;
  // Laplace smoothing: unknown trustors start at 0.5 and converge to the
  // empirical responsible-use fraction as history accumulates.
  return (responsive + 1.0) / (total + 2.0);
}

void ReverseEvaluator::SetThreshold(AgentId trustee, TaskId task,
                                    double theta) {
  *thresholds_.FindOrInsert(ThresholdKey{trustee, task}).first = theta;
}

double ReverseEvaluator::Threshold(AgentId trustee, TaskId task) const {
  if (const double* theta = thresholds_.Find(ThresholdKey{trustee, task})) {
    return *theta;
  }
  if (const double* theta =
          thresholds_.Find(ThresholdKey{trustee, kNoTask})) {
    return *theta;
  }
  return default_threshold_;
}

bool ReverseEvaluator::AcceptsDelegation(AgentId trustee, AgentId trustor,
                                         TaskId task) const {
  return ReverseTrustworthiness(trustee, trustor) >=
         Threshold(trustee, task);
}

std::vector<UsageEntry> ReverseEvaluator::AllHistories() const {
  std::vector<UsageEntry> out;
  out.reserve(history_.size());
  ForEachHistorySorted([&out](AgentId trustee, AgentId trustor,
                              const UsageHistory& history) {
    out.push_back({trustee, trustor, history});
  });
  return out;
}

std::vector<ThresholdEntry> ReverseEvaluator::AllThresholds() const {
  std::vector<ThresholdEntry> out;
  out.reserve(thresholds_.size());
  thresholds_.ForEach([&out](const ThresholdKey& key, double theta) {
    out.push_back({key.trustee, key.task, theta});
  });
  std::sort(out.begin(), out.end(),
            [](const ThresholdEntry& a, const ThresholdEntry& b) {
              if (a.trustee != b.trustee) return a.trustee < b.trustee;
              return a.task < b.task;
            });
  return out;
}

MutualSelection SelectTrusteeMutually(
    const ReverseEvaluator& evaluator, AgentId trustor, TaskId task,
    std::vector<ScoredCandidate> candidates) {
  std::sort(candidates.begin(), candidates.end(),
            [](const ScoredCandidate& a, const ScoredCandidate& b) {
              if (a.trustworthiness != b.trustworthiness) {
                return a.trustworthiness > b.trustworthiness;
              }
              return a.agent < b.agent;
            });
  MutualSelection out;
  for (const ScoredCandidate& candidate : candidates) {
    if (evaluator.AcceptsDelegation(candidate.agent, trustor, task)) {
      out.trustee = candidate.agent;
      out.trustworthiness = candidate.trustworthiness;
      return out;
    }
    out.refusals.push_back(candidate.agent);
  }
  return out;  // trustee == kNoAgent: unavailable
}

}  // namespace siot::trust
