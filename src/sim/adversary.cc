// Copyright 2026 The siot-trust Authors.

#include "sim/adversary.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/macros.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "trust/trust_store_io.h"
#include "trust/update.h"

namespace siot::sim {
namespace {

// ------------------------------------------------------------ policies --

/// On-off oscillation: honest for `on_rounds`, exploiting for
/// `off_rounds`, cycle offset by the slot index so the population's
/// exploit bursts are staggered.
class OnOffBehavior final : public AdversaryBehavior {
 public:
  using AdversaryBehavior::AdversaryBehavior;
  AttackType type() const override { return AttackType::kOnOff; }
  bool Exploits(std::size_t slot, std::size_t round,
                bool /*trustor_is_accomplice*/) const override {
    const std::size_t cycle =
        std::max<std::size_t>(1, params().on_rounds + params().off_rounds);
    return (round + slot) % cycle >= params().on_rounds;
  }
};

/// Bad-mouthing / ballot-stuffing: execution stays honest; the reverse
/// evaluation lies — honest trustors are always reported abusive,
/// accomplices always responsive.
class BadMouthingBehavior final : public AdversaryBehavior {
 public:
  using AdversaryBehavior::AdversaryBehavior;
  AttackType type() const override { return AttackType::kBadMouthing; }
  bool ReportedAbusive(bool /*actually_abusive*/,
                       bool trustor_is_accomplice) const override {
    return !trustor_is_accomplice;
  }
};

/// Whitewashing: always exploit, reset identity once enough uses were
/// milked to have burned the current one.
class WhitewashingBehavior final : public AdversaryBehavior {
 public:
  using AdversaryBehavior::AdversaryBehavior;
  AttackType type() const override { return AttackType::kWhitewashing; }
  bool Exploits(std::size_t /*slot*/, std::size_t /*round*/,
                bool /*trustor_is_accomplice*/) const override {
    return true;
  }
  bool ShouldWhitewash(std::size_t exploited_uses) const override {
    return exploited_uses >= params().whitewash_after_uses;
  }
};

/// Collusive clique: clique trustees exploit outsiders but serve
/// accomplices honestly and shield their abuse; clique trustors file
/// fake boost/smear reports every round.
class CollusionBehavior final : public AdversaryBehavior {
 public:
  using AdversaryBehavior::AdversaryBehavior;
  AttackType type() const override { return AttackType::kCollusion; }
  bool Exploits(std::size_t /*slot*/, std::size_t /*round*/,
                bool trustor_is_accomplice) const override {
    return !trustor_is_accomplice;
  }
  bool ReportedAbusive(bool /*actually_abusive*/,
                       bool trustor_is_accomplice) const override {
    return !trustor_is_accomplice;
  }
  bool FilesFakeReports() const override { return true; }
};

// ------------------------------------------------------------- driver --

/// Ring lattice (each node linked to its 3 clockwise neighbors): the
/// cheap connected topology the role sampling runs over.
graph::Graph BuildRing(std::size_t agents) {
  graph::GraphBuilder builder(agents);
  for (std::size_t t = 0; t < agents; ++t) {
    for (std::size_t d = 1; d <= 3 && d < agents; ++d) {
      builder.AddEdge(static_cast<graph::NodeId>(t),
                      static_cast<graph::NodeId>((t + d) % agents));
    }
  }
  return builder.Build();
}

/// One trustee slot: the stable simulation role whose on-network
/// identity can change (whitewashing re-enters under a fresh id).
struct TrusteeSlot {
  trust::AgentId current_id = trust::kNoAgent;
  bool adversary = false;
  std::size_t exploited_uses = 0;
};

/// Per-trustor result slot for the read-only parallel phase. Everything
/// the sequential phases need is captured here so aggregation and all
/// service writes happen in trustor order.
struct TrustorDraw {
  Status status;
  bool executed = false;
  bool unavailable = false;
  bool exploited = false;
  bool success = false;
  bool abusive = false;
  bool reported_abusive = false;
  std::size_t chosen_slot = 0;
  std::size_t refusals = 0;
  trust::AgentId chosen_id = trust::kNoAgent;
  trust::DelegationOutcome outcome;
};

std::size_t ScaledCount(double fraction, std::size_t n) {
  const double f = std::clamp(fraction, 0.0, 1.0);
  return std::min(n, static_cast<std::size_t>(std::llround(f * n)));
}

}  // namespace

const char* AttackTypeName(AttackType type) {
  switch (type) {
    case AttackType::kNone:
      return "none";
    case AttackType::kOnOff:
      return "onoff";
    case AttackType::kBadMouthing:
      return "badmouth";
    case AttackType::kWhitewashing:
      return "whitewash";
    case AttackType::kCollusion:
      return "collusion";
  }
  return "unknown";
}

std::optional<AttackType> ParseAttackType(std::string_view name) {
  for (AttackType type :
       {AttackType::kNone, AttackType::kOnOff, AttackType::kBadMouthing,
        AttackType::kWhitewashing, AttackType::kCollusion}) {
    if (name == AttackTypeName(type)) return type;
  }
  return std::nullopt;
}

bool AdversaryBehavior::Exploits(std::size_t /*slot*/, std::size_t /*round*/,
                                 bool /*trustor_is_accomplice*/) const {
  return false;
}

bool AdversaryBehavior::ReportedAbusive(bool actually_abusive,
                                        bool /*trustor_is_accomplice*/) const {
  return actually_abusive;
}

bool AdversaryBehavior::ShouldWhitewash(std::size_t /*exploited_uses*/) const {
  return false;
}

bool AdversaryBehavior::FilesFakeReports() const { return false; }

std::unique_ptr<AdversaryBehavior> MakeAdversaryBehavior(
    const AttackParams& params) {
  switch (params.type) {
    case AttackType::kNone:
      return std::make_unique<AdversaryBehavior>(params);
    case AttackType::kOnOff:
      return std::make_unique<OnOffBehavior>(params);
    case AttackType::kBadMouthing:
      return std::make_unique<BadMouthingBehavior>(params);
    case AttackType::kWhitewashing:
      return std::make_unique<WhitewashingBehavior>(params);
    case AttackType::kCollusion:
      return std::make_unique<CollusionBehavior>(params);
  }
  return std::make_unique<AdversaryBehavior>(params);
}

trust::TrustEngineConfig NaiveAttackEngineConfig(double theta) {
  trust::TrustEngineConfig engine;
  engine.normalization = trust::NormalizationRange::kUnit;
  engine.value_bound = 1.0;
  // Long memory: the inertia on-off oscillation rides between bursts.
  engine.beta = trust::ForgettingFactors::Uniform(0.7);
  engine.strategy = trust::SelectionStrategy::kMaxNetProfit;
  engine.default_theta = theta;
  // Optimistic newcomer bonus: a fresh identity ranks ABOVE a converged
  // honest trustee (expected profit 0.79 vs ~0.59), which is exactly
  // the surface whitewashing exploits.
  engine.initial_estimates = {/*success_rate=*/0.9, /*gain=*/0.9,
                              /*damage=*/0.1, /*cost=*/0.1};
  return engine;
}

service::TrustServiceConfig AttackServiceConfig(const AttackSimConfig& config) {
  service::TrustServiceConfig sc;
  sc.shard_count = config.shard_count;
  sc.engine = NaiveAttackEngineConfig(config.theta);
  return sc;
}

StatusOr<AttackSimResult> RunAttackSimulation(service::TrustService& service,
                                              const AttackSimConfig& config) {
  if (config.agents < 4 || config.rounds == 0 ||
      config.candidates_per_trustor == 0) {
    return Status::InvalidArgument(
        "attack simulation needs agents >= 4, rounds >= 1, candidates >= 1");
  }
  const AttackParams& params = config.attack;
  const std::unique_ptr<AdversaryBehavior> behavior =
      MakeAdversaryBehavior(params);

  SIOT_ASSIGN_OR_RETURN(const trust::TaskId task,
                        service.RegisterTask("sense", {0}));

  // ------------------------------------------------- population setup --
  Rng setup_rng(MixSeed(config.seed, 0x5e7));
  const graph::Graph ring = BuildRing(config.agents);
  const Population population =
      BuildPopulation(ring, config.population, setup_rng);
  const std::size_t trustor_count = population.trustors.size();
  const std::size_t trustee_count = population.trustees.size();
  if (trustor_count == 0 || trustee_count == 0) {
    return Status::InvalidArgument(
        "population sampled no trustors or no trustees");
  }

  std::vector<TrusteeSlot> slots(trustee_count);
  std::unordered_map<trust::AgentId, std::size_t> slot_of;
  slot_of.reserve(trustee_count);
  for (std::size_t s = 0; s < trustee_count; ++s) {
    slots[s].current_id = population.trustees[s];
    slot_of.emplace(slots[s].current_id, s);
  }
  std::vector<std::size_t> adversary_slots = setup_rng.SampleWithoutReplacement(
      trustee_count, ScaledCount(params.adversary_fraction, trustee_count));
  std::sort(adversary_slots.begin(), adversary_slots.end());
  for (std::size_t s : adversary_slots) slots[s].adversary = true;

  // Accomplice trustors exist only for the families whose attack runs
  // through the trustor side (reverse-evaluation lies / fake reports).
  const bool uses_accomplices = params.type == AttackType::kBadMouthing ||
                                params.type == AttackType::kCollusion;
  std::vector<bool> accomplice(trustor_count, false);
  if (uses_accomplices) {
    for (std::size_t i : setup_rng.SampleWithoutReplacement(
             trustor_count,
             ScaledCount(params.adversary_fraction, trustor_count))) {
      accomplice[i] = true;
    }
  }

  // Candidate sets are per-trustor SLOT sets (materialized to current
  // ids each round so whitewashed identities stay reachable).
  const std::size_t candidates =
      std::min(config.candidates_per_trustor, trustee_count);
  std::vector<std::vector<std::size_t>> candidate_slots(trustor_count);
  for (std::size_t i = 0; i < trustor_count; ++i) {
    candidate_slots[i] =
        setup_rng.SampleWithoutReplacement(trustee_count, candidates);
    if (uses_accomplices && accomplice[i]) {
      // Accomplices must reach the whole clique (boost targets and the
      // trustees that shield their abuse).
      const std::unordered_set<std::size_t> have(candidate_slots[i].begin(),
                                                 candidate_slots[i].end());
      for (std::size_t s : adversary_slots) {
        if (!have.contains(s)) candidate_slots[i].push_back(s);
      }
    }
  }
  // Smear targets: the honest slots each accomplice can credibly report
  // about (its own candidate set).
  std::vector<std::vector<std::size_t>> honest_candidates(trustor_count);
  for (std::size_t i = 0; i < trustor_count; ++i) {
    for (std::size_t s : candidate_slots[i]) {
      if (!slots[s].adversary) honest_candidates[i].push_back(s);
    }
  }

  trust::AgentId next_fresh_id = static_cast<trust::AgentId>(config.agents);
  ResilienceTracker tracker(config.detect_percentile);
  std::vector<TrustorDraw> draws(trustor_count);
  std::vector<service::PreEvaluateRequest> score_requests;
  std::vector<bool> score_is_attacker;

  for (std::size_t round = 0; round < config.rounds; ++round) {
    // Phase A (parallel, read-only): delegation requests + outcome
    // draws. Each item touches only its own draw slot and its own
    // per-(round, trustor) stream; the service sees only shared-lock
    // reads, so the phase is order-independent by construction.
    const std::uint64_t round_seed = MixSeed(config.seed, 0x40000 + round);
    ParallelFor(config.threads, trustor_count, [&](std::size_t i) {
      Rng stream = DeriveStream(round_seed, i);
      TrustorDraw& draw = draws[i];
      draw = TrustorDraw{};
      service::DelegationServiceRequest request;
      request.trustor = population.trustors[i];
      request.task = task;
      request.candidates.reserve(candidate_slots[i].size());
      for (std::size_t s : candidate_slots[i]) {
        request.candidates.push_back(slots[s].current_id);
      }
      auto result = service.RequestDelegation(request);
      if (!result.ok()) {
        draw.status = result.status();
        return;
      }
      const trust::DelegationRequestResult& res = result.value();
      draw.refusals = res.refusals.size();
      draw.unavailable = res.unavailable;
      if (res.trustee == trust::kNoAgent) return;
      draw.executed = true;
      draw.chosen_id = res.trustee;
      draw.chosen_slot = slot_of.at(res.trustee);
      const TrusteeSlot& slot = slots[draw.chosen_slot];
      draw.exploited =
          slot.adversary &&
          behavior->Exploits(draw.chosen_slot, round, accomplice[i]);
      draw.success = stream.Bernoulli(draw.exploited
                                          ? params.exploit_success_rate
                                          : params.honest_success_rate);
      draw.outcome.success = draw.success;
      draw.outcome.gain = draw.success ? params.honest_gain : 0.0;
      draw.outcome.damage =
          draw.success
              ? 0.0
              : (draw.exploited ? params.exploit_damage : params.honest_damage);
      draw.outcome.cost = params.task_cost;
      draw.abusive =
          stream.Bernoulli((uses_accomplices && accomplice[i])
                               ? params.accomplice_abuse_rate
                               : params.honest_abuse_rate);
      draw.reported_abusive =
          slot.adversary ? behavior->ReportedAbusive(draw.abusive, accomplice[i])
                         : draw.abusive;
    });

    // Phase B (sequential, trustor order): aggregate ground truth and
    // apply every write as ONE batch — real reports first, then the
    // collusion fakes in accomplice order.
    RoundObservation observation;
    std::vector<service::OutcomeReport> reports;
    reports.reserve(trustor_count);
    std::vector<std::size_t> exploited_by_slot(trustee_count, 0);
    for (std::size_t i = 0; i < trustor_count; ++i) {
      const TrustorDraw& draw = draws[i];
      if (!draw.status.ok()) return draw.status;
      ++observation.requests;
      observation.refusals += draw.refusals;
      if (!draw.executed) {
        if (draw.unavailable) ++observation.unavailable;
        continue;
      }
      ++observation.delegations;
      if (draw.exploited) {
        ++observation.misdelegations;
        ++exploited_by_slot[draw.chosen_slot];
      }
      if (draw.abusive) ++observation.abusive_uses;
      service::OutcomeReport report;
      report.trustor = population.trustors[i];
      report.trustee = draw.chosen_id;
      report.task = task;
      report.outcome = draw.outcome;
      report.trustor_was_abusive = draw.reported_abusive;
      reports.push_back(std::move(report));
    }
    if (behavior->FilesFakeReports() && !adversary_slots.empty()) {
      const std::uint64_t fake_seed = MixSeed(config.seed, 0x80000 + round);
      for (std::size_t i = 0; i < trustor_count; ++i) {
        if (!accomplice[i]) continue;
        Rng stream = DeriveStream(fake_seed, i);
        for (std::size_t k = 0; k < params.fake_reports_per_member; ++k) {
          // Intra-clique boost: a fabricated perfect outcome.
          const std::size_t boost =
              adversary_slots[stream.NextBounded(adversary_slots.size())];
          service::OutcomeReport fake;
          fake.trustor = population.trustors[i];
          fake.trustee = slots[boost].current_id;
          fake.task = task;
          fake.outcome = {/*success=*/true, /*gain=*/params.honest_gain,
                          /*damage=*/0.0, /*cost=*/params.task_cost};
          reports.push_back(fake);
          // Extra-clique smear: a fabricated disaster about an honest
          // trustee in reach.
          if (!honest_candidates[i].empty()) {
            const std::size_t smear = honest_candidates[i][stream.NextBounded(
                honest_candidates[i].size())];
            fake.trustee = slots[smear].current_id;
            fake.outcome = {/*success=*/false, /*gain=*/0.0,
                            /*damage=*/params.exploit_damage,
                            /*cost=*/params.task_cost};
            reports.push_back(fake);
          }
        }
      }
    }
    if (!reports.empty()) {
      SIOT_RETURN_IF_ERROR(service.BatchReportOutcome(reports));
    }

    // Whitewash phase (sequential, slot order): burn counters advance
    // by this round's exploited executions; a reset re-enters with a
    // fresh id and the optimistic first-contact estimates.
    for (std::size_t s = 0; s < trustee_count; ++s) {
      if (!slots[s].adversary) continue;
      slots[s].exploited_uses += exploited_by_slot[s];
      if (slots[s].exploited_uses > 0 &&
          behavior->ShouldWhitewash(slots[s].exploited_uses)) {
        slot_of.erase(slots[s].current_id);
        slots[s].current_id = next_fresh_id++;
        slot_of.emplace(slots[s].current_id, s);
        slots[s].exploited_uses = 0;
        ++observation.whitewashes;
      }
    }

    // Phase C: pooled Eq. 18 sweep over every (trustor, candidate)
    // pair, partitioned honest/attacker for the detection metrics.
    score_requests.clear();
    score_is_attacker.clear();
    for (std::size_t i = 0; i < trustor_count; ++i) {
      for (std::size_t s : candidate_slots[i]) {
        score_requests.push_back(
            {population.trustors[i], slots[s].current_id, task});
        score_is_attacker.push_back(slots[s].adversary);
      }
    }
    SIOT_ASSIGN_OR_RETURN(const std::vector<double> scores,
                          service.BatchPreEvaluate(score_requests));
    for (std::size_t q = 0; q < scores.size(); ++q) {
      (score_is_attacker[q] ? observation.attacker_scores
                            : observation.honest_scores)
          .push_back(scores[q]);
    }
    tracker.RecordRound(observation);
  }

  AttackSimResult result;
  result.rounds = tracker.rounds();
  result.misdelegation_rate = tracker.OverallMisdelegationRate();
  result.unavailable_rate = tracker.OverallUnavailableRate();
  result.abuse_rate = tracker.OverallAbuseRate();
  result.final_honest_trust = tracker.FinalHonestTrust();
  result.final_attacker_trust = tracker.FinalAttackerTrust();
  result.time_to_detect = tracker.TimeToDetect();
  result.whitewash_recovery = tracker.PostWhitewashRecovery();
  result.whitewashes = tracker.TotalWhitewashes();
  // The digest covers every shard engine's full serialized state; byte
  // equality across runs is the bit-identity proof the tests assert.
  // shard_engine is the documented caller-synchronized hook — the
  // simulation is over, nothing else touches the service.
  for (std::size_t shard = 0; shard < service.shard_count(); ++shard) {
    result.state_digest +=
        trust::SerializeTrustEngineState(service.shard_engine(shard));
  }
  return result;
}

}  // namespace siot::sim
