// Copyright 2026 The siot-trust Authors.
// Property tests for the adversarial attack suite. Three claims per
// attack family, all against the NAIVE engine configuration
// (optimistic first-contact estimates, long memory, global θ):
//   1. negative control — the attack measurably degrades the naive
//      configuration relative to an honest-behaving population;
//   2. determinism — a run is bit-identical (full resilience table +
//      serialized shard states) at 1, 2, and 8 threads through the
//      DURABLE TrustService path, at two adversary fractions, and the
//      durable run matches the in-memory run byte for byte;
//   3. monotonicity — the headline degradation metric does not improve
//      as the adversary fraction grows.

#include "sim/adversary.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "service/persistence.h"
#include "service/trust_service.h"
#include "tests/test_dir.h"

namespace siot::sim {
namespace {

AttackSimConfig SmallConfig(AttackType type, double fraction) {
  AttackSimConfig config;
  config.agents = 48;
  config.rounds = 12;
  config.candidates_per_trustor = 6;
  config.shard_count = 4;
  config.theta = 0.5;
  config.seed = 7;
  config.threads = 1;
  config.attack.type = type;
  config.attack.adversary_fraction = fraction;
  return config;
}

AttackSimResult RunInMemory(const AttackSimConfig& config) {
  service::TrustService service(AttackServiceConfig(config));
  auto result = RunAttackSimulation(service, config);
  SIOT_CHECK(result.ok());
  return std::move(result).value();
}

AttackSimResult RunDurable(const AttackSimConfig& config,
                           const std::string& dir) {
  service::PersistenceOptions options;
  options.directory = dir;
  auto opened = service::TrustService::Open(AttackServiceConfig(config), options);
  SIOT_CHECK(opened.ok());
  auto result = RunAttackSimulation(*opened.value(), config);
  SIOT_CHECK(result.ok());
  return std::move(result).value();
}

std::size_t TotalRefusals(const AttackSimResult& result) {
  std::size_t total = 0;
  for (const ResilienceRoundMetrics& row : result.rounds) {
    total += row.refusals;
  }
  return total;
}

TEST(AdversaryTypeTest, NamesRoundTrip) {
  for (AttackType type :
       {AttackType::kNone, AttackType::kOnOff, AttackType::kBadMouthing,
        AttackType::kWhitewashing, AttackType::kCollusion}) {
    const auto parsed = ParseAttackType(AttackTypeName(type));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, type);
  }
  EXPECT_FALSE(ParseAttackType("sybil").has_value());
  EXPECT_FALSE(ParseAttackType("").has_value());
}

TEST(AdversaryBehaviorTest, FactoryMatchesTypeAndBaseIsHonest) {
  for (AttackType type :
       {AttackType::kNone, AttackType::kOnOff, AttackType::kBadMouthing,
        AttackType::kWhitewashing, AttackType::kCollusion}) {
    AttackParams params;
    params.type = type;
    EXPECT_EQ(MakeAdversaryBehavior(params)->type(), type);
  }
  AttackParams honest;
  honest.type = AttackType::kNone;
  const std::unique_ptr<AdversaryBehavior> behavior =
      MakeAdversaryBehavior(honest);
  EXPECT_FALSE(behavior->Exploits(0, 0, false));
  EXPECT_FALSE(behavior->ShouldWhitewash(1000));
  EXPECT_FALSE(behavior->FilesFakeReports());
  EXPECT_TRUE(behavior->ReportedAbusive(true, false));
  EXPECT_FALSE(behavior->ReportedAbusive(false, false));
}

TEST(AdversaryBehaviorTest, OnOffOscillatesWithStaggeredPhases) {
  AttackParams params;
  params.type = AttackType::kOnOff;
  params.on_rounds = 2;
  params.off_rounds = 2;
  const std::unique_ptr<AdversaryBehavior> behavior =
      MakeAdversaryBehavior(params);
  // Slot 0: honest rounds 0-1, exploiting rounds 2-3, period 4.
  EXPECT_FALSE(behavior->Exploits(0, 0, false));
  EXPECT_FALSE(behavior->Exploits(0, 1, false));
  EXPECT_TRUE(behavior->Exploits(0, 2, false));
  EXPECT_TRUE(behavior->Exploits(0, 3, false));
  EXPECT_FALSE(behavior->Exploits(0, 4, false));
  // Slot 1 runs the same cycle shifted by one round.
  EXPECT_TRUE(behavior->Exploits(1, 1, false));
  EXPECT_FALSE(behavior->Exploits(1, 3, false));
}

// --------------------------------------------------- negative controls --

TEST(AdversaryAttackTest, HonestPopulationHasNoMisdelegations) {
  // kNone marks adversary slots but leaves behavior honest: the ground
  // truth never sees an exploit, and attacker scores track honest ones.
  const AttackSimResult result = RunInMemory(SmallConfig(AttackType::kNone, 0.3));
  EXPECT_EQ(result.misdelegation_rate, 0.0);
  EXPECT_EQ(result.whitewashes, 0u);
  EXPECT_NEAR(result.final_attacker_trust, result.final_honest_trust, 0.05);
}

TEST(AdversaryAttackTest, OnOffDegradesNaiveConfiguration) {
  const AttackSimResult honest = RunInMemory(SmallConfig(AttackType::kNone, 0.3));
  const AttackSimResult attacked =
      RunInMemory(SmallConfig(AttackType::kOnOff, 0.3));
  // The oscillation lands real exploited delegations the honest run
  // never produces...
  EXPECT_EQ(honest.misdelegation_rate, 0.0);
  EXPECT_GT(attacked.misdelegation_rate, 0.02);
  // ...while the long-memory forgetting keeps the attackers' pooled
  // Eq. 18 score close enough to honest to keep being selected.
  EXPECT_GT(attacked.final_attacker_trust,
            0.8 * attacked.final_honest_trust);
}

TEST(AdversaryAttackTest, BadMouthingShieldsAbuseAndStarvesHonestTrustors) {
  const AttackSimResult honest = RunInMemory(SmallConfig(AttackType::kNone, 0.3));
  const AttackSimResult attacked =
      RunInMemory(SmallConfig(AttackType::kBadMouthing, 0.3));
  // Ballot-stuffing: accomplices' abusive uses are reported responsive,
  // so the reverse evaluator never curbs them — the realized abuse rate
  // climbs well past the honest baseline.
  EXPECT_GT(attacked.abuse_rate, honest.abuse_rate + 0.05);
  // Bad-mouthing: honest trustors' reverse trustworthiness decays below
  // θ at the adversary trustees, which show up as refusals.
  EXPECT_GT(TotalRefusals(attacked), TotalRefusals(honest));
  // Executions themselves stay honest — no exploit ground truth.
  EXPECT_EQ(attacked.misdelegation_rate, 0.0);
}

TEST(AdversaryAttackTest, WhitewashingEvadesDetectionViaIdentityResets) {
  AttackSimConfig with_resets = SmallConfig(AttackType::kWhitewashing, 0.3);
  with_resets.attack.whitewash_after_uses = 3;
  AttackSimConfig without_resets = with_resets;
  without_resets.attack.whitewash_after_uses = 1000000;  // never re-enters
  const AttackSimResult washed = RunInMemory(with_resets);
  const AttackSimResult pinned = RunInMemory(without_resets);
  EXPECT_GT(washed.whitewashes, 0u);
  EXPECT_EQ(pinned.whitewashes, 0u);
  // A pinned identity is hammered down by its always-exploit record; a
  // whitewashed one keeps re-entering at the optimistic newcomer score.
  EXPECT_GT(washed.final_attacker_trust, pinned.final_attacker_trust + 0.02);
  // And the fresh identities keep drawing delegations.
  EXPECT_GE(washed.misdelegation_rate, pinned.misdelegation_rate);
  EXPECT_GT(washed.misdelegation_rate, 0.02);
}

TEST(AdversaryAttackTest, CollusionFakeReportsBoostCliqueAndSmearHonest) {
  AttackSimConfig with_fakes = SmallConfig(AttackType::kCollusion, 0.3);
  with_fakes.attack.fake_reports_per_member = 2;
  AttackSimConfig without_fakes = with_fakes;
  without_fakes.attack.fake_reports_per_member = 0;
  const AttackSimResult colluding = RunInMemory(with_fakes);
  const AttackSimResult quiet = RunInMemory(without_fakes);
  // Intra-clique boosting props the clique's pooled score up past what
  // its (exploiting) behavior earns without the fakes...
  EXPECT_GT(colluding.final_attacker_trust, quiet.final_attacker_trust);
  // ...and extra-clique smearing drags honest trustees below the
  // honest-population baseline.
  const AttackSimResult honest = RunInMemory(SmallConfig(AttackType::kNone, 0.3));
  EXPECT_LT(colluding.final_honest_trust, honest.final_honest_trust - 0.02);
}

// -------------------------------------------------------- monotonicity --

TEST(AdversaryMonotonicityTest, DegradationDoesNotImproveWithIntensity) {
  const std::vector<double> fractions = {0.0, 0.2, 0.4};
  double last_misdelegation = -1.0;
  double last_abuse = -1.0;
  double last_honest = 2.0;
  std::size_t last_whitewashes = 0;
  for (const double fraction : fractions) {
    const AttackSimResult onoff =
        RunInMemory(SmallConfig(AttackType::kOnOff, fraction));
    EXPECT_GE(onoff.misdelegation_rate, last_misdelegation)
        << "onoff misdelegation fell at fraction " << fraction;
    last_misdelegation = onoff.misdelegation_rate;

    const AttackSimResult badmouth =
        RunInMemory(SmallConfig(AttackType::kBadMouthing, fraction));
    EXPECT_GE(badmouth.abuse_rate, last_abuse)
        << "badmouth abuse rate fell at fraction " << fraction;
    last_abuse = badmouth.abuse_rate;

    const AttackSimResult collusion =
        RunInMemory(SmallConfig(AttackType::kCollusion, fraction));
    EXPECT_LE(collusion.final_honest_trust, last_honest)
        << "collusion honest trust rose at fraction " << fraction;
    last_honest = collusion.final_honest_trust;

    AttackSimConfig whitewash = SmallConfig(AttackType::kWhitewashing, fraction);
    whitewash.attack.whitewash_after_uses = 3;
    const AttackSimResult washed = RunInMemory(whitewash);
    EXPECT_GE(washed.whitewashes, last_whitewashes)
        << "whitewash count fell at fraction " << fraction;
    last_whitewashes = washed.whitewashes;
  }
  EXPECT_GT(last_misdelegation, 0.0);
  EXPECT_GT(last_abuse, 0.0);
  EXPECT_LT(last_honest, 1.0);
  EXPECT_GT(last_whitewashes, 0u);
}

// --------------------------------------------------------- determinism --

TEST(AdversaryDeterminismTest, DurableRunsBitIdenticalAcrossThreadCounts) {
  // Acceptance criterion: every attack family, at two adversary
  // fractions, through the durable TrustService path (WAL + checkpoint
  // replay under the adversarial write pattern), bit-identical at
  // 1/2/8 threads — full resilience table AND serialized shard states.
  int case_index = 0;
  for (AttackType type :
       {AttackType::kOnOff, AttackType::kBadMouthing,
        AttackType::kWhitewashing, AttackType::kCollusion}) {
    for (const double fraction : {0.15, 0.35}) {
      AttackSimConfig config = SmallConfig(type, fraction);
      config.agents = 32;
      config.rounds = 8;
      config.threads = 1;
      const AttackSimResult reference = RunDurable(
          config, MakeTestDir(StrFormat("t1_%d", case_index)));
      for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
        config.threads = threads;
        const AttackSimResult run = RunDurable(
            config, MakeTestDir(StrFormat("t%zu_%d", threads, case_index)));
        EXPECT_EQ(run, reference)
            << AttackTypeName(type) << " fraction " << fraction
            << " diverged at " << threads << " threads";
      }
      ++case_index;
    }
  }
}

TEST(AdversaryDeterminismTest, DurablePathMatchesInMemoryEngine) {
  int case_index = 0;
  for (AttackType type :
       {AttackType::kOnOff, AttackType::kBadMouthing,
        AttackType::kWhitewashing, AttackType::kCollusion}) {
    AttackSimConfig config = SmallConfig(type, 0.25);
    config.threads = 2;
    const AttackSimResult memory = RunInMemory(config);
    const AttackSimResult durable = RunDurable(
        config, MakeTestDir("mem_eq_" + std::to_string(case_index++)));
    EXPECT_EQ(memory, durable)
        << AttackTypeName(type) << ": durable diverged from in-memory";
  }
}

TEST(AdversaryDeterminismTest, RepeatedRunsAreIdentical) {
  const AttackSimConfig config = SmallConfig(AttackType::kCollusion, 0.3);
  EXPECT_EQ(RunInMemory(config), RunInMemory(config));
}

TEST(AdversaryDeterminismTest, SeedChangesTheRun) {
  AttackSimConfig a = SmallConfig(AttackType::kOnOff, 0.3);
  AttackSimConfig b = a;
  b.seed = a.seed + 1;
  EXPECT_NE(RunInMemory(a).state_digest, RunInMemory(b).state_digest);
}

}  // namespace
}  // namespace siot::sim
