// Copyright 2026 The siot-trust Authors.
// Engine-state serialization: the extension of the PR 2 byte-identity
// guarantee to everything a service-shard checkpoint must carry — task
// catalog (including non-uniform weights), reverse-evaluation thresholds
// and usage histories, environment indicators, and the trust store.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "common/rng.h"
#include "trust/trust_engine.h"
#include "trust/trust_store_io.h"

namespace siot::trust {
namespace {

TrustEngineConfig MakeConfig() {
  TrustEngineConfig config;
  config.beta = ForgettingFactors::Uniform(0.25);
  config.initial_estimates = {0.5, 0.5, 0.5, 0.5};
  return config;
}

/// Builds an arbitrary engine state from a seed: random tasks (uniform
/// and weighted — three equal weights hit the 1/3+1/3+1/3 != 1.0 case
/// the restore path must not renormalize), outcomes, usage histories,
/// thresholds, and environment indicators.
TrustEngine MakeEngine(std::uint64_t seed) {
  Rng rng(seed);
  TrustEngine engine(MakeConfig());
  const std::size_t tasks = 1 + rng.NextBounded(4);
  for (std::size_t i = 0; i < tasks; ++i) {
    const std::string name = "task_" + std::to_string(seed) + "_" +
                             std::to_string(i);
    if (i % 2 == 0) {
      SIOT_CHECK(engine.catalog()
                     .AddUniform(name, {static_cast<CharacteristicId>(i),
                                        static_cast<CharacteristicId>(i + 1),
                                        static_cast<CharacteristicId>(i + 2)})
                     .ok());
    } else {
      SIOT_CHECK(engine.catalog()
                     .Add(name,
                          {{static_cast<CharacteristicId>(i), rng.NextDouble() + 0.1},
                           {static_cast<CharacteristicId>(i + 3),
                            rng.NextDouble() + 0.1}})
                     .ok());
    }
  }
  const std::size_t reports = rng.NextBounded(60);
  for (std::size_t i = 0; i < reports; ++i) {
    const auto trustor = static_cast<AgentId>(rng.NextBounded(12));
    const auto trustee = static_cast<AgentId>(rng.NextBounded(12));
    const auto task = static_cast<TaskId>(rng.NextBounded(tasks));
    DelegationOutcome outcome;
    outcome.success = rng.Bernoulli(0.6);
    outcome.gain = rng.NextDouble();
    outcome.damage = rng.NextDouble();
    outcome.cost = rng.NextDouble();
    engine.ReportOutcome(trustor, trustee, task, outcome,
                         rng.Bernoulli(0.3));
  }
  const std::size_t thresholds = rng.NextBounded(6);
  for (std::size_t i = 0; i < thresholds; ++i) {
    engine.reverse_evaluator().SetThreshold(
        static_cast<AgentId>(rng.NextBounded(12)),
        rng.Bernoulli(0.5) ? kNoTask
                           : static_cast<TaskId>(rng.NextBounded(tasks)),
        rng.NextDouble());
  }
  engine.reverse_evaluator().SetDefaultThreshold(rng.NextDouble());
  const std::size_t indicators = rng.NextBounded(6);
  for (std::size_t i = 0; i < indicators; ++i) {
    engine.environment().SetIndicator(
        static_cast<AgentId>(rng.NextBounded(12)),
        0.25 + 0.75 * rng.NextDouble());
  }
  engine.environment().SetDefaultIndicator(0.5 + 0.5 * rng.NextDouble());
  return engine;
}

TEST(EngineIoTest, SerializeDeserializeSerializeIsByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const TrustEngine original = MakeEngine(seed);
    const std::string first = SerializeTrustEngineState(original);
    TrustEngine loaded(MakeConfig());
    ASSERT_TRUE(DeserializeTrustEngineState(first, &loaded).ok())
        << "seed " << seed;
    const std::string second = SerializeTrustEngineState(loaded);
    EXPECT_EQ(first, second) << "seed " << seed;
    // And the format is a fixed point through one more generation.
    TrustEngine reloaded(MakeConfig());
    ASSERT_TRUE(DeserializeTrustEngineState(second, &reloaded).ok());
    EXPECT_EQ(SerializeTrustEngineState(reloaded), first)
        << "seed " << seed;
  }
}

TEST(EngineIoTest, RestoredStateAnswersIdentically) {
  const TrustEngine original = MakeEngine(42);
  TrustEngine loaded(MakeConfig());
  ASSERT_TRUE(
      DeserializeTrustEngineState(SerializeTrustEngineState(original),
                                  &loaded)
          .ok());
  for (AgentId trustor = 0; trustor < 12; ++trustor) {
    for (AgentId trustee = 0; trustee < 12; ++trustee) {
      for (TaskId task = 0; task < original.catalog().size(); ++task) {
        EXPECT_EQ(original.PreEvaluate(trustor, trustee, task),
                  loaded.PreEvaluate(trustor, trustee, task));
      }
      EXPECT_EQ(original.reverse_evaluator().ReverseTrustworthiness(
                    trustee, trustor),
                loaded.reverse_evaluator().ReverseTrustworthiness(
                    trustee, trustor));
    }
    EXPECT_EQ(original.environment().Indicator(trustor),
              loaded.environment().Indicator(trustor));
  }
}

TEST(EngineIoTest, WeightedTaskWeightsSurviveExactly) {
  // 1/3 weights do not sum to exactly 1.0 in binary; a deserializer that
  // renormalized would perturb them and break byte identity.
  TrustEngine engine(MakeConfig());
  ASSERT_TRUE(engine.catalog().AddUniform("three", {0, 1, 2}).ok());
  TrustEngine loaded(MakeConfig());
  ASSERT_TRUE(
      DeserializeTrustEngineState(SerializeTrustEngineState(engine),
                                  &loaded)
          .ok());
  const Task& original = engine.catalog().Get(0);
  const Task& restored = loaded.catalog().Get(0);
  ASSERT_EQ(original.parts().size(), restored.parts().size());
  for (std::size_t i = 0; i < original.parts().size(); ++i) {
    EXPECT_EQ(original.parts()[i].weight, restored.parts()[i].weight);
  }
}

TEST(EngineIoTest, AwkwardTaskNamesRoundTrip) {
  TrustEngine engine(MakeConfig());
  const std::string name = "sense # 100% of the time\tplus\nnewlines";
  ASSERT_TRUE(engine.catalog().AddUniform(name, {0}).ok());
  TrustEngine loaded(MakeConfig());
  ASSERT_TRUE(
      DeserializeTrustEngineState(SerializeTrustEngineState(engine),
                                  &loaded)
          .ok());
  EXPECT_EQ(loaded.catalog().Get(0).name(), name);
  EXPECT_TRUE(loaded.catalog().FindByName(name).ok());
}

TEST(EngineIoTest, RestoreIntoUsedEngineIsFailedPrecondition) {
  const TrustEngine original = MakeEngine(3);
  TrustEngine used(MakeConfig());
  ASSERT_TRUE(used.catalog().AddUniform("existing", {0}).ok());
  EXPECT_EQ(DeserializeTrustEngineState(
                SerializeTrustEngineState(original), &used)
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(DeserializeTrustEngineState("", nullptr)
                  .IsInvalidArgument());
}

TEST(EngineIoTest, CorruptionMessagesPinpointTheLine) {
  // A bad line deep in a checkpoint must be findable: line number, byte
  // offset of the line, and a snippet of the offending text.
  const std::string good =
      "task 0 gps 1 0:1\n"
      "default_theta 0\n"
      "default_env 1\n";
  const std::string bad_line = "usage 3 4 NOT_A_NUMBER 9";
  TrustEngine engine(MakeConfig());
  const Status status =
      DeserializeTrustEngineState(good + bad_line + "\n", &engine);
  ASSERT_EQ(status.code(), StatusCode::kCorruption);
  const std::string& message = status.message();
  EXPECT_NE(message.find("line 4"), std::string::npos) << message;
  EXPECT_NE(message.find("byte offset " + std::to_string(good.size())),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("usage 3 4 NOT_A_NUMBER 9"), std::string::npos)
      << message;
}

TEST(EngineIoTest, DuplicateKeyedEntriesAreCorruption) {
  TrustEngine engine(MakeConfig());
  EXPECT_EQ(DeserializeTrustEngineState(
                "threshold 1 * 0.5\nthreshold 1 * 0.5\n", &engine)
                .code(),
            StatusCode::kCorruption);
  TrustEngine engine2(MakeConfig());
  EXPECT_EQ(
      DeserializeTrustEngineState("env 1 0.5\nenv 1 0.25\n", &engine2)
          .code(),
      StatusCode::kCorruption);
  TrustEngine engine3(MakeConfig());
  EXPECT_EQ(DeserializeTrustEngineState(
                "usage 1 2 3 4\nusage 1 2 3 4\n", &engine3)
                .code(),
            StatusCode::kCorruption);
  TrustEngine engine4(MakeConfig());
  EXPECT_EQ(DeserializeTrustEngineState(
                "task 1 misnumbered 1 0:1\n", &engine4)
                .code(),
            StatusCode::kCorruption)
      << "out-of-order task ids";
  TrustEngine engine5(MakeConfig());
  EXPECT_EQ(DeserializeTrustEngineState(
                "task 0 gps 1 0:1\n"
                "record 1 2 0 0.5 0.5 0.5 0.5 1\n"
                "record 1 2 0 0.5 0.5 0.5 0.5 1\n",
                &engine5)
                .code(),
            StatusCode::kCorruption)
      << "duplicate record";
}

TEST(EngineIoTest, OutOfRangeIndicatorIsCorruptionNotACheckFailure) {
  TrustEngine engine(MakeConfig());
  EXPECT_EQ(DeserializeTrustEngineState("env 1 7.5\n", &engine).code(),
            StatusCode::kCorruption);
  TrustEngine engine2(MakeConfig());
  EXPECT_EQ(
      DeserializeTrustEngineState("default_env 0\n", &engine2).code(),
      StatusCode::kCorruption);
}

TEST(EngineIoTest, OutOfRangeCharacteristicIsCorruptionNotTruncated) {
  // Truncating 300 → 44 through the uint8 cast would silently accept
  // corruption as a different characteristic.
  TrustEngine engine(MakeConfig());
  EXPECT_EQ(DeserializeTrustEngineState("task 0 gps 1 300:1\n", &engine)
                .code(),
            StatusCode::kCorruption);
  TrustEngine engine2(MakeConfig());
  EXPECT_EQ(DeserializeTrustEngineState("task 0 gps 1 64:1\n", &engine2)
                .code(),
            StatusCode::kCorruption);
  TrustEngine engine3(MakeConfig());
  EXPECT_EQ(DeserializeTrustEngineState("task 0 gps 0\n", &engine3).code(),
            StatusCode::kCorruption)
      << "a task the catalog refuses";
}

TEST(EngineIoTest, NanThetaIsCorruption) {
  TrustEngine engine(MakeConfig());
  EXPECT_EQ(
      DeserializeTrustEngineState("threshold 5 * nan\n", &engine).code(),
      StatusCode::kCorruption);
}

}  // namespace
}  // namespace siot::trust
