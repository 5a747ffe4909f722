// Copyright 2026 The siot-trust Authors.
//
// The `record` lines of the engine-state text format: the record
// round trip, canonical output and the record-line parse errors, all
// through SerializeTrustEngineState / DeserializeTrustEngineState.

#include "trust/trust_store_io.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "trust/trust_engine.h"

namespace siot::trust {
namespace {

/// An engine holding `records` random trust records and nothing else.
TrustEngine MakeEngine(std::uint64_t seed, std::size_t records) {
  Rng rng(seed);
  TrustEngine engine;
  TrustStore& store = engine.store();
  for (std::size_t i = 0; i < records; ++i) {
    const auto trustor = static_cast<AgentId>(rng.NextBounded(20));
    const auto trustee = static_cast<AgentId>(rng.NextBounded(20));
    const auto task = static_cast<TaskId>(rng.NextBounded(5));
    store.Put(trustor, trustee, task,
              {rng.NextDouble(), rng.NextDouble(), rng.NextDouble(),
               rng.NextDouble()});
    TrustRecord& record = store.GetOrCreate(trustor, trustee, task);
    record.observations = rng.NextBounded(100);
  }
  return engine;
}

TEST(TrustStoreIoTest, RoundTripExact) {
  const TrustEngine original = MakeEngine(1, 40);
  TrustEngine loaded;
  ASSERT_TRUE(
      DeserializeTrustEngineState(SerializeTrustEngineState(original), &loaded)
          .ok());
  EXPECT_EQ(loaded.store().size(), original.store().size());
  for (const auto& [key, record] : original.store().AllRecords()) {
    const auto found =
        loaded.store().Find(key.trustor, key.trustee, key.task);
    ASSERT_TRUE(found.has_value());
    // %.17g round-trips doubles exactly.
    EXPECT_EQ(found->estimates, record.estimates);
    EXPECT_EQ(found->observations, record.observations);
  }
}

TEST(TrustStoreIoTest, SerializationIsCanonical) {
  // Same logical content -> identical bytes regardless of insert order.
  TrustStore a, b;
  a.Put(1, 2, 0, {0.5, 0.5, 0.5, 0.5});
  a.Put(0, 1, 1, {0.25, 0.5, 0.75, 1.0});
  b.Put(0, 1, 1, {0.25, 0.5, 0.75, 1.0});
  b.Put(1, 2, 0, {0.5, 0.5, 0.5, 0.5});
  EXPECT_EQ(SerializeTrustStore(a), SerializeTrustStore(b));
}

TEST(TrustStoreIoTest, EmptyStore) {
  const TrustEngine empty;
  TrustEngine loaded;
  ASSERT_TRUE(
      DeserializeTrustEngineState(SerializeTrustEngineState(empty), &loaded)
          .ok());
  EXPECT_EQ(loaded.store().size(), 0u);
}

TEST(TrustStoreIoTest, CommentsAndBlanksAccepted) {
  TrustEngine engine;
  ASSERT_TRUE(DeserializeTrustEngineState(
                  "# header\n\nrecord 1 2 3 0.5 0.5 0.5 0.5 7 # tail\n",
                  &engine)
                  .ok());
  ASSERT_TRUE(engine.store().Has(1, 2, 3));
  EXPECT_EQ(engine.store().Find(1, 2, 3)->observations, 7u);
}

TEST(TrustStoreIoTest, MalformedInputRejected) {
  for (const char* text : {"bogus 1 2\n", "record 1 2 3 0.5\n",
                           "record 1 2 3 x 0.5 0.5 0.5 1\n",
                           "record -1 2 3 0.5 0.5 0.5 0.5 1\n"}) {
    TrustEngine engine;
    EXPECT_EQ(DeserializeTrustEngineState(text, &engine).code(),
              StatusCode::kCorruption)
        << text;
  }
  EXPECT_TRUE(
      DeserializeTrustEngineState("record 1 2 3 0.5 0.5 0.5 0.5 1\n", nullptr)
          .IsInvalidArgument());
}

TEST(TrustStoreIoTest, CorruptionMessagePinpointsLineOffsetAndContent) {
  // A bad record inside a multi-megabyte checkpoint must be findable:
  // the message names the line, the byte offset of that line, and quotes
  // the offending text.
  const std::string good =
      "record 1 2 3 0.5 0.5 0.5 0.5 1\n"
      "record 4 5 6 0.5 0.5 0.5 0.5 2\n";
  const std::string bad = "record 7 8 9 0.5 BROKEN 0.5 0.5 3";
  TrustEngine engine;
  const Status status =
      DeserializeTrustEngineState(good + bad + "\n", &engine);
  ASSERT_EQ(status.code(), StatusCode::kCorruption);
  const std::string& message = status.message();
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("byte offset " + std::to_string(good.size())),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("'record 7 8 9 0.5 BROKEN 0.5 0.5 3'"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("BROKEN"), std::string::npos) << message;
  // Long lines are quoted truncated, not dumped wholesale.
  TrustEngine engine2;
  const Status long_status = DeserializeTrustEngineState(
      "record " + std::string(500, '9') + "\n", &engine2);
  ASSERT_EQ(long_status.code(), StatusCode::kCorruption);
  EXPECT_LT(long_status.message().size(), 200u);
  EXPECT_NE(long_status.message().find("..."), std::string::npos);
}

TEST(TrustStoreIoTest, SerializeDeserializeSerializeIsByteIdentical) {
  const TrustEngine original = MakeEngine(7, 60);
  const std::string first = SerializeTrustEngineState(original);
  TrustEngine loaded;
  ASSERT_TRUE(DeserializeTrustEngineState(first, &loaded).ok());
  const std::string second = SerializeTrustEngineState(loaded);
  EXPECT_EQ(first, second);
  // And once more through a fresh engine: the format is a fixed point.
  TrustEngine reloaded;
  ASSERT_TRUE(DeserializeTrustEngineState(second, &reloaded).ok());
  EXPECT_EQ(SerializeTrustEngineState(reloaded), first);
}

TEST(TrustStoreIoTest, DuplicateRecordLineIsCorruption) {
  TrustEngine engine;
  const Status status = DeserializeTrustEngineState(
      "record 1 2 3 0.5 0.5 0.5 0.5 1\n"
      "record 4 5 6 0.5 0.5 0.5 0.5 1\n"
      "record 1 2 3 0.9 0.9 0.9 0.9 7\n",
      &engine);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.ToString().find("duplicate"), std::string::npos);
  // Distinct tasks for the same pair are NOT duplicates.
  TrustEngine ok_engine;
  EXPECT_TRUE(DeserializeTrustEngineState(
                  "record 1 2 3 0.5 0.5 0.5 0.5 1\n"
                  "record 1 2 4 0.5 0.5 0.5 0.5 1\n",
                  &ok_engine)
                  .ok());
  EXPECT_EQ(ok_engine.store().size(), 2u);
}

TEST(TrustStoreIoTest, DeserializeSetsObservationsInOneInsert) {
  TrustEngine engine;
  ASSERT_TRUE(
      DeserializeTrustEngineState("record 9 8 7 0.25 0.5 0.75 1 13\n", &engine)
          .ok());
  const auto record = engine.store().Find(9, 8, 7);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->observations, 13u);
  EXPECT_DOUBLE_EQ(record->estimates.cost, 1.0);
}

}  // namespace
}  // namespace siot::trust
