// Copyright 2026 The siot-trust Authors.

#include "trust/trust_store_io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/rng.h"

namespace siot::trust {
namespace {

TrustStore MakeStore(std::uint64_t seed, std::size_t records) {
  Rng rng(seed);
  TrustStore store;
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
  return store;
}

TEST(TrustStoreIoTest, RoundTripExact) {
  const TrustStore original = MakeStore(1, 40);
  TrustStore loaded;
  ASSERT_TRUE(
      DeserializeTrustStore(SerializeTrustStore(original), &loaded).ok());
  EXPECT_EQ(loaded.size(), original.size());
  for (const auto& [key, record] : original.AllRecords()) {
    const auto found = loaded.Find(key.trustor, key.trustee, key.task);
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
  TrustStore store;
  TrustStore loaded;
  ASSERT_TRUE(
      DeserializeTrustStore(SerializeTrustStore(store), &loaded).ok());
  EXPECT_EQ(loaded.size(), 0u);
}

TEST(TrustStoreIoTest, CommentsAndBlanksAccepted) {
  TrustStore store;
  ASSERT_TRUE(DeserializeTrustStore(
                  "# header\n\nrecord 1 2 3 0.5 0.5 0.5 0.5 7 # tail\n",
                  &store)
                  .ok());
  ASSERT_TRUE(store.Has(1, 2, 3));
  EXPECT_EQ(store.Find(1, 2, 3)->observations, 7u);
}

TEST(TrustStoreIoTest, MalformedInputRejected) {
  TrustStore store;
  EXPECT_TRUE(DeserializeTrustStore("bogus 1 2\n", &store)
                  .code() == StatusCode::kCorruption);
  EXPECT_TRUE(DeserializeTrustStore("record 1 2 3 0.5\n", &store)
                  .code() == StatusCode::kCorruption);
  EXPECT_TRUE(DeserializeTrustStore("record 1 2 3 x 0.5 0.5 0.5 1\n",
                                    &store)
                  .code() == StatusCode::kCorruption);
  EXPECT_TRUE(DeserializeTrustStore("record -1 2 3 0.5 0.5 0.5 0.5 1\n",
                                    &store)
                  .code() == StatusCode::kCorruption);
  EXPECT_TRUE(
      DeserializeTrustStore("record 1 2 3 0.5 0.5 0.5 0.5 1\n", nullptr)
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
  TrustStore store;
  const Status status = DeserializeTrustStore(good + bad + "\n", &store);
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
  TrustStore store2;
  const Status long_status = DeserializeTrustStore(
      "record " + std::string(500, '9') + "\n", &store2);
  ASSERT_EQ(long_status.code(), StatusCode::kCorruption);
  EXPECT_LT(long_status.message().size(), 200u);
  EXPECT_NE(long_status.message().find("..."), std::string::npos);
}

TEST(TrustStoreIoTest, SerializeDeserializeSerializeIsByteIdentical) {
  const TrustStore original = MakeStore(7, 60);
  const std::string first = SerializeTrustStore(original);
  TrustStore loaded;
  ASSERT_TRUE(DeserializeTrustStore(first, &loaded).ok());
  const std::string second = SerializeTrustStore(loaded);
  EXPECT_EQ(first, second);
  // And once more through a fresh store: the format is a fixed point.
  TrustStore reloaded;
  ASSERT_TRUE(DeserializeTrustStore(second, &reloaded).ok());
  EXPECT_EQ(SerializeTrustStore(reloaded), first);
}

TEST(TrustStoreIoTest, DuplicateRecordLineIsCorruption) {
  TrustStore store;
  const Status status = DeserializeTrustStore(
      "record 1 2 3 0.5 0.5 0.5 0.5 1\n"
      "record 4 5 6 0.5 0.5 0.5 0.5 1\n"
      "record 1 2 3 0.9 0.9 0.9 0.9 7\n",
      &store);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.ToString().find("duplicate"), std::string::npos);
  // Distinct tasks for the same pair are NOT duplicates.
  TrustStore ok_store;
  EXPECT_TRUE(DeserializeTrustStore(
                  "record 1 2 3 0.5 0.5 0.5 0.5 1\n"
                  "record 1 2 4 0.5 0.5 0.5 0.5 1\n",
                  &ok_store)
                  .ok());
  EXPECT_EQ(ok_store.size(), 2u);
  // Into a store that already holds records: overwriting one of them is
  // allowed, repeating a key within the input is not.
  EXPECT_TRUE(
      DeserializeTrustStore("record 1 2 3 0.9 0.9 0.9 0.9 7\n", &ok_store)
          .ok());
  EXPECT_EQ(ok_store.Find(1, 2, 3)->observations, 7u);
  EXPECT_EQ(DeserializeTrustStore("record 1 2 4 0.9 0.9 0.9 0.9 7\n"
                                  "record 1 2 4 0.9 0.9 0.9 0.9 7\n",
                                  &ok_store)
                .code(),
            StatusCode::kCorruption);
}

TEST(TrustStoreIoTest, DeserializeSetsObservationsInOneInsert) {
  TrustStore store;
  ASSERT_TRUE(DeserializeTrustStore(
                  "record 9 8 7 0.25 0.5 0.75 1 13\n", &store)
                  .ok());
  const auto record = store.Find(9, 8, 7);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->observations, 13u);
  EXPECT_DOUBLE_EQ(record->estimates.cost, 1.0);
}

TEST(TrustStoreIoTest, LoadOverwritesMatchingKeys) {
  TrustStore store;
  store.Put(1, 2, 3, {0.1, 0.1, 0.1, 0.1});
  ASSERT_TRUE(DeserializeTrustStore(
                  "record 1 2 3 0.9 0.9 0.9 0.9 5\n", &store)
                  .ok());
  EXPECT_DOUBLE_EQ(store.Find(1, 2, 3)->estimates.success_rate, 0.9);
  EXPECT_EQ(store.size(), 1u);
}

TEST(TrustStoreIoTest, FileRoundTrip) {
  const TrustStore original = MakeStore(2, 25);
  const std::string path = ::testing::TempDir() + "/siot_store_test.txt";
  ASSERT_TRUE(SaveTrustStore(original, path).ok());
  TrustStore loaded;
  ASSERT_TRUE(LoadTrustStore(path, &loaded).ok());
  EXPECT_EQ(SerializeTrustStore(loaded), SerializeTrustStore(original));
  std::remove(path.c_str());
}

TEST(TrustStoreIoTest, MissingFileIsIoError) {
  TrustStore store;
  EXPECT_EQ(LoadTrustStore("/no/such/file", &store).code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace siot::trust
