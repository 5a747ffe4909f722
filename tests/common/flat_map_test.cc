// Copyright 2026 The siot-trust Authors.

#include "common/flat_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "trust/types.h"

namespace siot {
namespace {

using Map = FlatMap<std::uint64_t, std::uint64_t>;

/// Every entry ForEach visits, keyed for comparison.
std::map<std::uint64_t, std::uint64_t> Entries(const Map& map) {
  std::map<std::uint64_t, std::uint64_t> out;
  map.ForEach([&out](std::uint64_t key, std::uint64_t value) {
    EXPECT_TRUE(out.emplace(key, value).second) << "key " << key;
  });
  return out;
}

void ExpectMatches(const Map& map,
                   const std::unordered_map<std::uint64_t, std::uint64_t>&
                       oracle) {
  ASSERT_EQ(map.size(), oracle.size());
  const auto entries = Entries(map);
  ASSERT_EQ(entries.size(), oracle.size());
  for (const auto& [key, value] : oracle) {
    const std::uint64_t* found = map.Find(key);
    ASSERT_NE(found, nullptr) << "key " << key;
    EXPECT_EQ(*found, value) << "key " << key;
    EXPECT_EQ(entries.at(key), value) << "key " << key;
  }
}

// A seeded history of inserts, updates and finds, checked step by step
// against std::unordered_map while the table grows from empty through a
// dozen doublings.
TEST(FlatMapTest, MatchesUnorderedMapOverSeededHistory) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    Map map;
    std::unordered_map<std::uint64_t, std::uint64_t> oracle;
    for (int step = 0; step < 40000; ++step) {
      // Keys from a range about as large as the step count, so the
      // history mixes new keys, repeats and misses.
      const std::uint64_t key = rng.NextBounded(20000);
      if (rng.NextBounded(3) == 0) {
        const std::uint64_t* found = map.Find(key);
        const auto it = oracle.find(key);
        ASSERT_EQ(found != nullptr, it != oracle.end()) << "key " << key;
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
        continue;
      }
      const auto [value, inserted] = map.FindOrInsert(key);
      const auto [it, oracle_inserted] = oracle.try_emplace(key, 0);
      ASSERT_EQ(inserted, oracle_inserted) << "key " << key;
      ASSERT_EQ(*value, it->second) << "key " << key;
      *value += step;
      it->second += step;
      ASSERT_EQ(map.size(), oracle.size());
    }
    ExpectMatches(map, oracle);
    EXPECT_GT(map.size(), 10000u);
  }
}

// Keys equal in every low bit differ only above bit 32 (as packed
// (a << 32) | b keys with one b do) or above bit 48; with an identity
// hash and no mixing they would all land in one slot.
TEST(FlatMapTest, KeysSharingLowBitsAllFound) {
  for (const int shift : {32, 48}) {
    Map map;
    for (std::uint64_t i = 0; i < 5000; ++i) {
      const auto [value, inserted] = map.FindOrInsert(i << shift);
      ASSERT_TRUE(inserted);
      *value = i;
    }
    ASSERT_EQ(map.size(), 5000u);
    for (std::uint64_t i = 0; i < 5000; ++i) {
      const std::uint64_t* value = map.Find(i << shift);
      ASSERT_NE(value, nullptr) << i;
      EXPECT_EQ(*value, i);
    }
    EXPECT_EQ(map.Find(std::uint64_t{5000} << shift), nullptr);
  }
}

// A reserved table takes its whole fill without growing: a value's
// address is the same before and after the other keys go in.
TEST(FlatMapTest, ReserveThenFillDoesNotGrow) {
  Map map;
  map.Reserve(1000);
  EXPECT_EQ(map.size(), 0u);
  std::uint64_t* first = map.FindOrInsert(7).first;
  *first = 77;
  for (std::uint64_t key = 1000; key < 1999; ++key) {
    ASSERT_TRUE(map.FindOrInsert(key).second);
  }
  ASSERT_EQ(map.size(), 1000u);
  EXPECT_EQ(map.Find(7), first);
  EXPECT_EQ(*map.Find(7), 77u);
  // Reserving less than the table holds changes nothing.
  map.Reserve(10);
  EXPECT_EQ(map.Find(7), first);
}

// Only an insertion grows the table: finding a present key at every fill
// level, including each one where the next insertion grows it, leaves
// every value where it was.
TEST(FlatMapTest, FindingPresentKeyNeverGrows) {
  Map map;
  const std::uint64_t* seven = map.FindOrInsert(7).first;
  for (std::uint64_t key = 1000; key < 5000; ++key) {
    const auto [value, inserted] = map.FindOrInsert(7);
    ASSERT_FALSE(inserted);
    ASSERT_EQ(value, seven) << "at size " << map.size();
    map.FindOrInsert(key);
    seven = map.Find(7);
  }
}

TEST(FlatMapTest, FindOnEmptyMap) {
  const Map empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.Find(0), nullptr);
  EXPECT_EQ(empty.Find(~std::uint64_t{0}), nullptr);
  int visits = 0;
  empty.ForEach([&visits](std::uint64_t, std::uint64_t) { ++visits; });
  EXPECT_EQ(visits, 0);

  Map reserved;
  reserved.Reserve(100);
  EXPECT_EQ(reserved.Find(0), nullptr);

  Map cleared;
  *cleared.FindOrInsert(3).first = 4;
  cleared.Clear();
  EXPECT_EQ(cleared.size(), 0u);
  EXPECT_EQ(cleared.Find(3), nullptr);
  const auto [value, inserted] = cleared.FindOrInsert(3);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(cleared.Find(3), value);
}

// No key value is reserved: kNoAgent, 0 and the all-ones key are keys
// like any other.
TEST(FlatMapTest, SentinelValuedKeysAreOrdinaryKeys) {
  FlatMap<trust::AgentId, double> map;
  EXPECT_EQ(map.Find(trust::kNoAgent), nullptr);
  *map.FindOrInsert(trust::kNoAgent).first = 0.25;
  *map.FindOrInsert(0).first = 0.5;
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.Find(trust::kNoAgent), nullptr);
  EXPECT_EQ(*map.Find(trust::kNoAgent), 0.25);
  EXPECT_EQ(*map.Find(0), 0.5);
  EXPECT_FALSE(map.FindOrInsert(trust::kNoAgent).second);

  Map wide;
  *wide.FindOrInsert(~std::uint64_t{0}).first = 9;
  EXPECT_EQ(*wide.Find(~std::uint64_t{0}), 9u);
  EXPECT_EQ(wide.Find(0), nullptr);
}

TEST(FlatMapTest, CopyAndMove) {
  Map original;
  for (std::uint64_t key = 0; key < 100; ++key) {
    *original.FindOrInsert(key).first = key * 3;
  }
  Map copy = original;
  *copy.FindOrInsert(5).first = 1;
  *copy.FindOrInsert(500).first = 2;
  EXPECT_EQ(*original.Find(5), 15u);
  EXPECT_EQ(original.Find(500), nullptr);
  EXPECT_EQ(copy.size(), 101u);

  Map assigned;
  *assigned.FindOrInsert(9999).first = 1;
  assigned = original;
  EXPECT_EQ(Entries(assigned), Entries(original));

  const auto before = Entries(original);
  Map moved = std::move(original);
  EXPECT_EQ(Entries(moved), before);
  // A moved-from map is empty and usable.
  EXPECT_EQ(original.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(original.Find(5), nullptr);
  *original.FindOrInsert(5).first = 6;
  EXPECT_EQ(*original.Find(5), 6u);

  Map move_assigned;
  *move_assigned.FindOrInsert(1).first = 1;
  move_assigned = std::move(moved);
  EXPECT_EQ(Entries(move_assigned), before);
  EXPECT_EQ(moved.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.Find(5), nullptr);
}

// Growth moves values rather than copying them, so a pointer into a
// heap buffer a value owns outlives any number of later insertions.
TEST(FlatMapTest, GrowthKeepsValueBuffers) {
  FlatMap<std::uint64_t, std::vector<int>> map;
  std::vector<int>& first = *map.FindOrInsert(0).first;
  first = {1, 2, 3};
  const int* data = first.data();
  for (std::uint64_t key = 1; key < 10000; ++key) map.FindOrInsert(key);
  const std::vector<int>* moved = map.Find(0);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->data(), data);
  EXPECT_EQ(*moved, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace siot
