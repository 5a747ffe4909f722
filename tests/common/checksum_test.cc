// Copyright 2026 The siot-trust Authors.

#include "common/checksum.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace siot {
namespace {

// The definition of CRC-32C, one bit at a time over the reflected
// Castagnoli polynomial: slow, but shares no table or instruction with
// either kernel under test.
std::uint32_t OracleCrc32c(std::string_view data, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (const char c : data) {
    crc ^= static_cast<unsigned char>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

std::string RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.Next() & 0xFFu);
  return bytes;
}

// RFC 3720 (iSCSI), appendix B.4, plus the standard check value.
TEST(Crc32cTest, KnownAnswers) {
  const std::string ascending = [] {
    std::string s;
    for (int i = 0; i < 32; ++i) s.push_back(static_cast<char>(i));
    return s;
  }();
  const std::string descending(ascending.rbegin(), ascending.rend());
  const struct {
    std::string data;
    std::uint32_t crc;
  } cases[] = {
      {"123456789", 0xE3069283u},
      {std::string(32, '\0'), 0x8A9136AAu},
      {std::string(32, '\xFF'), 0x62A8AB43u},
      {ascending, 0x46DD794Eu},
      {descending, 0x113FDB5Cu},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(Crc32c(c.data), c.crc) << c.data.size() << " bytes";
    EXPECT_EQ(internal::Crc32cPortable(c.data, 0), c.crc);
    EXPECT_EQ(OracleCrc32c(c.data, 0), c.crc);
  }
  EXPECT_EQ(Crc32c(""), 0u);
  EXPECT_EQ(internal::Crc32cPortable("", 0), 0u);
}

TEST(Crc32cTest, SeedContinuesAtEverySplitPoint) {
  const std::string data = RandomBytes(300, 1);
  const std::uint32_t whole = Crc32c(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::string_view a = std::string_view(data).substr(0, split);
    const std::string_view b = std::string_view(data).substr(split);
    EXPECT_EQ(Crc32c(b, Crc32c(a)), whole) << "split " << split;
    EXPECT_EQ(internal::Crc32cPortable(b, internal::Crc32cPortable(a, 0)),
              whole)
        << "split " << split;
  }
}

// The dispatched kernel (SSE4.2 on most x86-64 hosts) and the portable
// one must agree with the oracle at every length around the 8-byte word
// boundary, at every alignment, and from any seed.
TEST(Crc32cTest, KernelsMatchOracleAcrossLengthsOffsetsAndSeeds) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  lengths.push_back(4096);
  lengths.push_back(std::size_t{1} << 20);
  const std::uint32_t seeds[] = {0u, 1u, 0xFFFFFFFFu, 0xE3069283u};
  const std::string buffer = RandomBytes((std::size_t{1} << 20) + 8, 7);
  for (const std::size_t n : lengths) {
    // The 1 MiB case runs one seed per offset to keep the bit-serial
    // oracle's cost down; shorter ones run every seed.
    const bool big = n > 4096;
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::string_view data =
          std::string_view(buffer).substr(offset, n);
      for (std::size_t s = big ? offset % 4 : 0; s < 4;
           s += big ? 4 : 1) {
        const std::uint32_t want = OracleCrc32c(data, seeds[s]);
        ASSERT_EQ(Crc32c(data, seeds[s]), want)
            << "length " << n << " offset " << offset << " seed " << s;
        ASSERT_EQ(internal::Crc32cPortable(data, seeds[s]), want)
            << "length " << n << " offset " << offset << " seed " << s;
      }
    }
  }
}

TEST(Crc32cTest, MaskRotatesAndOffsets) {
  EXPECT_EQ(Crc32cMask(0u), 0xA282EAD8u);
  EXPECT_EQ(Crc32cMask(0x00008000u), 0xA282EAD9u);
  EXPECT_NE(Crc32cMask(Crc32c("123456789")), Crc32c("123456789"));
}

}  // namespace
}  // namespace siot
