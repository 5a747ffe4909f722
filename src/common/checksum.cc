// Copyright 2026 The siot-trust Authors.

#include "common/checksum.h"

#include <array>

#if defined(__x86_64__)
#include <nmmintrin.h>

#include <cstring>
#endif

namespace siot {

namespace {

// Reflected CRC-32C table for the Castagnoli polynomial 0x1EDC6F41
// (reflected form 0x82F63B78), generated at compile time.
constexpr std::array<std::uint32_t, 256> MakeCrc32cTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32cTable = MakeCrc32cTable();

#if defined(__x86_64__)
// The SSE4.2 `crc32` instruction computes this same reflected CRC-32C,
// eight bytes per step. x86 is little-endian, so a memcpy-loaded word
// feeds the bytes in stream order; the unaligned load is well defined.
__attribute__((target("sse4.2"))) std::uint32_t Crc32cSse42(
    std::string_view data, std::uint32_t seed) {
  const char* p = data.data();
  std::size_t n = data.size();
  std::uint64_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto tail = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++p, --n) {
    tail = _mm_crc32_u8(tail, static_cast<unsigned char>(*p));
  }
  return ~tail;
}
#endif

using Crc32cKernel = std::uint32_t (*)(std::string_view, std::uint32_t);

Crc32cKernel ChooseKernel() {
#if defined(__x86_64__)
  // Crc32c may run from another translation unit's static initializer,
  // before libgcc's own CPU-model constructor.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return internal::Crc32cPortable;
}

}  // namespace

std::uint32_t Crc32c(std::string_view data, std::uint32_t seed) {
  static const Crc32cKernel kernel = ChooseKernel();
  return kernel(data, seed);
}

std::uint32_t Crc32cMask(std::uint32_t crc) {
  // Rotate right by 15 bits and add a constant (LevelDB's masking scheme).
  return ((crc >> 15) | (crc << 17)) + 0xA282EAD8u;
}

namespace internal {

std::uint32_t Crc32cPortable(std::string_view data, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (const char c : data) {
    crc = (crc >> 8) ^
          kCrc32cTable[(crc ^ static_cast<unsigned char>(c)) & 0xFFu];
  }
  return ~crc;
}

}  // namespace internal

}  // namespace siot
