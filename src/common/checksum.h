// Copyright 2026 The siot-trust Authors.
// CRC-32C (Castagnoli polynomial, as used by RocksDB WALs, iSCSI, ext4).
// The persistence layer frames every write-ahead-log record and checkpoint
// body with this checksum so a torn or bit-flipped file is detected at
// recovery instead of silently loading corrupt trust state.
//
// Kernels: on x86-64 CPUs with SSE4.2, Crc32c runs the `crc32`
// instruction over 8-byte words (~20x the table loop on 4 KiB and larger
// buffers); everywhere else it runs a one-byte-per-lookup table loop. The
// choice is made once, at the first call, from `__builtin_cpu_supports`:
// there is no flag, option or environment switch, and no new compiler
// flag (the fast kernel carries its own `target` attribute). Both kernels
// compute the same function, so the stored bytes and every on-disk format
// are the same whichever one ran.

#ifndef SIOT_COMMON_CHECKSUM_H_
#define SIOT_COMMON_CHECKSUM_H_

#include <cstdint>
#include <string_view>

namespace siot {

/// CRC-32C of `data`, continuing from `seed` (pass the previous result to
/// checksum a logically concatenated buffer in pieces). The empty string
/// with seed 0 hashes to 0.
std::uint32_t Crc32c(std::string_view data, std::uint32_t seed = 0);

/// Masked CRC in the spirit of LevelDB: storing a CRC of data that itself
/// contains CRCs is prone to coincidental matches, so stored checksums are
/// rotated and offset. Verify by comparing Crc32cMask(Crc32c(data)).
std::uint32_t Crc32cMask(std::uint32_t crc);

namespace internal {

/// The portable table-loop kernel Crc32c falls back to. Declared so tests
/// can check it against the dispatched kernel on hosts that never run it.
std::uint32_t Crc32cPortable(std::string_view data, std::uint32_t seed);

}  // namespace internal

}  // namespace siot

#endif  // SIOT_COMMON_CHECKSUM_H_
