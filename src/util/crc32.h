// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over a byte range.
// Used by the WAL record framing and the snapshot file format to detect
// torn or corrupted bytes.
//
// Slicing-by-8: table k holds the CRC of a byte followed by k zero bytes,
// so one 8-byte step folds two little-endian words through eight
// independent lookups instead of eight dependent ones.  The words are read
// through util/little_endian.h, so a big-endian host computes the same
// values; the byte-at-a-time step (table 0 alone) runs only for the tail.
// The eight tables (8 KB) are built at compile time, so the checksum of a
// record stays allocation-free on the append path.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/little_endian.h"

namespace hetsched {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

}  // namespace detail

// Incremental form: pass the previous return value as `seed` to extend a
// checksum over discontiguous ranges; seed 0 starts a fresh checksum.
// HETSCHED_NOALLOC
inline std::uint32_t crc32(const void* data, std::size_t n,
                           std::uint32_t seed = 0) {
  const auto& t = detail::kCrc32Tables;
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = get_u32(p) ^ c;
    const std::uint32_t hi = get_u32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu];
    c ^= t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu];
    c ^= t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace hetsched
