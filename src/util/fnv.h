// FNV-1a folding over 64-bit words — the repo-wide decision-checksum
// primitive.  One definition here; net/trace_replay.h and the durability
// layer (online decision checksum, WAL records) all fold through it so
// checksums stay comparable across modules.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace hetsched {

inline constexpr std::uint64_t kFnv1aOffsetBasis = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001B3ULL;

namespace detail {

// P^0 .. P^8 mod 2^64, P = kFnv1aPrime.
constexpr std::array<std::uint64_t, 9> make_fnv1a_prime_powers() {
  std::array<std::uint64_t, 9> pw{};
  pw[0] = 1;
  for (std::size_t i = 1; i < pw.size(); ++i) pw[i] = pw[i - 1] * kFnv1aPrime;
  return pw;
}

inline constexpr std::array<std::uint64_t, 9> kFnv1aPrimePowers =
    make_fnv1a_prime_powers();

}  // namespace detail

// FNV-1a over the 8 bytes of `v`, little-endian byte order.
//
// Only the k significant low bytes of `v` are folded one by one; the
// 8 - k zero bytes above them collapse into one multiply by P^(8-k).  That
// is exact: XOR with a zero byte is the identity, so each zero byte's step
// is h *= P alone, and 8 - k such steps in a row multiply h by P^(8-k)
// because multiplication mod 2^64 associates.  Decision folds are mostly
// small values (op tags, flags, ids, machine indices), so most bytes are
// zero.
// HETSCHED_NOALLOC
inline std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  std::size_t k = 0;
  for (; v != 0; v >>= 8, ++k) {
    h ^= v & 0xFF;
    h *= kFnv1aPrime;
  }
  return h * detail::kFnv1aPrimePowers[8 - k];
}

}  // namespace hetsched
