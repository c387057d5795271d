// The little-endian integer codec of every byte format the repo writes:
// wire frames (net/protocol), WAL records (io/wal), snapshot files
// (io/snapshot_format) and controller snapshot payloads
// (online/online_partitioner).  On a little-endian host a field is one
// memcpy, which compilers lower to a single unaligned load or store; other
// hosts assemble it a byte at a time.  Either way the layout is the same
// and no alignment is assumed.  Reads keep the get_u* names, which lint's
// [parser-bounds] rule looks for in parsers.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace hetsched {

namespace le_detail {

// HETSCHED_NOALLOC
template <typename T>
void store(std::uint8_t* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

// HETSCHED_NOALLOC
template <typename T>
T load(const std::uint8_t* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | static_cast<T>(static_cast<T>(p[i]) << (8 * i)));
    }
  }
  return v;
}

}  // namespace le_detail

inline void put_u16(std::uint8_t* p, std::uint16_t v) { le_detail::store(p, v); }
inline void put_u32(std::uint8_t* p, std::uint32_t v) { le_detail::store(p, v); }
inline void put_u64(std::uint8_t* p, std::uint64_t v) { le_detail::store(p, v); }

inline std::uint16_t get_u16(const std::uint8_t* p) {
  return le_detail::load<std::uint16_t>(p);
}
inline std::uint32_t get_u32(const std::uint8_t* p) {
  return le_detail::load<std::uint32_t>(p);
}
inline std::uint64_t get_u64(const std::uint8_t* p) {
  return le_detail::load<std::uint64_t>(p);
}

// Appends the sizeof(T) bytes of `v`; T is the field's width, named at the
// call site (put_le<std::uint32_t>(out, x)).
template <typename T>
void put_le(std::vector<std::uint8_t>& out, T v) {
  static_assert(std::is_unsigned_v<T>);
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  le_detail::store(out.data() + at, v);
}

}  // namespace hetsched
