// Byte order of the one little-endian codec (util/little_endian.h): every
// width puts its least significant byte first, at any alignment, and
// reads back what it wrote.
#include "util/little_endian.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace hetsched {
namespace {

TEST(LittleEndian, PutsLeastSignificantByteFirst) {
  std::array<std::uint8_t, 8> buf{};
  put_u16(buf.data(), 0x0102);
  EXPECT_EQ(buf[0], 0x02);
  EXPECT_EQ(buf[1], 0x01);
  put_u32(buf.data(), 0x01020304u);
  EXPECT_EQ((std::array<std::uint8_t, 4>{buf[0], buf[1], buf[2], buf[3]}),
            (std::array<std::uint8_t, 4>{0x04, 0x03, 0x02, 0x01}));
  put_u64(buf.data(), 0x0102030405060708ull);
  EXPECT_EQ(buf, (std::array<std::uint8_t, 8>{0x08, 0x07, 0x06, 0x05, 0x04,
                                              0x03, 0x02, 0x01}));
}

TEST(LittleEndian, GetsLeastSignificantByteFirst) {
  const std::array<std::uint8_t, 8> buf{0x08, 0x07, 0x06, 0x05,
                                        0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(get_u16(buf.data()), 0x0708);
  EXPECT_EQ(get_u32(buf.data()), 0x05060708u);
  EXPECT_EQ(get_u64(buf.data()), 0x0102030405060708ull);
}

TEST(LittleEndian, RoundTripsAtEveryAlignment) {
  std::array<std::uint8_t, 24> buf{};
  for (std::size_t at = 0; at < 8; ++at) {
    for (const std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0x80},
          std::uint64_t{0x8000000000000001ull},
          std::numeric_limits<std::uint64_t>::max()}) {
      const auto v16 = static_cast<std::uint16_t>(v);
      const auto v32 = static_cast<std::uint32_t>(v);
      put_u16(buf.data() + at, v16);
      EXPECT_EQ(get_u16(buf.data() + at), v16) << "at " << at;
      put_u32(buf.data() + at, v32);
      EXPECT_EQ(get_u32(buf.data() + at), v32) << "at " << at;
      put_u64(buf.data() + at, v);
      EXPECT_EQ(get_u64(buf.data() + at), v) << "at " << at;
      EXPECT_EQ(buf[at], static_cast<std::uint8_t>(v));
      EXPECT_EQ(buf[at + 7], static_cast<std::uint8_t>(v >> 56));
    }
  }
}

TEST(LittleEndian, PutLeAppendsTheFieldWidth) {
  std::vector<std::uint8_t> out{0xAA};
  put_le<std::uint16_t>(out, 0x0102);
  put_le<std::uint32_t>(out, 0x03040506u);
  put_le<std::uint64_t>(out, 0x0708090A0B0C0D0Eull);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{0xAA, 0x02, 0x01, 0x06, 0x05,
                                            0x04, 0x03, 0x0E, 0x0D, 0x0C,
                                            0x0B, 0x0A, 0x09, 0x08, 0x07}));
}

}  // namespace
}  // namespace hetsched
