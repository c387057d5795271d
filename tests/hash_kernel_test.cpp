// The per-frame hash kernels against the byte-at-a-time loops they
// replaced: slicing-by-8 CRC-32 (util/crc32.h, WAL and snapshot framing)
// and the zero-skipping FNV-1a fold (util/fnv.h, every decision
// checksum).  Both must produce bit-identical values, since WAL bytes,
// snapshot files and decision checksums persist across versions.  The
// references below are the previous kernels, kept as they were.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/crc32.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace hetsched {
namespace {

// --- References: the byte-at-a-time kernels, verbatim. ---

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    make_crc32_table();

std::uint32_t crc32_reference(const void* data, std::size_t n,
                              std::uint32_t seed = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = kCrc32Table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint64_t fnv1a_u64_reference(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnv1aPrime;
  }
  return h;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

TEST(Crc32Kernel, CheckValue) {
  const char digits[] = "123456789";
  EXPECT_EQ(crc32(digits, 9), 0xCBF43926u);
  EXPECT_EQ(crc32_reference(digits, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(digits, 0), 0u);
}

// Every length 0..300 at every start offset 0..7: the 8-byte steps, the
// tail and unaligned word reads all meet the byte loop.
TEST(Crc32Kernel, MatchesByteLoopAtEveryLengthAndOffset) {
  const std::vector<std::uint8_t> buf = random_bytes(300 + 8, 0xC3C32);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(crc32(buf.data() + off, len),
                crc32_reference(buf.data() + off, len))
          << "offset " << off << " length " << len;
    }
  }
  // All-ones and all-zero bytes stress the table edges.
  for (const std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
    const std::vector<std::uint8_t> flat(300, fill);
    for (std::size_t len = 0; len <= flat.size(); ++len) {
      ASSERT_EQ(crc32(flat.data(), len), crc32_reference(flat.data(), len))
          << "fill " << int{fill} << " length " << len;
    }
  }
}

// The incremental form: a checksum extended over two ranges, split at
// every point, equals the one-shot checksum, and seeds carry exactly as
// the byte loop carries them.
TEST(Crc32Kernel, SeedFormSplitAtEveryPoint) {
  const std::vector<std::uint8_t> buf = random_bytes(300, 0x5EED);
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  ASSERT_EQ(whole, crc32_reference(buf.data(), buf.size()));
  for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
    const std::uint32_t head = crc32(buf.data(), cut);
    ASSERT_EQ(crc32(buf.data() + cut, buf.size() - cut, head), whole)
        << "cut " << cut;
    ASSERT_EQ(crc32(buf.data() + cut, buf.size() - cut, 0x1234567u),
              crc32_reference(buf.data() + cut, buf.size() - cut, 0x1234567u))
        << "cut " << cut;
  }
}

TEST(Fnv1aKernel, MatchesByteLoopAtByteBoundaries) {
  std::vector<std::uint64_t> values = {0, ~std::uint64_t{0}};
  for (int k = 1; k <= 7; ++k) {
    const std::uint64_t bit = std::uint64_t{1} << (8 * k);
    values.push_back(bit - 1);  // k significant bytes, all 0xFF
    values.push_back(bit);      // k + 1 significant bytes, k zero bytes
  }
  const std::uint64_t seeds[] = {kFnv1aOffsetBasis, 0, ~std::uint64_t{0}};
  for (const std::uint64_t h : seeds) {
    for (const std::uint64_t v : values) {
      EXPECT_EQ(fnv1a_u64(h, v), fnv1a_u64_reference(h, v))
          << "h " << h << " v " << v;
    }
  }
}

// 10^6 seeded pairs, each v holding a random count k in [0, 8] of
// significant bytes (top one nonzero) and, half the time, a zero byte
// somewhere below it.
TEST(Fnv1aKernel, MatchesByteLoopOnRandomPairs) {
  Rng rng(20261019);
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t h = rng.next_u64();
    const int k = static_cast<int>(rng.uniform_int(0, 8));
    std::uint64_t v = 0;
    if (k > 0) {
      v = rng.next_u64();
      if (k < 8) v &= (std::uint64_t{1} << (8 * k)) - 1;
      const int top = 8 * (k - 1);
      v &= ~(std::uint64_t{0xFF} << top);
      v |= static_cast<std::uint64_t>(rng.uniform_int(1, 255)) << top;
      if (k > 1 && rng.bernoulli(0.5)) {
        v &= ~(std::uint64_t{0xFF} << (8 * rng.uniform_int(0, k - 2)));
      }
    }
    ASSERT_EQ(fnv1a_u64(h, v), fnv1a_u64_reference(h, v))
        << "pair " << i << ": h " << h << " v " << v << " k " << k;
  }
}

}  // namespace
}  // namespace hetsched
