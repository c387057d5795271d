// The closed-form admission threshold of the EDF-form folds
// (edf_form_threshold, partition/admission.h) against the bit-space gallop
// it replaced, kept below as it was.  admission_slack's threshold decides
// every first-fit placement of the kEdf and kLiuLayland folds, in the
// batch engines and the controller alike, so it must be bit-identical to
// the gallop: a threshold one ulp off flips verdicts at exact fits.  The
// inputs cover each range the closed form treats apart (U within the
// Sterbenz range [L/2, L], U below L/2, U above L), the binade edges and
// significand parities of L where its half-gap and tie rule change, exact
// midpoint ties, Liu–Layland limits, and the inputs the closed form leaves
// to the gallop.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>

#include "core/uniproc.h"
#include "partition/admission.h"
#include "util/rng.h"

namespace hetsched {
namespace {

// --- Reference: the gallop admission_slack ran for every fold, verbatim.

template <typename Pred>
double exact_admission_threshold(double estimate, const Pred& pred) {
  if (!pred(0.0)) return -1.0;
  constexpr double kMax = std::numeric_limits<double>::max();
  if (pred(kMax)) return kMax;
  const std::uint64_t max_bits = std::bit_cast<std::uint64_t>(kMax);

  std::uint64_t lo = 0;         // invariant: pred true at lo
  std::uint64_t hi = max_bits;  // invariant: pred false at hi
  if (estimate > 0.0 && estimate < kMax) {
    const std::uint64_t e = std::bit_cast<std::uint64_t>(estimate);
    if (pred(estimate)) {
      lo = e;
      // Gallop up for a false point; each true probe tightens lo.
      for (std::uint64_t step = 1; lo + step < hi; step *= 2) {
        const std::uint64_t probe = lo + step;
        if (pred(std::bit_cast<double>(probe))) {
          lo = probe;
        } else {
          hi = probe;
          break;
        }
      }
    } else {
      hi = e;
      // Gallop down for a true point; each false probe tightens hi.
      for (std::uint64_t step = 1;; step *= 2) {
        if (step >= hi) break;  // bracket bottoms out at 0 (pred true there)
        const std::uint64_t probe = hi - step;
        if (pred(std::bit_cast<double>(probe))) {
          lo = probe;
          break;
        }
        hi = probe;
      }
    }
  }
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (pred(std::bit_cast<double>(mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::bit_cast<double>(lo);
}

double reference_threshold(double limit, double util_sum) {
  return exact_admission_threshold(limit - util_sum, [&](double w) {
    return admission_admits(AdmissionFold::kEdf, w, limit, util_sum, 0, 1.0);
  });
}

// ---

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }
double from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }

constexpr double kMin = std::numeric_limits<double>::min();
constexpr double kMax = std::numeric_limits<double>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

// The inputs edf_form_threshold must decide itself.
bool covered(double limit, double util_sum) {
  return limit >= 2.0 * kMin && limit < kMax && util_sum >= 0.0;
}

// Checks one pair: admission_slack's kEdf threshold equals the gallop's,
// and the closed form decides every covered pair without the gallop.
// Returns false (after reporting) on the first mismatch.
bool matches(double limit, double util_sum) {
  const double want = reference_threshold(limit, util_sum);
  const double got =
      admission_slack(AdmissionFold::kEdf, limit, util_sum, 0, 1.0);
  EXPECT_EQ(bits(got), bits(want))
      << std::hexfloat << "L " << limit << " U " << util_sum << ": slack "
      << got << ", gallop " << want;
  if (bits(got) != bits(want)) return false;
  if (!covered(limit, util_sum)) return true;
  const std::optional<double> closed = edf_form_threshold(limit, util_sum);
  EXPECT_TRUE(closed.has_value())
      << std::hexfloat << "L " << limit << " U " << util_sum
      << ": the closed form left a covered pair to the gallop";
  return closed.has_value();
}

// A positive normal L at or above 2^-1021: its exponent from `lo_exp` to
// `hi_exp`, and a significand that is random, all zeros (binade bottom) or
// all ones (binade top), so both parities and both binade edges recur.
double random_limit(Rng& rng, int lo_exp, int hi_exp) {
  const auto exp = static_cast<std::uint64_t>(
      rng.uniform_int(lo_exp + 1023, hi_exp + 1023));
  constexpr std::uint64_t kSig = (std::uint64_t{1} << 52) - 1;
  std::uint64_t sig = rng.next_u64() & kSig;
  switch (rng.uniform_int(0, 7)) {
    case 0: sig = 0; break;
    case 1: sig = kSig; break;
    case 2: sig = 1; break;
    case 3: sig = kSig - 1; break;
    default: break;
  }
  return from_bits(exp << 52 | sig);
}

// A double drawn uniformly from the bit patterns in [lo, hi], lo >= 0.
double between(Rng& rng, double lo, double hi) {
  return from_bits(bits(lo) + rng.next_u64() % (bits(hi) - bits(lo) + 1));
}

// Every pair checker below draws its limit from realistic capacities
// (2^-30 to 2^30) half the time and from the whole covered range the
// other half.
double draw_limit(Rng& rng) {
  return rng.bernoulli(0.5) ? random_limit(rng, -30, 30)
                            : random_limit(rng, -1021, 1023);
}

constexpr int kPairsPerRange = 1'500'000;

// U in the Sterbenz range [L/2, L], where D = (L - U) + g is exact.
TEST(ThresholdKernel, MatchesGallopWithLoadInSterbenzRange) {
  Rng rng(0x57E4B);
  for (int i = 0; i < kPairsPerRange; ++i) {
    const double limit = draw_limit(rng);
    ASSERT_TRUE(matches(limit, between(rng, 0.5 * limit, limit)))
        << "pair " << i;
  }
}

// U within 8 ulps of L on either side, U = L/2 and U = L: a loaded
// machine, a machine exactly full and one just overfull.
TEST(ThresholdKernel, MatchesGallopWithLoadNearLimit) {
  Rng rng(0x4EA4);
  for (int i = 0; i < kPairsPerRange; ++i) {
    const double limit = draw_limit(rng);
    const auto k = static_cast<std::uint64_t>(rng.uniform_int(0, 8));
    const double below = from_bits(bits(limit) - k);
    const double above = from_bits(bits(limit) + k);
    ASSERT_TRUE(matches(limit, below) && matches(limit, above) &&
                matches(limit, 0.5 * limit))
        << "pair " << i;
  }
}

// U below L/2: est = fl(L - U) is within one ulp of the threshold.  U is
// drawn uniformly in value, uniformly in bit pattern (mostly tiny), and as
// L scaled down by 2^-1 to 2^-200.
TEST(ThresholdKernel, MatchesGallopWithLoadBelowHalfTheLimit) {
  Rng rng(0xB1A5);
  for (int i = 0; i < kPairsPerRange; ++i) {
    const double limit = draw_limit(rng);
    const double half_below = from_bits(bits(0.5 * limit) - 1);
    double u = 0.0;
    switch (rng.uniform_int(0, 2)) {
      case 0: u = rng.uniform(0.0, 0.5) * limit; break;
      case 1: u = between(rng, 0.0, half_below); break;
      default:
        u = std::ldexp(rng.uniform(0.5, 1.0) * limit,
                       -static_cast<int>(rng.uniform_int(1, 200)));
        break;
    }
    if (u > half_below) u = half_below;
    ASSERT_TRUE(matches(limit, u)) << "pair " << i;
    ASSERT_TRUE(matches(limit, 0.0)) << "pair " << i;
  }
}

// U a multiple of g = ulp(L)/2 between L - 2^e and L/2, L in
// [2^e, 2^(e+1)): then D = L - U + g <= 2^e is a double and U + D lands
// exactly on the midpoint of L and L+, a tie the comparison breaks by L's
// parity.
TEST(ThresholdKernel, MatchesGallopOnMidpointTies) {
  Rng rng(0x71E5);
  for (int i = 0; i < kPairsPerRange; ++i) {
    const double limit = draw_limit(rng);
    const double g = 0.5 * (from_bits(bits(limit) + 1) - limit);
    const double lower = limit - std::ldexp(1.0, std::ilogb(limit));
    const auto steps = static_cast<std::int64_t>((0.5 * limit - lower) / g);
    const double u =
        lower + g * static_cast<double>(rng.uniform_int(
                        1, std::max<std::int64_t>(1, steps - 1)));
    ASSERT_TRUE(matches(limit, u)) << "pair " << i;
  }
}

// U above L: nothing fits, whatever the distance.
TEST(ThresholdKernel, MatchesGallopWithLoadAboveLimit) {
  Rng rng(0xAB0E);
  for (int i = 0; i < kPairsPerRange; ++i) {
    const double limit = draw_limit(rng);
    const double next = from_bits(bits(limit) + 1);
    const double u = rng.bernoulli(0.5) || !(next <= kMax)
                         ? from_bits(bits(limit) +
                                     static_cast<std::uint64_t>(
                                         rng.uniform_int(1, 1 << 20)))
                         : between(rng, next, kMax);
    ASSERT_TRUE(matches(limit, u)) << "pair " << i;
    ASSERT_LT(admission_slack(AdmissionFold::kEdf, limit, u, 0, 1.0), 0.0);
  }
}

// kLiuLayland compares against fl(LL(k) cap), k = task_count + 1 <= 64.
TEST(ThresholdKernel, MatchesGallopOnLiuLaylandLimits) {
  Rng rng(0x11AA);
  for (int i = 0; i < kPairsPerRange; ++i) {
    const double cap = random_limit(rng, -20, 20);
    const auto k = static_cast<std::size_t>(rng.uniform_int(1, 64));
    const double limit = rms_liu_layland_bound(k) * cap;
    const double u = rng.bernoulli(0.5) ? between(rng, 0.5 * limit, limit)
                                        : rng.uniform(0.0, 1.1) * limit;
    const double want = reference_threshold(limit, u);
    const double got =
        admission_slack(AdmissionFold::kLiuLayland, cap, u, k - 1, 1.0);
    ASSERT_EQ(bits(got), bits(want))
        << std::hexfloat << "cap " << cap << " k " << k << " U " << u;
    ASSERT_TRUE(matches(limit, u)) << "pair " << i;
  }
}

// The edges of the covered range and beyond it: subnormal, DBL_MIN-sized
// and infinite limits and loads, DBL_MAX, negative loads and NaNs.  The
// closed form leaves some of these to the gallop; admission_slack must
// agree with it on all of them.
TEST(ThresholdKernel, MatchesGallopAtTheEdgesOfTheDoubles) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double sub = std::numeric_limits<double>::denorm_min();
  const double values[] = {0.0,
                           -0.0,
                           sub,
                           2 * sub,
                           kMin / 2,
                           from_bits(bits(kMin) - 1),
                           kMin,
                           from_bits(bits(kMin) + 1),
                           2 * kMin,
                           from_bits(bits(2 * kMin) - 1),
                           from_bits(bits(2 * kMin) + 1),
                           4 * kMin,
                           0.5,
                           1.0,
                           from_bits(bits(1.0) + 1),
                           3.0,
                           from_bits(bits(kMax) - 1),
                           kMax / 2,
                           kMax,
                           kInf,
                           -1.0,
                           -kInf,
                           nan};
  for (const double limit : values) {
    for (const double u : values) {
      ASSERT_TRUE(matches(limit, u));
    }
  }
  // Loads of every size against the smallest covered limits and the
  // largest.
  Rng rng(0xED6E);
  for (int i = 0; i < 100'000; ++i) {
    const double limit =
        rng.bernoulli(0.5)
            ? from_bits(bits(2 * kMin) + rng.next_u64() % (1u << 20))
            : from_bits(bits(kMax) - 1 - rng.next_u64() % (1u << 20));
    ASSERT_TRUE(matches(limit, between(rng, 0.0, limit)));
    ASSERT_TRUE(matches(limit, between(rng, 0.5 * limit, limit)));
  }
}

// {0.44, 0.40, 0.16} fills a unit machine exactly: after the first two
// the slack must still admit the third.
TEST(ThresholdKernel, ExactFitPackingStillAdmitsItsLastTask) {
  const double load = 0.44 + 0.40;
  const double slack = admission_slack(AdmissionFold::kEdf, 1.0, load, 2, 1.0);
  EXPECT_GE(slack, 0.16);
  EXPECT_TRUE(
      admission_admits(AdmissionFold::kEdf, 0.16, 1.0, load, 2, 1.0));
  EXPECT_EQ(bits(slack), bits(reference_threshold(1.0, load)));
  // And the load it leaves passes with nothing to spare.
  EXPECT_LE(load + slack, 1.0);
  EXPECT_FALSE(admission_admits(AdmissionFold::kEdf, from_bits(bits(slack) + 1),
                                1.0, load, 2, 1.0));
}

// L = 1 is even: U + D = 1 + 2^-53 is the midpoint of 1 and 1 + 2^-52 and
// rounds to 1, so D itself is the threshold.
TEST(ThresholdKernel, MidpointTieWithEvenLimitAdmitsTheMidpoint) {
  const double u = 0.75;
  const double d = 0.25 + std::ldexp(1.0, -53);
  EXPECT_EQ(bits(admission_slack(AdmissionFold::kEdf, 1.0, u, 0, 1.0)),
            bits(d));
  EXPECT_EQ(bits(*edf_form_threshold(1.0, u)), bits(d));
  EXPECT_TRUE(admission_admits(AdmissionFold::kEdf, d, 1.0, u, 0, 1.0));
}

// L = 1 + 2^-52 is odd: U + D = L + 2^-53 rounds up to the even
// 1 + 2^-51, so the threshold is the double below D.
TEST(ThresholdKernel, MidpointTieWithOddLimitRejectsTheMidpoint) {
  const double limit = 1.0 + std::ldexp(1.0, -52);
  const double u = 0.75;
  const double d = 0.25 + std::ldexp(1.0, -52) + std::ldexp(1.0, -53);
  const double below_d = from_bits(bits(d) - 1);
  EXPECT_EQ(bits(admission_slack(AdmissionFold::kEdf, limit, u, 0, 1.0)),
            bits(below_d));
  EXPECT_EQ(bits(*edf_form_threshold(limit, u)), bits(below_d));
  EXPECT_FALSE(admission_admits(AdmissionFold::kEdf, d, limit, u, 0, 1.0));
  EXPECT_TRUE(
      admission_admits(AdmissionFold::kEdf, below_d, limit, u, 0, 1.0));
}

}  // namespace
}  // namespace hetsched
