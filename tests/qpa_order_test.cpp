// Differential test of the violation-first QPA (dbf/demand_bound.h)
// against the single downward scan from dbf_check_bound it replaced
// (qpa_reference.h).  QPA's verdict holds for any valid check bound, so
// reordering its visits may not move a verdict: 10^5 seeded sets over
// four period ranges, two utilization bands and five speeds must agree
// exactly.  One pinned set per stage path shows each path is reached, and
// guards the places where a stage must not decide or must stay cheap:
// stage-2 segments that the busy period cuts short, a miss found at a
// segment's first visit, a U ~ s set whose miss lies far below La, and
// demands that overflow int64 at the top of stage 1 or stage 2.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "dbf/demand_bound.h"
#include "qpa_reference.h"
#include "task_literals.h"
#include "util/int128.h"
#include "util/rng.h"

namespace hetsched {
namespace {

struct PeriodRange {
  const char* name;
  std::int64_t lo;
  std::int64_t hi;
};

constexpr std::int64_t kTwo32 = std::int64_t{1} << 32;

// Around 2^32 the narrow divisions of core/int_time.h switch width.
constexpr PeriodRange kPeriodRanges[] = {
    {"Tens", 10, 1000},
    {"Thousands", 1000, 100000},
    {"AroundTwo32", kTwo32 - (1 << 20), kTwo32 + (1 << 20)},
    {"TwoFortyToFortyFive", std::int64_t{1} << 40, std::int64_t{1} << 45},
};

struct UtilBand {
  double lo;
  double hi;
};

// U / s in [0.9, 1), and [0.999, 1.0001]: the U ~ s tail.
constexpr UtilBand kUtilBands[] = {{0.9, 1.0}, {0.999, 1.0001}};

const Rational kSpeeds[] = {Rational(1), Rational(3, 2), Rational(9, 4),
                            Rational(27, 8), Rational(7, 3)};

constexpr int kSetsPerCell = 2500;  // 4 ranges x 2 bands x 5 speeds: 10^5

// A random constrained set with periods in `range` and utilization near
// `target`: shares split at random, the widest task topped up toward the
// target, and three in four deadlines drawn in [0.3 p, p] (never below
// the exec).
std::vector<Task> random_set(Rng& rng, const PeriodRange& range,
                             double target) {
  const auto fewest = std::max<std::int64_t>(
      2, static_cast<std::int64_t>(std::ceil(target * 1.25)));
  const std::int64_t n = rng.uniform_int(fewest, fewest + 8);
  std::vector<double> weights;
  double sum = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    weights.push_back(rng.uniform(0.1, 1.0));
    sum += weights.back();
  }
  std::vector<Task> tasks;
  long double u = 0;
  std::size_t widest = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const std::int64_t p = rng.uniform_int(range.lo, range.hi);
    const double share = std::min(1.0, target * weights[i] / sum);
    const auto c = std::clamp<std::int64_t>(
        std::llround(share * static_cast<double>(p)), 1, p);
    tasks.push_back(cdp(c, p, p));
    u += static_cast<long double>(c) / static_cast<long double>(p);
    if (p > tasks[widest].period) widest = i;
  }
  Task& top = tasks[widest];
  const long double fix =
      (target - u) * static_cast<long double>(top.period);
  top.exec = std::clamp<std::int64_t>(top.exec + std::llround(fix), 1,
                                      top.period);
  for (Task& t : tasks) {
    if (rng.bernoulli(0.25)) continue;
    const double ratio = rng.uniform(0.3, 1.0);
    t.deadline = std::clamp<std::int64_t>(
        std::llround(ratio * static_cast<double>(t.period)), t.exec,
        t.period);
  }
  return tasks;
}

std::string describe(const std::vector<Task>& tasks, const Rational& speed) {
  std::ostringstream out;
  out << "speed " << speed.to_string() << ":";
  for (const Task& t : tasks) {
    out << " cdp(" << t.exec << ", " << t.effective_deadline() << ", "
        << t.period << ")";
  }
  return out.str();
}

// Whether stage 2 runs to a verdict: La exists, as dbf_check_bound
// decides it (U, summed in index order in long double, lies below s by
// more than 1e-12, and La fits int64), and the demand at max(La, d_max),
// where the race starts, fits int64.
bool race_decides(const std::vector<Task>& tasks, const Rational& speed) {
  long double u = 0;
  long double slack = 0;
  std::int64_t dmax = 0;
  for (const Task& t : tasks) {
    const auto c = static_cast<long double>(t.exec);
    const auto p = static_cast<long double>(t.period);
    const std::int64_t d = t.effective_deadline();
    u += c / p;
    slack += static_cast<long double>(t.period - d) * c / p;
    dmax = std::max(dmax, d);
  }
  const long double s = static_cast<long double>(speed.num()) /
                        static_cast<long double>(speed.den());
  if (!(u < s - 1e-12L)) return false;
  const long double la = slack / (s - u) * (1 + 1e-9L) + 1;
  if (!(la < 0x1p63L)) return false;
  const std::int64_t top = std::max(static_cast<std::int64_t>(la), dmax);
  int128 demand = 0;
  for (const Task& t : tasks) {
    const std::int64_t d = t.effective_deadline();
    if (top >= d) {
      demand += static_cast<int128>((top - d) / t.period + 1) * t.exec;
    }
  }
  return demand <= std::numeric_limits<std::int64_t>::max();
}

void PrintTo(const PeriodRange& range, std::ostream* out) {
  *out << range.name;
}

class QpaOrder : public ::testing::TestWithParam<PeriodRange> {};

TEST_P(QpaOrder, VerdictsMatchTheSingleScan) {
  const PeriodRange& range = GetParam();
  Rng rng(20261017 + static_cast<std::uint64_t>(range.lo));
  // decided[stage][feasible]
  int decided[4][2] = {};
  int mismatches = 0;
  int busy_despite_race = 0;
  for (const UtilBand& band : kUtilBands) {
    for (const Rational& speed : kSpeeds) {
      for (int i = 0; i < kSetsPerCell; ++i) {
        const double target =
            rng.uniform(band.lo, band.hi) * speed.to_double();
        const auto tasks = random_set(rng, range, target);
        const QpaVerdict got = edf_dbf_qpa_verdict(tasks, speed);
        const bool want = qpa_reference::edf_dbf_feasible_qpa(tasks, speed);
        ++decided[static_cast<int>(got.stage)][got.feasible ? 1 : 0];
        if (got.stage == QpaStage::kBusyPeriod && race_decides(tasks, speed)) {
          ++busy_despite_race;
        }
        if (got.feasible != want && ++mismatches <= 5) {
          ADD_FAILURE() << "verdict " << got.feasible << " at stage "
                        << static_cast<int>(got.stage) << ", single scan "
                        << want << ": " << describe(tasks, speed);
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
  // Stages 1 and 2 decide some of the sets, and both verdicts occur.
  for (const QpaStage stage : {QpaStage::kPrefix, QpaStage::kLa}) {
    const auto s = static_cast<int>(stage);
    EXPECT_GT(decided[s][0] + decided[s][1], 0) << "stage " << s;
  }
  // Stage 3 decides only where stage 2 cannot: without La (U within 1e-12
  // of s, or La past int64), or with a demand past int64 where the race
  // would start.  Stage 2's race always finishes otherwise.  The pinned
  // sets below reach stage 3.
  EXPECT_EQ(busy_despite_race, 0);
  int accepts = 0, rejects = 0;
  for (const auto& row : decided) {
    rejects += row[0];
    accepts += row[1];
  }
  EXPECT_GT(accepts, kSetsPerCell);
  EXPECT_GT(rejects, kSetsPerCell);
}

INSTANTIATE_TEST_SUITE_P(
    Periods, QpaOrder, ::testing::ValuesIn(kPeriodRanges),
    [](const ::testing::TestParamInfo<PeriodRange>& param) {
      return std::string(param.param.name);
    });

void expect_verdict(const std::vector<Task>& tasks, const Rational& speed,
                    bool feasible, QpaStage stage) {
  SCOPED_TRACE(describe(tasks, speed));
  const QpaVerdict got = edf_dbf_qpa_verdict(tasks, speed);
  EXPECT_EQ(got.feasible, feasible);
  EXPECT_EQ(got.stage, stage);
  EXPECT_EQ(edf_dbf_feasible_qpa(tasks, speed), feasible);
  EXPECT_EQ(qpa_reference::edf_dbf_feasible_qpa(tasks, speed), feasible);
}

TEST(QpaOrderPinned, MissInsideThePrefix) {
  // dbf(3) = 4 > 3, at the first deadlines; the prefix [0, 6] finds it.
  expect_verdict({cdp(2, 3, 4), cdp(2, 3, 6)}, Rational(1), false,
                 QpaStage::kPrefix);
}

TEST(QpaOrderPinned, PrefixCappedBySmallLa) {
  // Speed 27/8 with T = 2^59: A = (25 T / 8, T, T) and B = (17 T / 32,
  // 4 T, 17 T / 2), U = 25/8 + 1/16.  La = (p_B - d_B) u_B / (s - U) =
  // 4.5 T lies between d_max = 4 T and 2 d_max, so stage 1 scans [0, La]
  // and covers everything: stage 2 has nothing left.  Past La, from
  // A's fifth deadline on, the demand exceeds int64; an uncapped prefix
  // of 2 d_max = 8 T would start there and leave the verdict to stage 3.
  const std::int64_t t = std::int64_t{1} << 59;
  const std::vector<Task> tasks{cdp(25 * (t / 8), t, t),
                                cdp(17 * (t / 32), 4 * t, 17 * (t / 2))};
  expect_verdict(tasks, Rational(27, 8), true, QpaStage::kPrefix);
  EXPECT_EQ(dbf_check_bound(tasks, Rational(27, 8)), 4 * t);
}

TEST(QpaOrderPinned, LaScanFindsTheMissFirst) {
  // U = 0.9995 on a unit machine.  La ~ 3.8e5 lies far above 2 d_max =
  // 1416.  Stage 1 verifies the prefix in 9 visits; the scan down from La
  // reaches a miss at 241374 after 474 more, while the busy period (L =
  // 105024) would need 346 steps, 2768 visits at one step per 8, to
  // converge.  The miss decides at stage 2, and the race never visits
  // more than the scan alone.
  const std::vector<Task> tasks{cdp(78, 556, 556), cdp(201, 500, 696),
                                cdp(173, 294, 574), cdp(172, 708, 898),
                                cdp(21, 127, 271)};
  expect_verdict(tasks, Rational(1), false, QpaStage::kLa);
  EXPECT_LE(edf_dbf_qpa_verdict(tasks, Rational(1)).visits, 9 + 474);
}

TEST(QpaOrderPinned, ShortBusyPeriodUnderLargeLa) {
  // Harmonic periods P, 2P, 4P, 8P with P = 2^20 and U = 1 - 2^-23: La =
  // (P / 8)(1 / 8) / 2^-23 ~ 2^37, while the busy period converges in 4
  // steps, W = 5P - 1, 7P - 1, 7.75P - 1, 8P - 1, 8P - 1, to L = 8P - 1,
  // under the prefix 2 d_max = 16P that stage 1 verifies in 6 visits.  So
  // the race drops its scan after 4 x 8 visits and accepts.  The scan
  // from La alone would take 49147 visits.
  const std::int64_t p = std::int64_t{1} << 20;
  const std::vector<Task> tasks{cdp(p / 4, p, p),
                                cdp(p / 4, 2 * p - p / 8, 2 * p),
                                cdp(p / 2, 4 * p, 4 * p),
                                cdp(4 * p - 1, 8 * p, 8 * p)};
  expect_verdict(tasks, Rational(1), true, QpaStage::kLa);
  EXPECT_LE(edf_dbf_qpa_verdict(tasks, Rational(1)).visits, 6 + 4 * 8);
}

TEST(QpaOrderPinned, UtilizationNearSpeedMissBelowLa) {
  // n = 10 at speed 9/4 with U / s = 1 - 3.6e-7: La ~ 1.7e8, and the busy
  // period does not converge within 100 000 steps.  A scan down from La
  // reaches a miss after 226 753 visits.  The lowest miss, at 195 750,
  // lies in segment 8 above B = 1558, (64 B, 128 B], and the segments
  // reach it after 798 visits.
  const std::vector<Task> tasks{cdp(7, 80, 123), cdp(271, 468, 778),
                                cdp(51, 568, 765), cdp(272, 779, 779),
                                cdp(50, 274, 274), cdp(12, 98, 107),
                                cdp(4, 13, 13), cdp(31, 79, 132),
                                cdp(7, 15, 23), cdp(194, 675, 675)};
  const Rational speed(9, 4);
  expect_verdict(tasks, speed, false, QpaStage::kLa);
  EXPECT_LE(edf_dbf_qpa_verdict(tasks, speed).visits, 2000);
}

TEST(QpaOrderPinned, MissAtASegmentTop) {
  // U = 0.994 on a unit machine, d_max = 31, so B = 62, and La = 683.
  // The only instant that misses is 248 = 4 B, where dbf = 249: segment 2
  // starts on it.  The prefix takes 6 visits and segment 1, (62, 124], 8
  // more; the scan down from La would need 43.
  const std::vector<Task> tasks{cdp(13, 31, 31), cdp(6, 21, 28), cdp(5, 10, 14),
                                cdp(1, 31, 276)};
  expect_verdict(tasks, Rational(1), false, QpaStage::kLa);
  EXPECT_EQ(edf_dbf_qpa_verdict(tasks, Rational(1)).visits, 6 + 8 + 1);
}

TEST(QpaOrderPinned, BusyPeriodCutsTheSegments) {
  // Five tasks of period 100 with 99 units of work in all: the first jobs
  // fit exactly at every first deadline, U = 0.99 and La = 4020, so five
  // segments lie above B = 198.  The busy period is the first iterate,
  // L = 99, and its one step comes after segment 1's eighth visit: the
  // top drops below B and the set is accepted.  The prefix takes 10
  // visits; the segments alone would take 144 more.
  const std::vector<Task> tasks{cdp(20, 20, 100), cdp(20, 40, 100),
                                cdp(20, 60, 100), cdp(20, 80, 100),
                                cdp(19, 99, 100)};
  expect_verdict(tasks, Rational(1), true, QpaStage::kLa);
  const QpaVerdict got = edf_dbf_qpa_verdict(tasks, Rational(1));
  EXPECT_EQ(got.visits, 10 + 8);
  EXPECT_EQ(got.steps, 1);
}

TEST(QpaOrderPinned, NoLaWhenUtilizationEqualsSpeed) {
  // U == s: no La, so a clean prefix [0, 2 d_max] decides nothing and
  // the busy period bounds the scan.  Here it is 4, inside the prefix.
  expect_verdict({cdp(1, 1, 2), cdp(2, 4, 4)}, Rational(1), true,
                 QpaStage::kBusyPeriod);
  // (1, 2) beside (h + 1, 2 h + 2), h = 2^39: U == 1 and the prefix is
  // clean, but the busy period passes its 2^40 cap, so the set is
  // rejected exactly as the single scan rejects it.
  const std::int64_t h = std::int64_t{1} << 39;
  expect_verdict({{1, 2}, {h + 1, 2 * (h + 1)}}, Rational(1), false,
                 QpaStage::kBusyPeriod);
}

TEST(QpaOrderPinned, PrefixOverflowFallsThrough) {
  // Speed 3 * 2^22, T = 2^20, P = 2^39: A = (2^43, T, T) and B = (c_B,
  // P - 2^19, P).  The busy period ends at about P, but the prefix top
  // 2 d_max = 2 P - 2^20 is A's deadline where the demand, about
  // 2^63 - 2^43 + 2^61, exceeds int64.  That overflow lies beyond the
  // bound and verifies nothing; stage 3 scans from the bound and accepts.
  // Rejecting on it would be wrong.
  const std::int64_t t = std::int64_t{1} << 20;
  const std::int64_t p = std::int64_t{1} << 39;
  const Rational speed(3 * (std::int64_t{1} << 22));
  // U == s: no La, stage 2 does not apply.
  expect_verdict({cdp(std::int64_t{1} << 43, t, t),
                  cdp(std::int64_t{1} << 61, p - (1 << 19), p)},
                 speed, true, QpaStage::kBusyPeriod);
  // U == s - 1: La ~ 2^41 exists, but stage 2 would start above the
  // overflowing instant, so it falls through as well.
  expect_verdict({cdp(std::int64_t{1} << 43, t, t),
                  cdp((std::int64_t{1} << 61) - p, p - (1 << 19), p)},
                 speed, true, QpaStage::kBusyPeriod);
}

TEST(QpaOrderPinned, TopOverflowSkipsTheSegments) {
  // Speed 4 with P = 2^41: harmonic periods P, 2P, 4P, 8P, U = 4 - 2^-38,
  // and A's deadline 2^24 before its period, so La ~ 2^24 / 2^-38 = 2^62
  // and the demand there, ~ 4 La, passes int64.  The busy period, 8P - 16,
  // lies past its 2^40 cap, so the classic scan starts at La and rejects
  // on the overflow; stage 3 does the same.  Checking the top first skips
  // the segments, which would climb from B = 16P to the overflow in
  // 524 306 visits.
  const std::int64_t p = std::int64_t{1} << 41;
  const std::vector<Task> tasks{cdp(p, p - (std::int64_t{1} << 24), p),
                                cdp(p, 2 * p, 2 * p), cdp(2 * p, 4 * p, 4 * p),
                                cdp(16 * p - 64, 8 * p, 8 * p)};
  expect_verdict(tasks, Rational(4), false, QpaStage::kBusyPeriod);
  EXPECT_LE(edf_dbf_qpa_verdict(tasks, Rational(4)).visits, 10);
}

}  // namespace
}  // namespace hetsched
