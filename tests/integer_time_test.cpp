// Differential tests of the integer-time deciders (core/int_time.h behind
// dbf/demand_bound.h and core/rta.h) against the exact-Rational code they
// replaced (rational_reference.h): equal check bounds, QPA and approximate
// DBF verdicts, response times and RTA verdicts, on the regimes the served
// admission path reaches and the small-period property tests in
// demand_bound_test.cpp do not — coprime periods near 10^6, speeds with
// real denominators, U == s (the busy period's iteration limit) and U just
// below s (the busy period stopping at La).  Those property tests cannot
// see a bound bug: edf_dbf_feasible_exact shares dbf_check_bound with QPA.
// The narrow-division fast paths of core/int_time.h are checked against
// plain int128 arithmetic at the edges where they switch width: operands
// 2^32 - 1, 2^32 and 2^32 + 1, and ticks at INT64_MAX and INT64_MAX + 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/int_time.h"
#include "core/rta.h"
#include "dbf/demand_bound.h"
#include "gen/platform_gen.h"
#include "qpa_reference.h"
#include "rational_reference.h"
#include "task_literals.h"
#include "util/rng.h"

namespace hetsched {
namespace {

bool is_prime(std::int64_t v) {
  if (v < 2) return false;
  for (std::int64_t f = 2; f * f <= v; ++f) {
    if (v % f == 0) return false;
  }
  return true;
}

// `n` distinct primes drawn from [lo, hi]: pairwise coprime periods, by
// default near 10^6.
std::vector<std::int64_t> prime_periods(Rng& rng, std::int64_t n,
                                        std::int64_t lo = 900'000,
                                        std::int64_t hi = 1'100'000) {
  std::vector<std::int64_t> out;
  while (std::ssize(out) < n) {
    std::int64_t v = rng.uniform_int(lo, hi);
    while (!is_prime(v)) ++v;
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

// Splits utilization `total` at random over `periods`, with deadlines
// uniform in [lo p, p] and never below the exec.
std::vector<Task> split_utilization(Rng& rng,
                                    const std::vector<std::int64_t>& periods,
                                    double total, double lo = 0.4) {
  std::vector<double> weights;
  double sum = 0;
  for (std::size_t i = 0; i < periods.size(); ++i) {
    weights.push_back(rng.uniform(0.2, 1.0));
    sum += weights.back();
  }
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < periods.size(); ++i) {
    const std::int64_t p = periods[i];
    const double share = total * weights[i] / sum;
    const double ratio = rng.uniform(lo, 1.0);
    const auto c = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(share * static_cast<double>(p)));
    const auto d = std::max<std::int64_t>(
        c, static_cast<std::int64_t>(ratio * static_cast<double>(p)));
    tasks.push_back(cdp(c, std::min(d, p), p));
  }
  return tasks;
}

long double utilization_ld(const std::vector<Task>& tasks) {
  long double u = 0;
  for (const Task& t : tasks) {
    u += static_cast<long double>(t.exec) / static_cast<long double>(t.period);
  }
  return u;
}

// Asserts every integer-time decider answers as the reference does.
// Returns the QPA verdict.
bool expect_matches_reference(const std::vector<Task>& tasks,
                              const Rational& speed) {
  SCOPED_TRACE("n=" + std::to_string(tasks.size()) +
               " speed=" + speed.to_string());
  EXPECT_EQ(dbf_check_bound(tasks, speed),
            reference::dbf_check_bound(tasks, speed));
  const bool qpa = edf_dbf_feasible_qpa(tasks, speed);
  EXPECT_EQ(qpa, reference::edf_dbf_feasible_qpa(tasks, speed));
  for (const std::size_t k : {1u, 3u}) {
    EXPECT_EQ(edf_dbf_feasible_approx_k(tasks, speed, k),
              reference::edf_dbf_feasible_approx_k(tasks, speed, k))
        << "k=" << k;
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(response_time(tasks, i, speed),
              reference::response_time(tasks, i, speed))
        << "task " << i;
  }
  EXPECT_EQ(rta_schedulable(tasks, speed),
            reference::rta_schedulable(tasks, speed));
  return qpa;
}

TEST(IntegerTime, CoprimePeriodsNearOneMillion) {
  Rng rng(1401);
  int accepts = 0, rejects = 0;
  for (const std::int64_t n : {8, 16, 32, 64}) {
    for (int rep = 0; rep < 6; ++rep) {
      const auto periods = prime_periods(rng, n);
      const Rational speed(rng.uniform_int(1, 2));
      const double total = rng.uniform(0.7, 1.02) * speed.to_double();
      const auto tasks = split_utilization(rng, periods, total);
      (expect_matches_reference(tasks, speed) ? accepts : rejects) += 1;
    }
  }
  // Both verdicts occur, so neither side of QPA goes unchecked.
  EXPECT_GT(accepts, 0);
  EXPECT_GT(rejects, 0);
}

TEST(IntegerTime, SpeedsWithRealDenominators) {
  // The served speeds: a ratio-1.5 platform's exact speeds times alpha.
  const Platform platform = geometric_platform(4, 1.5);
  const Rational alpha = rational_from_double(2.98);
  Rng rng(1402);
  int fractional = 0, accepts = 0, rejects = 0;
  for (std::size_t j = 0; j < platform.size(); ++j) {
    const Rational speed = platform.speed_exact(j) * alpha;
    fractional += speed.den() > 1 ? 1 : 0;
    for (int rep = 0; rep < 5; ++rep) {
      const auto periods = prime_periods(rng, rng.uniform_int(8, 16));
      const double total = rng.uniform(0.8, 1.02) * speed.to_double();
      const auto tasks = split_utilization(rng, periods, total);
      (expect_matches_reference(tasks, speed) ? accepts : rejects) += 1;
    }
  }
  EXPECT_EQ(fractional, static_cast<int>(platform.size()));
  EXPECT_GT(accepts, 0);
  EXPECT_GT(rejects, 0);
}

// A set with U == speed exactly: for speed a/b, task i has period
// 16 b m_i and exec k_i m_i, for `n` pairwise coprime m_i near `mid` and
// shares k_i summing to 16 a, so the u_i = k_i / (16 b) sum to a / b.
// Deadlines are 3/4 of the period (or the exec, if larger).
std::vector<Task> exact_utilization_set(Rng& rng, const Rational& speed,
                                        std::int64_t n, std::int64_t mid) {
  const std::int64_t scale = 16 * speed.den();
  const auto m = prime_periods(rng, n, mid - mid / 50, mid + mid / 50);
  // An even split of the shares, then random one-share transfers.
  std::vector<std::int64_t> shares(m.size(), 16 * speed.num() / n);
  for (int move = 0; move < 8; ++move) {
    const auto from = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    const auto to = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    if (shares[from] > 1) {
      --shares[from];
      ++shares[to];
    }
  }
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < m.size(); ++i) {
    const std::int64_t p = scale * m[i];
    const std::int64_t c = shares[i] * m[i];
    tasks.push_back(cdp(c, std::max(c, p * 3 / 4), p));
  }
  return tasks;
}

TEST(IntegerTime, UtilizationEqualToSpeedReachesIterationLimit) {
  // U == s: inside the 1e-12 band, so only the busy period can bound the
  // scan.  It runs toward the hyperperiod at increments of about
  // sum c_i / 2 and meets the 100 000-iteration limit long before the
  // 2^40 cap: no bound exists, and every EDF decider rejects.
  Rng rng(1403);
  const Rational speed(3, 2);
  const auto tasks = exact_utilization_set(rng, speed, 4, 1'000'000 / 32);
  Rational u(0);
  for (const Task& t : tasks) u += t.utilization_exact();
  ASSERT_EQ(u, speed);
  EXPECT_FALSE(dbf_check_bound(tasks, speed).has_value());
  expect_matches_reference(tasks, speed);

  // Faster by 5e-7, the busy period converges near 2.7e10, inside the
  // limit and below La, at a speed of numerator 3 000 001.
  const Rational faster = speed + Rational(1, 2'000'000);
  EXPECT_TRUE(reference::busy_period(tasks, faster).has_value());
  expect_matches_reference(tasks, faster);
  // Faster by 5e-8, La exists but lies beyond where the busy period stands
  // at the limit: the bound is La.  QPA from there overflows the
  // reference's Rational arithmetic, so only the bound is compared.
  const Rational hair = speed + Rational(1, 20'000'000);
  ASSERT_FALSE(reference::busy_period(tasks, hair).has_value());
  const auto la = dbf_check_bound(tasks, hair);
  ASSERT_TRUE(la.has_value());
  EXPECT_EQ(la, reference::dbf_check_bound(tasks, hair));

  // Two tasks whose busy period would converge at the hyperperiod, about
  // 1.6e11, after about 2e5 iterations: the limit, not the cap, decides.
  const auto pair = exact_utilization_set(rng, Rational(1), 2, 100'000);
  EXPECT_FALSE(dbf_check_bound(pair, Rational(1)).has_value());
  expect_matches_reference(pair, Rational(1));
}

TEST(IntegerTime, UtilizationJustBelowSpeedCutsAtLa) {
  // U = s - eps for eps in [1e-4, 1e-3]: outside the 1e-12 band, so the
  // bound is min(busy period, La).  With deadlines near the periods La,
  // sum (p_i - d_i) u_i / (s - U), is the smaller — the case where the
  // integer busy period stops at La instead of running to its fixed point.
  Rng rng(1404);
  int la_cut = 0;
  for (int rep = 0; rep < 12; ++rep) {
    const Rational speed(rng.uniform_int(1, 3), rng.uniform_int(1, 2));
    const auto periods = prime_periods(rng, rng.uniform_int(8, 16));
    const double eps = std::pow(10.0, rng.uniform(-4.0, -3.0));
    const double s = speed.to_double();
    auto tasks = split_utilization(rng, periods, (1.0 - eps) * s, 0.9);
    // Top the last task up to bring U to just below s (1 - eps).
    Task& last = tasks.back();
    last.exec = 1;
    const long double room = s * (1.0 - eps) - utilization_ld(tasks);
    const auto period = static_cast<long double>(last.period);
    last.exec = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(room * period));
    last.deadline = std::max(last.deadline, last.exec);
    ASSERT_LE(last.deadline, last.period);
    ASSERT_LT(utilization_ld(tasks), s - 1e-6L);

    expect_matches_reference(tasks, speed);
    const auto bound = reference::dbf_check_bound(tasks, speed);
    const auto busy = reference::busy_period(tasks, speed);
    ASSERT_TRUE(bound.has_value());
    if (!busy || *bound < busy->ceil()) ++la_cut;
  }
  EXPECT_GE(la_cut, 9);
}

TEST(IntegerTime, OverflowingDemandIsRejectedNotAborted) {
  // Two tasks of exec 2^62, deadline 2^62, period 2^63 - 1 on a unit
  // machine: the busy-period work and the RTA interference overflow int64.
  // The Rational code aborted; every decider now answers "infeasible".
  const std::int64_t big = std::int64_t{1} << 62;
  const std::vector<Task> tasks{
      cdp(big, big, std::numeric_limits<std::int64_t>::max()),
      cdp(big, big, std::numeric_limits<std::int64_t>::max())};
  const Rational speed(1);
  EXPECT_FALSE(dbf_check_bound(tasks, speed).has_value());
  EXPECT_FALSE(edf_dbf_feasible_qpa(tasks, speed));
  EXPECT_FALSE(edf_dbf_feasible_approx(tasks, speed));
  EXPECT_FALSE(rta_schedulable(tasks, speed));
  EXPECT_FALSE(response_time(tasks, 1, speed).has_value());
  // The first task alone is schedulable, and still exactly so.
  EXPECT_EQ(response_time(tasks, 0, speed), Rational(big));
  EXPECT_TRUE(edf_dbf_feasible_qpa(std::span(tasks).first(1), speed));
}

TEST(IntegerTime, BusyPeriodCapIsTwoToTheForty) {
  // U == s, so the check bound is the busy period alone (La needs U below
  // s).  With (1, 2) beside (c, 2c) on a unit machine the busy period is
  // the fixed point 2c, reached from below: it may end at 2^40, not past.
  const auto at_fixed_point = [](std::int64_t c) {
    const std::vector<Task> tasks{{1, 2}, {c, 2 * c}};
    return dbf_check_bound(tasks, Rational(1));
  };
  const std::int64_t half = std::int64_t{1} << 39;
  EXPECT_EQ(at_fixed_point(half - 1), 2 * (half - 1));
  EXPECT_EQ(at_fixed_point(half), 2 * half);
  EXPECT_FALSE(at_fixed_point(half + 1).has_value());
  // Past the cap the bound, and with it QPA, rejects.
  const std::vector<Task> over{{1, 2}, {half + 1, 2 * (half + 1)}};
  EXPECT_FALSE(edf_dbf_feasible_qpa(over, Rational(1)));
}

TEST(IntegerTime, ApproxAtKOneReadsTheBoundOnlyInsideTheBand) {
  // At k = 1 every probe is a first deadline, which the check bound never
  // excludes, so edf_dbf_feasible_approx_k asks for the bound only when U
  // lies within 1e-12 of s: there a missing busy period rejects.
  //
  // Inside the band: U = 1/2 - 7.5e-13 on speed 1/2.  The busy period
  // passes the 2^40 cap on its first step, so the bound is missing and
  // the test rejects, although both first deadlines pass the linear
  // demand (at t = 1.2e13 it is 6e12 - 9 against s t (1 - 1e-12) =
  // 6e12 - 6).
  const std::vector<Task> in_band{{1, 3}, {2'000'000'000'000 - 9,
                                          12'000'000'000'000}};
  const Rational half(1, 2);
  EXPECT_FALSE(dbf_check_bound(in_band, half).has_value());
  EXPECT_FALSE(edf_dbf_feasible_approx_k(in_band, half, 1));
  EXPECT_FALSE(edf_dbf_feasible_approx(in_band, half));

  // Outside the band: U = 0.9 on a unit machine, and the bound is missing
  // too — La = sum (p - d) u / (s - U) passes int64 and the busy period
  // passes the cap — yet the test accepts, since it does not ask for it.
  // The largest deadline is int64's maximum T, and task A's slack
  // (p - d) u = 0.1 T - 10^8 sits between what overflows La (0.1 T less
  // 1e-9 relative) and what the linear demand at T admits (0.1 T less
  // 1e-12 T).
  const std::int64_t t_max = std::numeric_limits<std::int64_t>::max();
  const std::int64_t p_a = std::int64_t{1} << 62;
  const std::int64_t slack_a = t_max / 5 - 200'000'000;  // p - d of A
  const std::vector<Task> out_of_band{
      {1, 10},
      cdp(p_a / 2, p_a - slack_a, p_a),
      {t_max / 10 * 3, t_max}};
  const Rational one(1);
  EXPECT_FALSE(dbf_check_bound(out_of_band, one).has_value());
  EXPECT_TRUE(edf_dbf_feasible_approx_k(out_of_band, one, 1));
  EXPECT_TRUE(edf_dbf_feasible_approx(out_of_band, one));
}

constexpr std::int64_t kTwo32 = std::int64_t{1} << 32;
constexpr std::int64_t kMax64 = std::numeric_limits<std::int64_t>::max();

// Operands on both sides of each width switch.
constexpr std::int64_t kEdges[] = {0,          1,          2,
                                   3,          7,          kTwo32 - 1,
                                   kTwo32,     kTwo32 + 1, 2 * kTwo32 + 1,
                                   kMax64 - 1, kMax64};

int128 ceil_div128(int128 a, int128 b) { return (a + b - 1) / b; }

TEST(IntegerTime, DivModMatchesInt128AtTheWidthEdges) {
  for (const std::int64_t a : kEdges) {
    for (const std::int64_t b : kEdges) {
      if (b == 0) continue;
      const DivMod q = divmod_nonneg(a, b);
      EXPECT_EQ(q.quot, static_cast<int128>(a) / b) << a << " / " << b;
      EXPECT_EQ(q.rem, static_cast<int128>(a) % b) << a << " % " << b;
    }
  }
}

TEST(IntegerTime, InstantRoundingMatchesInt128AroundInt64Max) {
  const int128 max = kMax64;
  const int128 ticks[] = {0,          1,       kTwo32 - 1, kTwo32,
                          kTwo32 + 1, max - 1, max,        max + 1,
                          max + 2,    3 * max};
  for (const std::int64_t num : {std::int64_t{1}, std::int64_t{3},
                                 kTwo32 - 1, kTwo32, kTwo32 + 1}) {
    const Rational speed(num);
    for (const int128 t : ticks) {
      SCOPED_TRACE("num=" + std::to_string(num) + " ticks=" +
                   std::to_string(static_cast<double>(t)));
      if (t / num <= max) {
        EXPECT_EQ(floor_instant(t, speed), t / num);
      }
      const int128 up = ceil_div128(t, num);
      const auto got = ceil_instant(t, speed);
      if (up <= max) {
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, up);
      } else {
        EXPECT_FALSE(got.has_value());
      }
    }
  }
}

// next_work in plain int128: c0 + sum_j ceil(ceil(W den / num) / p_j) c_j
// over every task, nullopt past int64.
std::optional<std::int64_t> plain_next_work(std::span<const Task> tasks,
                                            std::int64_t c0,
                                            std::int64_t work,
                                            const Rational& speed) {
  const int128 elapsed =
      ceil_div128(static_cast<int128>(work) * speed.den(), speed.num());
  if (elapsed > kMax64) return std::nullopt;
  int128 sum = c0;
  for (const Task& t : tasks) {
    sum += ceil_div128(elapsed, t.period) * t.exec;
    if (sum > kMax64) return std::nullopt;
  }
  return static_cast<std::int64_t>(sum);
}

TEST(IntegerTime, NextWorkMatchesInt128AtTheWidthEdges) {
  const std::vector<Task> tasks{{3, kTwo32 - 1}, {5, kTwo32}, {7, kTwo32 + 1}};
  const auto all = [](std::size_t) { return true; };
  // Unit speed: the elapsed time is the work itself.
  for (const std::int64_t work : kEdges) {
    for (const std::int64_t c0 : {std::int64_t{0}, std::int64_t{11}}) {
      EXPECT_EQ(next_work(tasks, all, c0, work, Rational(1)),
                plain_next_work(tasks, c0, work, Rational(1)))
          << "work " << work << " c0 " << c0;
    }
  }
  // Work whose ticks W den are INT64_MAX (speed 9/7) and INT64_MAX + 1
  // (speed 3/2), around each.
  const std::int64_t at_max = kMax64 / 7;  // 7 divides 2^63 - 1
  const std::int64_t past_max = std::int64_t{1} << 62;
  for (const auto& [speed, work] :
       {std::pair{Rational(9, 7), at_max}, std::pair{Rational(3, 2), past_max}}) {
    for (const std::int64_t w : {work - 1, work}) {
      EXPECT_EQ(next_work(tasks, all, 0, w, speed),
                plain_next_work(tasks, 0, w, speed))
          << "speed " << speed.to_string() << " work " << w;
    }
  }
  // Demand past int64 is nullopt on both paths.
  const std::vector<Task> heavy{{kMax64 / 2, kTwo32}};
  EXPECT_FALSE(next_work(heavy, all, 0, 2 * kTwo32 + 1, Rational(1)));
  EXPECT_FALSE(plain_next_work(heavy, 0, 2 * kTwo32 + 1, Rational(1)));
}

TEST(IntegerTime, TotalDbfMatchesInt128AtTheWidthEdges) {
  const std::vector<Task> tasks{cdp(3, kTwo32 - 2, kTwo32 - 1),
                                cdp(5, kTwo32 - 1, kTwo32),
                                cdp(7, kTwo32, kTwo32 + 1), cdp(1, 1, 2)};
  std::vector<std::int64_t> instants(std::begin(kEdges), std::end(kEdges));
  for (const std::int64_t t : {kTwo32 - 2, 2 * kTwo32 - 1, 2 * kTwo32,
                               2 * kTwo32 + 2, 3 * kTwo32}) {
    instants.push_back(t);
  }
  for (const std::int64_t t : instants) {
    int128 want = 0;
    for (const Task& task : tasks) {
      const std::int64_t d = task.effective_deadline();
      if (t >= d) want += ((t - d) / static_cast<int128>(task.period) + 1) *
                          task.exec;
    }
    EXPECT_EQ(total_dbf(tasks, t), want) << "t " << t;
  }
}

// Three tasks with periods 2^32 - 1, 2^32 and 2^32 + 1 (or half that),
// deadlines in [p / 2, p], and utilization near `target`.
std::vector<Task> tasks_at_the_edge(Rng& rng, double target) {
  std::vector<Task> tasks;
  for (const std::int64_t p : {kTwo32 - 1, kTwo32, kTwo32 + 1}) {
    const std::int64_t period = rng.bernoulli(0.5) ? p : p / 2;
    const auto c = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(target / 3 * rng.uniform(0.8, 1.2) *
                                     static_cast<double>(period)));
    const auto d = static_cast<std::int64_t>(rng.uniform(0.5, 1.0) *
                                             static_cast<double>(period));
    tasks.push_back(cdp(std::min(c, period), std::clamp(d, c, period),
                        period));
  }
  return tasks;
}

TEST(IntegerTime, QpaMatchesInt128AtTheWidthEdges) {
  // Speed numerators straddle 2^32 too, so instant t takes t * num ticks
  // that cross INT64_MAX for t near 2^31.
  Rng rng(1405);
  int accepts = 0, rejects = 0;
  for (const Rational& speed :
       {Rational(1), Rational(3, 2), Rational(kTwo32 + 1, kTwo32),
        Rational(kTwo32 - 1, std::int64_t{1} << 31),
        Rational(kTwo32, kTwo32 - 1)}) {
    for (int rep = 0; rep < 40; ++rep) {
      const auto tasks =
          tasks_at_the_edge(rng, rng.uniform(0.6, 1.05) * speed.to_double());
      SCOPED_TRACE("speed " + speed.to_string() + " rep " +
                   std::to_string(rep));
      EXPECT_EQ(dbf_check_bound(tasks, speed),
                qpa_reference::dbf_check_bound(tasks, speed));
      const bool qpa = edf_dbf_feasible_qpa(tasks, speed);
      EXPECT_EQ(qpa, qpa_reference::edf_dbf_feasible_qpa(tasks, speed));
      (qpa ? accepts : rejects) += 1;
    }
  }
  EXPECT_GT(accepts, 0);
  EXPECT_GT(rejects, 0);
}

// The response time of task i in plain int128: the least fixed point of
// W = c_i + sum over higher priority j of ceil(ceil(W den / num) / p_j)
// c_j, nullopt once W / s passes d_i.
std::optional<Rational> plain_response_time(std::span<const Task> tasks,
                                            std::size_t i,
                                            const Rational& speed) {
  const std::int64_t di = tasks[i].effective_deadline();
  const int128 limit = static_cast<int128>(di) * speed.num();
  int128 work = tasks[i].exec;
  for (;;) {
    if (work * speed.den() > limit) return std::nullopt;
    const int128 elapsed = ceil_div128(work * speed.den(), speed.num());
    int128 next = tasks[i].exec;
    for (std::size_t j = 0; j < tasks.size(); ++j) {
      const std::int64_t dj = tasks[j].effective_deadline();
      if (dj < di || (dj == di && j < i)) {
        next += ceil_div128(elapsed, tasks[j].period) * tasks[j].exec;
      }
    }
    if (next == work) {
      return Rational(static_cast<std::int64_t>(work)) / speed;
    }
    work = next;
  }
}

TEST(IntegerTime, ResponseTimeMatchesInt128AtTheWidthEdges) {
  // Small speed numerators: a response time W / s with W near 2^32 must
  // stay a representable Rational.  The elapsed time still crosses 2^32.
  Rng rng(1406);
  int bounded = 0, missed = 0;
  for (const Rational& speed :
       {Rational(1), Rational(3, 2), Rational(9, 4), Rational(7, 3)}) {
    for (int rep = 0; rep < 40; ++rep) {
      const auto tasks =
          tasks_at_the_edge(rng, rng.uniform(0.4, 1.0) * speed.to_double());
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        const auto want = plain_response_time(tasks, i, speed);
        EXPECT_EQ(response_time(tasks, i, speed), want)
            << "speed " << speed.to_string() << " rep " << rep << " task "
            << i;
        (want ? bounded : missed) += 1;
      }
    }
  }
  EXPECT_GT(bounded, 0);
  EXPECT_GT(missed, 0);
}

}  // namespace
}  // namespace hetsched
