#include "dbf/demand_bound.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/int_time.h"
#include "util/check.h"
#include "util/int128.h"
#include "util/int_math.h"

namespace hetsched {

namespace {

// dbf_i(t), or nullopt when it overflows int64.
std::optional<std::int64_t> dbf_checked(const Task& task, std::int64_t t) {
  const std::int64_t d = task.effective_deadline();
  if (t < d) return 0;
  return checked_mul(divmod_nonneg(t - d, task.period).quot + 1, task.exec);
}

// sum_i dbf_i(t), or nullopt when it overflows int64.  The deciders sum
// through this instead of total_dbf: an overflowing demand is answered
// "infeasible", a sound reject, never an abort.
// HETSCHED_NOALLOC
std::optional<std::int64_t> total_dbf_checked(std::span<const Task> tasks,
                                              std::int64_t t) {
  std::int64_t sum = 0;
  for (const Task& task : tasks) {
    const auto demand = dbf_checked(task, t);
    const auto next = demand ? checked_add(sum, *demand) : std::nullopt;
    if (!next) return std::nullopt;
    sum = *next;
  }
  return sum;
}

}  // namespace

std::int64_t dbf(const Task& task, std::int64_t t) {
  HETSCHED_DCHECK(task.valid());
  const auto demand = dbf_checked(task, t);
  HETSCHED_CHECK_MSG(demand.has_value(), "dbf overflow");
  return *demand;
}

std::int64_t total_dbf(std::span<const Task> tasks,
                       std::int64_t t) {
  const auto sum = total_dbf_checked(tasks, t);
  HETSCHED_CHECK_MSG(sum.has_value(), "total dbf overflow");
  return *sum;
}

namespace {

// Utilization sums are compared in long double rather than exact rationals:
// the reduced denominator of sum(c_i / p_i) is the lcm of the periods,
// which overflows 64 bits for a handful of coprime periods.  An 80-bit sum
// of <= thousands of terms is accurate to ~1e-17 relative, and every use
// below applies a +/- 1e-12 indifference band: values inside the band are
// treated as "equal to the speed", which errs toward the busy-period bound
// (never toward wrongly rejecting or accepting).
constexpr long double kUtilBand = 1e-12L;

long double total_utilization_ld(std::span<const Task> tasks) {
  long double u = 0;
  for (const Task& t : tasks) {
    u += static_cast<long double>(t.exec) / static_cast<long double>(t.period);
  }
  return u;
}

// What the bound and QPA read off a set once it passes U <= s: La's
// numerator sum (p_i - d_i) u_i, summed in index order, and the smallest
// and largest relative deadline.
struct Deadlines {
  long double slack = 0;
  std::int64_t dmin = std::numeric_limits<std::int64_t>::max();
  std::int64_t dmax = 0;
};

Deadlines deadlines_of(std::span<const Task> tasks) {
  Deadlines set;
  for (const Task& t : tasks) {
    const std::int64_t d = t.effective_deadline();
    set.slack += static_cast<long double>(t.period - d) *
                 static_cast<long double>(t.exec) /
                 static_cast<long double>(t.period);
    set.dmin = std::min(set.dmin, d);
    set.dmax = std::max(set.dmax, d);
  }
  return set;
}

long double speed_ld(const Rational& speed) {
  return static_cast<long double>(speed.num()) /
         static_cast<long double>(speed.den());
}

// La = sum (p_i - d_i) u_i / (s - U): beyond it, dbf(t) <= s t follows from
// U <= s alone.  Used only when U lies below s by more than the band;
// computed in long double and inflated slightly — any upper bound on La is
// a valid check bound.  nullopt otherwise, or when La does not fit int64
// (the busy period alone then bounds the scan).
std::optional<std::int64_t> la_bound(long double slack, long double u,
                                     long double s) {
  if (!(u < s - kUtilBand)) return std::nullopt;
  const long double la = slack / (s - u) * (1 + 1e-9L) + 1;
  if (!(la < 0x1p63L)) return std::nullopt;
  return static_cast<std::int64_t>(la);
}

// Synchronous busy-period length at speed s — the least fixed point of
//   L = (sum_i ceil(L / p_i) * c_i) / s,
// seeded with the total first-job demand — rounded up to an integer
// instant.  Exists whenever U <= s; a cap guards the U == s case where it
// can reach the hyperperiod.  The iterates are integer work W with
// L = W / s (core/int_time.h), and they only grow: once one reaches `stop`
// the fixed point lies at or beyond it, so `stop` is returned.  nullopt
// past the cap or the iteration limit, or when the work overflows int64.
// HETSCHED_NOALLOC
std::optional<std::int64_t> busy_period(std::span<const Task> tasks,
                                        const Rational& speed,
                                        std::optional<std::int64_t> stop) {
  std::int64_t work = 0;
  for (const Task& t : tasks) {
    const auto next = checked_add(work, t.exec);
    if (!next) return std::nullopt;
    work = *next;
  }
  constexpr int kMaxIters = 100000;
  const int128 cap = instant_ticks(std::int64_t{1} << 40, speed);
  const auto all = [](std::size_t) { return true; };
  for (int iter = 0; iter < kMaxIters; ++iter) {
    if (stop && work_ticks(work, speed) >= instant_ticks(*stop, speed)) {
      return stop;
    }
    const auto next = next_work(tasks, all, 0, work, speed);
    if (!next) return std::nullopt;
    if (*next == work) return ceil_instant(work_ticks(work, speed), speed);
    if (work_ticks(*next, speed) > cap) return std::nullopt;
    HETSCHED_DCHECK(*next > work);
    work = *next;
  }
  return std::nullopt;
}

// Largest absolute deadline k * p_i + d_i (k >= 0) at or before instant
// `t`; nullopt if none exists.
// HETSCHED_NOALLOC
std::optional<std::int64_t> max_deadline_at_most(std::span<const Task> tasks,
                                                 std::int64_t t) {
  std::optional<std::int64_t> best;
  for (const Task& task : tasks) {
    const std::int64_t d = task.effective_deadline();
    if (d > t) continue;
    const std::int64_t candidate = t - divmod_nonneg(t - d, task.period).rem;
    if (!best || candidate > *best) best = candidate;
  }
  return best;
}

// min(busy period, La) — the busy-period scan stops at La — and never
// below d_max: the first job of each task must be checked at least once.
// HETSCHED_NOALLOC
std::optional<std::int64_t> check_bound(std::span<const Task> tasks,
                                        const Rational& speed,
                                        std::optional<std::int64_t> la,
                                        std::int64_t dmax) {
  std::optional<std::int64_t> bound = busy_period(tasks, speed, la);
  if (!bound) bound = la;
  if (!bound) return std::nullopt;
  return std::max(*bound, dmax);
}

// How a QPA scan ended, and the instant (in ticks) it ended at.
enum class ScanEnd : std::uint8_t {
  kVerified,   // no instant at or below the start misses
  kViolation,  // a miss at `at`
  kOverflow,   // the demand at `at` exceeds int64
  kBudget,     // out of visits; the scan would go on at `at`
};

struct Scan {
  ScanEnd end;
  int128 at;
};

// No visit budget.
constexpr std::int64_t kUnbounded = std::numeric_limits<std::int64_t>::max();

// Visits the scan down from max(La, d_max) may spend before the bound
// takes over.
constexpr std::int64_t kLaScanBudget = 64;

// QPA's downward scan (Zhang & Burns 2009) from instant `t`, in ticks
// (core/int_time.h: a deadline d is instant_ticks(d), and the time demand
// D takes is work_ticks(D)).  A visit computes D = dbf(t).  D / s > t is a
// miss; otherwise no instant in [D / s, t] misses, so the scan jumps to
// D / s, or, when D / s == t, to the largest deadline below t.  It is done
// once it reaches the verified prefix [0, `verified`] or D / s falls to
// `safe` (the smallest deadline, below which nothing is demanded).  Demand
// only shrinks as the scan descends, so an overflow can only come at the
// first visit.
// HETSCHED_NOALLOC
Scan qpa_scan(std::span<const Task> tasks, const Rational& speed, int128 t,
              int128 verified, int128 safe, std::int64_t budget) {
  for (std::int64_t visits = 0;; ++visits) {
    if (t <= verified) return {ScanEnd::kVerified, t};
    if (visits == budget) return {ScanEnd::kBudget, t};
    const auto demand = total_dbf_checked(tasks, floor_instant(t, speed));
    if (!demand) return {ScanEnd::kOverflow, t};
    const int128 need = work_ticks(*demand, speed);
    if (need > t) return {ScanEnd::kViolation, t};
    if (need <= safe) return {ScanEnd::kVerified, t};
    if (need < t) {
      t = need;
      continue;
    }
    const auto next = max_deadline_at_most(tasks, floor_instant(t - 1, speed));
    if (!next) return {ScanEnd::kVerified, t};
    t = instant_ticks(*next, speed);
  }
}

// qpa_scan from the largest deadline at or before instant `top`.
// HETSCHED_NOALLOC
Scan qpa_scan_from(std::span<const Task> tasks, const Rational& speed,
                   std::int64_t top, int128 verified, int128 safe,
                   std::int64_t budget) {
  const auto start = max_deadline_at_most(tasks, top);
  if (!start) return {ScanEnd::kVerified, 0};
  return qpa_scan(tasks, speed, instant_ticks(*start, speed), verified, safe,
                  budget);
}

}  // namespace

// HETSCHED_NOALLOC
std::optional<std::int64_t> dbf_check_bound(
    std::span<const Task> tasks, const Rational& speed) {
  HETSCHED_CHECK(speed > Rational(0));
  if (tasks.empty()) return 0;
  const long double u = total_utilization_ld(tasks);
  const long double s = speed_ld(speed);
  if (u > s + kUtilBand) return std::nullopt;  // trivially infeasible
  const Deadlines set = deadlines_of(tasks);
  return check_bound(tasks, speed, la_bound(set.slack, u, s), set.dmax);
}

bool edf_dbf_feasible_exact(std::span<const Task> tasks,
                            const Rational& speed) {
  if (tasks.empty()) return true;
  // dbf_check_bound rejects U > speed (within the band) via nullopt.
  const auto bound = dbf_check_bound(tasks, speed);
  if (!bound) return false;

  // Enumerate every absolute deadline k * p_i + d_i <= bound.
  std::vector<std::int64_t> points;
  for (const Task& t : tasks) {
    for (std::int64_t x = t.effective_deadline(); x <= *bound;
         x += t.period) {
      points.push_back(x);
    }
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  for (const std::int64_t t : points) {
    if (Rational(total_dbf(tasks, t)) > speed * Rational(t)) return false;
  }
  return true;
}

// HETSCHED_NOALLOC
QpaVerdict edf_dbf_qpa_verdict(std::span<const Task> tasks,
                               const Rational& speed) {
  if (tasks.empty()) return {true, QpaStage::kUtilization};
  HETSCHED_CHECK(speed > Rational(0));
  const long double u = total_utilization_ld(tasks);
  const long double s = speed_ld(speed);
  if (u > s + kUtilBand) return {false, QpaStage::kUtilization};
  const Deadlines set = deadlines_of(tasks);
  const std::optional<std::int64_t> la = la_bound(set.slack, u, s);
  const int128 safe = instant_ticks(set.dmin, speed);

  // Stage 1: the prefix [0, B], B = 2 d_max capped at max(La, d_max).
  // An overflow at its top verifies nothing: that instant may lie beyond
  // the bound, where the demand need not fit.
  std::int64_t prefix = checked_add(set.dmax, set.dmax)
                            .value_or(std::numeric_limits<std::int64_t>::max());
  if (la) prefix = std::min(prefix, std::max(*la, set.dmax));
  const Scan first =
      qpa_scan_from(tasks, speed, prefix, -1, safe, kUnbounded);
  if (first.end == ScanEnd::kViolation) return {false, QpaStage::kPrefix};
  const bool prefix_ok = first.end == ScanEnd::kVerified;
  const int128 verified = prefix_ok ? instant_ticks(prefix, speed) : -1;

  // Stage 2: down from max(La, d_max), which bounds every instant the
  // bound below could name, to B, within a budget.  Its start is at or
  // above stage 1's, so after an overflow there it would overflow too.
  std::optional<int128> resume;
  if (la && prefix_ok) {
    const std::int64_t top = std::max(*la, set.dmax);
    if (top <= prefix) return {true, QpaStage::kPrefix};
    const Scan second =
        qpa_scan_from(tasks, speed, top, verified, safe, kLaScanBudget);
    if (second.end == ScanEnd::kVerified) return {true, QpaStage::kLa};
    if (second.end == ScanEnd::kViolation) return {false, QpaStage::kLa};
    if (second.end == ScanEnd::kBudget) resume = second.at;
  }

  // Stage 3: the busy-period bound, as dbf_check_bound computes it, down
  // to B — or on from where stage 2 stopped, if that is lower.  Here an
  // overflow rejects.
  const auto bound = check_bound(tasks, speed, la, set.dmax);
  if (!bound) return {false, QpaStage::kBusyPeriod};
  const auto start = max_deadline_at_most(tasks, *bound);
  if (!start) return {true, QpaStage::kBusyPeriod};
  int128 t = instant_ticks(*start, speed);
  if (resume) t = std::min(t, *resume);
  const Scan last = qpa_scan(tasks, speed, t, verified, safe, kUnbounded);
  return {last.end == ScanEnd::kVerified, QpaStage::kBusyPeriod};
}

// HETSCHED_NOALLOC
bool edf_dbf_feasible_qpa(std::span<const Task> tasks,
                          const Rational& speed) {
  return edf_dbf_qpa_verdict(tasks, speed).feasible;
}

bool edf_dbf_feasible_approx(std::span<const Task> tasks,
                             const Rational& speed) {
  return edf_dbf_feasible_approx_k(tasks, speed, 1);
}

// HETSCHED_NOALLOC
bool edf_dbf_feasible_approx_k(std::span<const Task> tasks,
                               const Rational& speed, std::size_t k) {
  HETSCHED_CHECK(k >= 1);
  if (tasks.empty()) return true;
  const long double s = speed_ld(speed);
  const long double u = total_utilization_ld(tasks);
  if (u > s + kUtilBand) return false;
  // Check points beyond the La/busy-period bound are always safe: each
  // dbf*_i lies below its tangent line u_i t + (c_i - u_i d_i), and past
  // the bound the summed line is below s t.  Capping the scan there both
  // matches the canonical k-point test and lets acceptance converge to the
  // exact test as k grows.  The bound is never below d_max, so at k = 1 —
  // probes at first deadlines only — it excludes no point.  It matters
  // there only inside the band of s, where La is not used and a missing
  // busy period rejects.
  std::int64_t limit = std::numeric_limits<std::int64_t>::max();
  if (k > 1 || u >= s - kUtilBand) {
    const auto bound = dbf_check_bound(tasks, speed);
    if (!bound) return false;
    limit = *bound;
  }

  // dbf*_i is the exact step function for the first k jobs and the
  // utilization line afterwards.  The total is piecewise linear with jumps
  // only at the retained step points and with slope <= U <= s everywhere,
  // so the difference dbf*(t) - s t attains its maxima right at the jump
  // points: checking those O(nk) instants (plus the U <= s tail condition
  // above) decides the whole axis.  Sums are long double (rational lcm
  // denominators overflow); the comparison keeps a conservative band so
  // the test stays *sound* — a borderline value is rejected, never
  // accepted.
  auto dbf_star = [k](const Task& task, long double t) {
    const long double d = static_cast<long double>(task.effective_deadline());
    if (t < d) return 0.0L;
    const long double p = static_cast<long double>(task.period);
    const long double c = static_cast<long double>(task.exec);
    const long double kink = d + static_cast<long double>(k - 1) * p;
    if (t < kink) {
      return (std::floor((t - d) / p) + 1) * c;
    }
    return static_cast<long double>(k) * c + c / p * (t - kink);
  };

  for (const Task& probe : tasks) {
    for (std::size_t j = 0; j < k; ++j) {
      const long double t =
          static_cast<long double>(probe.effective_deadline()) +
          static_cast<long double>(j) * static_cast<long double>(probe.period);
      if (t > static_cast<long double>(limit)) break;
      long double demand = 0;
      for (const Task& task : tasks) demand += dbf_star(task, t);
      if (demand > s * t * (1 - kUtilBand)) return false;
    }
  }
  return true;
}

}  // namespace hetsched
