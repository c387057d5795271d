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

// The work of every task's first job, the busy period's first iterate;
// nullopt when it overflows int64.
// HETSCHED_NOALLOC
std::optional<std::int64_t> first_jobs(std::span<const Task> tasks) {
  std::int64_t work = 0;
  for (const Task& t : tasks) {
    const auto next = checked_add(work, t.exec);
    if (!next) return std::nullopt;
    work = *next;
  }
  return work;
}

// The synchronous busy period at speed s — the least fixed point of
//   L = (sum_i ceil(L / p_i) * c_i) / s,
// seeded with the total first-job demand — one step of the recurrence at
// a time.  The iterates are integer work W with L = W / s
// (core/int_time.h), and they only grow, so W / s bounds L from below
// throughout.  The fixed point exists whenever U <= s; a cap guards the
// U == s case where it can reach the hyperperiod.  The iteration fails
// past the cap or the step limit, or when the work overflows int64.
// dbf_check_bound and QPA's race step through this one class, so the race
// converges exactly where the bound does.
class BusyPeriod {
 public:
  enum class State : std::uint8_t { kGrowing, kConverged, kFailed };

  // HETSCHED_NOALLOC
  BusyPeriod(std::span<const Task> tasks, const Rational& speed)
      : tasks_(tasks),
        speed_(speed),
        cap_(instant_ticks(std::int64_t{1} << 40, speed)) {
    const std::optional<std::int64_t> first = first_jobs(tasks);
    work_ = first.value_or(0);
    state_ = first ? State::kGrowing : State::kFailed;
  }

  State state() const { return state_; }
  std::int64_t steps() const { return steps_; }

  // Whether W / s has reached instant `t`, so that L lies at or beyond it.
  bool reaches(std::int64_t t) const {
    return work_ticks(work_, speed_) >= instant_ticks(t, speed_);
  }

  // ceil(W / s): L rounded up to an integer instant once converged;
  // nullopt beyond int64.
  std::optional<std::int64_t> length() const {
    return ceil_instant(work_ticks(work_, speed_), speed_);
  }

  // One step W' = sum_i ceil(W / (s p_i)) c_i.
  // HETSCHED_NOALLOC
  State step() {
    HETSCHED_DCHECK(state_ == State::kGrowing);
    ++steps_;
    const auto all = [](std::size_t) { return true; };
    const auto next = next_work(tasks_, all, 0, work_, speed_);
    if (next && *next == work_) {
      state_ = State::kConverged;
    } else if (!next || work_ticks(*next, speed_) > cap_) {
      state_ = State::kFailed;
    } else {
      HETSCHED_DCHECK(*next > work_);
      work_ = *next;
      if (steps_ == kMaxSteps) state_ = State::kFailed;
    }
    return state_;
  }

 private:
  static constexpr std::int64_t kMaxSteps = 100000;

  std::span<const Task> tasks_;
  Rational speed_;
  int128 cap_;
  std::int64_t work_ = 0;
  std::int64_t steps_ = 0;
  State state_ = State::kGrowing;
};

// L from a fresh busy period, or `stop` once an iterate reaches it: the
// fixed point then lies at or beyond it.  nullopt where the iteration
// fails.  Adds the steps taken to `steps`.
// HETSCHED_NOALLOC
std::optional<std::int64_t> busy_period(std::span<const Task> tasks,
                                        const Rational& speed,
                                        std::optional<std::int64_t> stop,
                                        std::int64_t& steps) {
  BusyPeriod busy(tasks, speed);
  while (busy.state() == BusyPeriod::State::kGrowing &&
         !(stop && busy.reaches(*stop))) {
    busy.step();
  }
  steps += busy.steps();
  switch (busy.state()) {
    case BusyPeriod::State::kGrowing:
      return stop;
    case BusyPeriod::State::kConverged:
      return busy.length();
    case BusyPeriod::State::kFailed:
      break;
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
// Adds the busy period's steps to `steps`.
// HETSCHED_NOALLOC
std::optional<std::int64_t> check_bound(std::span<const Task> tasks,
                                        const Rational& speed,
                                        std::optional<std::int64_t> la,
                                        std::int64_t dmax,
                                        std::int64_t& steps) {
  std::optional<std::int64_t> bound = busy_period(tasks, speed, la, steps);
  if (!bound) bound = la;
  if (!bound) return std::nullopt;
  return std::max(*bound, dmax);
}

// How a QPA scan ended.
enum class ScanEnd : std::uint8_t {
  kVerified,   // no instant at or below the start misses
  kViolation,  // a miss
  kOverflow,   // a demand exceeds int64
};

// One visit of QPA's downward scan (Zhang & Burns 2009) at instant `t`, in
// ticks (core/int_time.h: a deadline d is instant_ticks(d), and the time
// demand D takes is work_ticks(D)).  A visit computes D = dbf(t).
// D / s > t is a miss; otherwise no instant in [D / s, t] misses, so the
// scan jumps to D / s, or, when D / s == t, to the largest deadline below
// t.  It is done once it reaches the verified prefix [0, `verified`] or
// D / s falls to `safe` (the smallest deadline, below which nothing is
// demanded).  Demand only shrinks as the scan descends, so an overflow can
// only come at a scan's first visit.  Returns how the scan ended, or
// nullopt with `t` moved down to the next instant to visit.
// HETSCHED_NOALLOC
std::optional<ScanEnd> qpa_visit(std::span<const Task> tasks,
                                 const Rational& speed, int128& t,
                                 int128 verified, int128 safe,
                                 std::int64_t& visits) {
  if (t <= verified) return ScanEnd::kVerified;
  ++visits;
  const auto demand = total_dbf_checked(tasks, floor_instant(t, speed));
  if (!demand) return ScanEnd::kOverflow;
  const int128 need = work_ticks(*demand, speed);
  if (need > t) return ScanEnd::kViolation;
  if (need <= safe) return ScanEnd::kVerified;
  if (need < t) {
    t = need;
    return std::nullopt;
  }
  const auto next = max_deadline_at_most(tasks, floor_instant(t - 1, speed));
  if (!next) return ScanEnd::kVerified;
  t = instant_ticks(*next, speed);
  return std::nullopt;
}

// QPA's scan from the largest deadline at or before instant `top`.
// HETSCHED_NOALLOC
ScanEnd qpa_scan_from(std::span<const Task> tasks, const Rational& speed,
                      std::int64_t top, int128 verified, int128 safe,
                      std::int64_t& visits) {
  const auto start = max_deadline_at_most(tasks, top);
  if (!start) return ScanEnd::kVerified;
  int128 t = instant_ticks(*start, speed);
  for (;;) {
    if (const auto end = qpa_visit(tasks, speed, t, verified, safe, visits)) {
      return *end;
    }
  }
}

// Stage 2 takes one busy-period step per this many scan visits.
//
// No schedule moves a verdict: the race only lowers the top to
// max(L, d_max), with L the converged fixed point, and BusyPeriod steps
// exactly as dbf_check_bound's does, so that is dbf_check_bound's own
// bound.  The ratio sets the cost.  With K the steps the busy period needs
// to converge, the segments make at most 8 K visits before the top drops
// to max(L, d_max), and at most 1/8 of their visits go to steps.
constexpr std::int64_t kRaceRatio = 8;

// Stage 2: QPA over (B, top], top = max(La, d_max), bottom up.  The
// prefix [0, B] is segment 0, and segment k scans from the largest
// deadline at or before min(2^k B, top) down to segment k - 1's top.
// Misses tend to lie within a few d_max, so the lowest one above B turns
// up after a few segment starts rather than after a scan of everything
// above it.  Where no instant misses, QPA's next instant grows with the
// instant it leaves, so a scan from a lower start stays at or below the
// one from `top`: segment k makes at most one visit more than the single
// scan from `top` makes inside segment k's range.
//
// The busy period races across the segments, one step per kRaceRatio
// visits.  Its iterates W only grow and L >= W / s: once W / s reaches
// the top it cannot lower it and stops; once it converges, every instant
// past max(L, d_max) is safe, the top drops there and the scan drops to
// the largest deadline at or before it.
// HETSCHED_NOALLOC
ScanEnd qpa_segments(std::span<const Task> tasks, const Rational& speed,
                     std::int64_t prefix, std::int64_t top, std::int64_t dmax,
                     int128 safe, std::int64_t& visits, std::int64_t& steps) {
  int128 verified = instant_ticks(prefix, speed);
  BusyPeriod busy(tasks, speed);
  bool racing = busy.state() == BusyPeriod::State::kGrowing;
  const std::int64_t raced_from = visits;
  for (std::int64_t seg_top = prefix; seg_top < top;) {
    seg_top = seg_top <= top / 2 ? 2 * seg_top : top;
    int128 t = instant_ticks(*max_deadline_at_most(tasks, seg_top), speed);
    for (;;) {
      const auto end = qpa_visit(tasks, speed, t, verified, safe, visits);
      if (end && *end != ScanEnd::kVerified) {
        steps += busy.steps();
        return *end;
      }
      if (racing && visits - raced_from >= kRaceRatio * (busy.steps() + 1)) {
        racing = !busy.reaches(top) &&
                 busy.step() == BusyPeriod::State::kGrowing;
        if (busy.state() == BusyPeriod::State::kConverged) {
          // Converged below the top, so L = ceil(W / s) fits int64.
          top = std::min(top, std::max(*busy.length(), dmax));
          seg_top = std::min(seg_top, top);
          if (!end && instant_ticks(top, speed) < t) {
            t = instant_ticks(*max_deadline_at_most(tasks, top), speed);
          }
        }
      }
      if (end) break;
    }
    verified = std::max(verified, instant_ticks(seg_top, speed));
  }
  steps += busy.steps();
  return ScanEnd::kVerified;
}

// Whether the demand at instant `t` exceeds int64.  dbf(t) <= U t +
// sum (p_i - d_i) u_i, so where that sum lies below 2^62 it cannot, and
// no demand is evaluated; otherwise one visit evaluates it.
// HETSCHED_NOALLOC
bool demand_overflows(std::span<const Task> tasks, std::int64_t t,
                      long double util, long double slack,
                      std::int64_t& visits) {
  if (util * static_cast<long double>(t) + slack < 0x1p62L) return false;
  ++visits;
  return !total_dbf_checked(tasks, t).has_value();
}

// The k-point approximate demand at `t`: every task's dbf*, summed in
// index order in long double.
// HETSCHED_NOALLOC
long double approx_demand(std::span<const Task> tasks, std::size_t k,
                          long double t) {
  auto dbf_star = [k](const Task& task, long double at) {
    const long double d = static_cast<long double>(task.effective_deadline());
    if (at < d) return 0.0L;
    const long double p = static_cast<long double>(task.period);
    const long double c = static_cast<long double>(task.exec);
    const long double kink = d + static_cast<long double>(k - 1) * p;
    if (at < kink) {
      return (std::floor((at - d) / p) + 1) * c;
    }
    return static_cast<long double>(k) * c + c / p * (at - kink);
  };
  long double demand = 0;
  for (const Task& task : tasks) demand += dbf_star(task, t);
  return demand;
}

// What the approximate demand at `t` may reach on a speed-s machine.  The
// comparison keeps a conservative band so the test stays *sound* — a
// borderline value is rejected, never accepted.
long double approx_threshold(long double s, long double t) {
  return s * t * (1 - kUtilBand);
}

}  // namespace

// HETSCHED_NOALLOC
long double utilization_ld(std::span<const Task> tasks) {
  long double u = 0;
  for (const Task& t : tasks) {
    u += static_cast<long double>(t.exec) / static_cast<long double>(t.period);
  }
  return u;
}

// HETSCHED_NOALLOC
std::optional<std::int64_t> dbf_check_bound(
    std::span<const Task> tasks, const Rational& speed) {
  HETSCHED_CHECK(speed > Rational(0));
  if (tasks.empty()) return 0;
  const long double u = utilization_ld(tasks);
  const long double s = speed_ld(speed);
  if (u > s + kUtilBand) return std::nullopt;  // trivially infeasible
  const Deadlines set = deadlines_of(tasks);
  std::int64_t steps = 0;
  return check_bound(tasks, speed, la_bound(set.slack, u, s), set.dmax, steps);
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
  return edf_dbf_qpa_verdict(tasks, speed, utilization_ld(tasks));
}

// HETSCHED_NOALLOC
QpaVerdict edf_dbf_qpa_verdict(std::span<const Task> tasks,
                               const Rational& speed, long double util) {
  std::int64_t visits = 0;
  std::int64_t steps = 0;
  if (tasks.empty()) return {true, QpaStage::kUtilization, visits, steps};
  HETSCHED_CHECK(speed > Rational(0));
  const long double s = speed_ld(speed);
  if (util > s + kUtilBand) {
    return {false, QpaStage::kUtilization, visits, steps};
  }
  const Deadlines set = deadlines_of(tasks);
  const std::optional<std::int64_t> la = la_bound(set.slack, util, s);
  const int128 safe = instant_ticks(set.dmin, speed);

  // Stage 1: the prefix [0, B], B = 2 d_max capped at max(La, d_max).
  // An overflow at its top verifies nothing: that instant may lie beyond
  // the bound, where the demand need not fit.
  std::int64_t prefix = checked_add(set.dmax, set.dmax)
                            .value_or(std::numeric_limits<std::int64_t>::max());
  if (la) prefix = std::min(prefix, std::max(*la, set.dmax));
  const ScanEnd first =
      qpa_scan_from(tasks, speed, prefix, -1, safe, visits);
  if (first == ScanEnd::kViolation) {
    return {false, QpaStage::kPrefix, visits, steps};
  }
  const bool prefix_ok = first == ScanEnd::kVerified;
  const int128 verified = prefix_ok ? instant_ticks(prefix, speed) : -1;

  // Stage 2: the segments from B up to max(La, d_max), which bounds every
  // instant the bound below could name, raced against the busy period.
  // Each segment starts at or above stage 1's start, so after an overflow
  // there the first would overflow too.  An overflow at the top leaves the
  // verdict to the bound.  The segments would meet it only after scanning
  // everything below, so where the demand at the top may pass int64 it is
  // evaluated there first; demand grows with the instant, so below a top
  // that fits no segment overflows.
  if (la && prefix_ok) {
    const std::int64_t top = std::max(*la, set.dmax);
    if (top <= prefix) return {true, QpaStage::kPrefix, visits, steps};
    ScanEnd second = ScanEnd::kOverflow;
    if (!demand_overflows(tasks, top, util, set.slack, visits)) {
      second = qpa_segments(tasks, speed, prefix, top, set.dmax, safe, visits,
                            steps);
    }
    if (second != ScanEnd::kOverflow) {
      return {second == ScanEnd::kVerified, QpaStage::kLa, visits, steps};
    }
  }

  // Stage 3: the busy-period bound, as dbf_check_bound computes it, down
  // to B.  Here an overflow rejects.
  const auto bound = check_bound(tasks, speed, la, set.dmax, steps);
  if (!bound) return {false, QpaStage::kBusyPeriod, visits, steps};
  const ScanEnd last =
      qpa_scan_from(tasks, speed, *bound, verified, safe, visits);
  return {last == ScanEnd::kVerified, QpaStage::kBusyPeriod, visits, steps};
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
  return edf_dbf_feasible_approx_k(tasks, speed, k, utilization_ld(tasks));
}

// HETSCHED_NOALLOC
bool edf_dbf_feasible_approx_k(std::span<const Task> tasks,
                               const Rational& speed, std::size_t k,
                               long double util) {
  HETSCHED_CHECK(k >= 1);
  if (tasks.empty()) return true;
  const long double s = speed_ld(speed);
  const long double u = util;
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
    const Deadlines set = deadlines_of(tasks);
    std::int64_t steps = 0;
    const auto bound =
        check_bound(tasks, speed, la_bound(set.slack, u, s), set.dmax, steps);
    if (!bound) return false;
    limit = *bound;
  }

  // dbf*_i is the exact step function for the first k jobs and the
  // utilization line afterwards.  The total is piecewise linear with jumps
  // only at the retained step points and with slope <= U <= s everywhere,
  // so the difference dbf*(t) - s t attains its maxima right at the jump
  // points: checking those O(nk) instants (plus the U <= s tail condition
  // above) decides the whole axis.  Sums are long double (rational lcm
  // denominators overflow).
  for (const Task& probe : tasks) {
    for (std::size_t j = 0; j < k; ++j) {
      const long double t =
          static_cast<long double>(probe.effective_deadline()) +
          static_cast<long double>(j) * static_cast<long double>(probe.period);
      if (t > static_cast<long double>(limit)) break;
      if (approx_demand(tasks, k, t) > approx_threshold(s, t)) return false;
    }
  }
  return true;
}

DeadlineTerm deadline_term(const Task& task, std::uint32_t index) {
  constexpr std::int64_t kExactInDouble = std::int64_t{1} << 53;
  DeadlineTerm term;
  term.deadline = task.effective_deadline();
  term.index = index;
  term.exact = std::max(task.exec, task.period) < kExactInDouble;
  term.c_term = static_cast<double>(task.exec);
  term.u_term = term.c_term / static_cast<double>(task.period);
  term.a_term =
      term.c_term - term.u_term * static_cast<double>(term.deadline);
  return term;
}

// The rounding bound.  Let eps = 2^-53, N = tasks.size(), and at a probe
// t = D let C, U and A be the exact sums of c_j, u_j = c_j / p_j and
// c_j - u_j d_j over the tasks with d_j <= D, and M = C + D U.  Every c_j,
// p_j and D is below 2^53, so exact in double, and 0 <= A <= C because
// d_j <= p_j.
//   * Each double u_j carries one rounding, c_j - u_j d_j three, whose
//     error is at most 3.01 eps c_j since u_j d_j <= c_j; a sequential sum
//     of m <= N terms adds gamma_m = m eps / (1 - m eps) of the sum of
//     their magnitudes (Higham, Accuracy and Stability, 4.2).  With one
//     rounding each for D U and the final add, the double demand
//     A + D U is within (N + 4) eps M of the exact A + D U, to first order.
//   * The O(n^2) test sums c + (c / p)(t - d) per task in long double:
//     t - d is exact, each term carries three roundings and the sum N - 1
//     more, all of nonnegative terms, so it is within (N + 3) 2^-64 M of
//     the exact demand.
//   * Both then meet the very same long-double threshold, and the gap
//     between the double demand and it is taken in long double, which
//     errs by 2^-64 of the gap itself.
// So the two demands differ by at most (1 + 2^-11)(N + 4) eps M, to first
// order, since 2^-64 = 2^-11 eps.  The bound below is 2 (N + 8) eps times
// M as computed in double, which lies within (N + 3) eps of M relative:
// the factor 2 covers that and every second-order term while N eps <
// 2^-20, which N < 2^32 ensures.  A probe whose gap to the threshold
// exceeds the bound has the O(n^2) test's verdict; a probe within it is
// recomputed exactly as that test computes it.  A fused multiply-add only
// drops roundings, so the bound holds with or without contraction.
// HETSCHED_NOALLOC
std::optional<LinearApprox> edf_dbf_approx_linear(
    std::span<const Task> tasks, std::span<const DeadlineTerm> order,
    const Rational& speed, long double util) {
  HETSCHED_DCHECK(order.size() + 1 == tasks.size());
  const long double s = speed_ld(speed);
  if (util > s + kUtilBand) return LinearApprox{false, 0};
  if (util >= s - kUtilBand) return std::nullopt;
  constexpr std::size_t kMaxTasks = std::size_t{1} << 32;
  const DeadlineTerm cand =
      deadline_term(tasks.back(), static_cast<std::uint32_t>(order.size()));
  if (!cand.exact || tasks.size() >= kMaxTasks) return std::nullopt;

  const double scale = static_cast<double>(tasks.size() + 8) * 0x1p-52;
  LinearApprox verdict{true, 0};
  double c = 0, u = 0, a = 0;  // the residents summed so far
  // Whether the probe at deadline `d` rejects: the sums so far are every
  // resident with a deadline at most d, plus the candidate if `with_cand`.
  const auto rejects = [&](std::int64_t d, bool with_cand) {
    const double cs = with_cand ? c + cand.c_term : c;
    const double us = with_cand ? u + cand.u_term : u;
    const double as = with_cand ? a + cand.a_term : a;
    const auto at = static_cast<double>(d);
    const long double t = static_cast<long double>(d);
    const long double threshold = approx_threshold(s, t);
    const long double gap = static_cast<long double>(as + at * us) - threshold;
    const auto bound = static_cast<long double>(scale * (cs + at * us));
    if (gap > bound) return true;
    if (gap < -bound) return false;
    ++verdict.exact_probes;
    return approx_demand(tasks, 1, t) > threshold;
  };

  // One probe per distinct deadline, after the last task of each run of
  // equal deadlines, with the candidate's term from its own deadline on.
  bool cand_in = false;
  bool rejected = false;
  for (std::size_t i = 0; i < order.size() && !rejected; ++i) {
    const DeadlineTerm& e = order[i];
    if (!cand_in && cand.deadline < e.deadline) {
      cand_in = true;
      rejected = rejects(cand.deadline, true);
      if (rejected) break;
    }
    if (!e.exact) return std::nullopt;
    c += e.c_term;
    u += e.u_term;
    a += e.a_term;
    if (i + 1 < order.size() && order[i + 1].deadline == e.deadline) {
      continue;
    }
    cand_in = cand_in || cand.deadline == e.deadline;
    rejected = rejects(e.deadline, cand_in);
  }
  if (!rejected && !cand_in) rejected = rejects(cand.deadline, true);
  verdict.feasible = !rejected;
  return verdict;
}

}  // namespace hetsched
