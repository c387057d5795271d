#include "dbf/demand_bound.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/int_math.h"

namespace hetsched {

std::int64_t dbf(const Task& task, std::int64_t t) {
  HETSCHED_DCHECK(task.valid());
  const std::int64_t d = task.effective_deadline();
  if (t < d) return 0;
  const std::int64_t jobs = (t - d) / task.period + 1;
  const auto demand = checked_mul(jobs, task.exec);
  HETSCHED_CHECK_MSG(demand.has_value(), "dbf overflow");
  return *demand;
}

std::int64_t total_dbf(std::span<const Task> tasks,
                       std::int64_t t) {
  std::int64_t sum = 0;
  for (const Task& task : tasks) {
    const auto next = checked_add(sum, dbf(task, t));
    HETSCHED_CHECK_MSG(next.has_value(), "total dbf overflow");
    sum = *next;
  }
  return sum;
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

long double speed_ld(const Rational& speed) {
  return static_cast<long double>(speed.num()) /
         static_cast<long double>(speed.den());
}

// Synchronous busy-period length at speed s: least fixed point of
//   L = (sum_i ceil(L / p_i) * c_i) / s,
// seeded with the total first-job demand.  Exists whenever U <= s; a cap
// guards the U == s case where it can reach the hyperperiod.
std::optional<Rational> busy_period(std::span<const Task> tasks,
                                    const Rational& speed) {
  Rational work(0);
  for (const Task& t : tasks) work += Rational(t.exec);
  Rational L = work / speed;
  constexpr int kMaxIters = 100000;
  const Rational kCap(std::int64_t{1} << 40);
  for (int iter = 0; iter < kMaxIters; ++iter) {
    Rational demand(0);
    for (const Task& t : tasks) {
      demand += Rational((L / Rational(t.period)).ceil()) * Rational(t.exec);
    }
    const Rational next = demand / speed;
    if (next == L) return L;
    if (next > kCap) return std::nullopt;
    HETSCHED_DCHECK(next > L);
    L = next;
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::int64_t> dbf_check_bound(
    std::span<const Task> tasks, const Rational& speed) {
  HETSCHED_CHECK(speed > Rational(0));
  if (tasks.empty()) return 0;
  const long double u = total_utilization_ld(tasks);
  const long double s = speed_ld(speed);
  if (u > s + kUtilBand) return std::nullopt;  // trivially infeasible

  std::optional<Rational> bound = busy_period(tasks, speed);
  if (u < s - kUtilBand) {
    // La = sum (p_i - d_i) u_i / (s - U): beyond it, dbf(t) <= s t follows
    // from U <= s alone.  Computed in long double and inflated slightly —
    // any upper bound on La is a valid check bound.
    long double num = 0;
    for (const Task& t : tasks) {
      num += static_cast<long double>(t.period - t.effective_deadline()) *
             static_cast<long double>(t.exec) /
             static_cast<long double>(t.period);
    }
    const long double la = num / (s - u) * (1 + 1e-9L) + 1;
    const Rational la_bound(static_cast<std::int64_t>(la));
    if (!bound || la_bound < *bound) bound = la_bound;
  }
  if (!bound) return std::nullopt;
  // Also never below the largest relative deadline (the first job of each
  // task must be checked at least once).
  std::int64_t dmax = 0;
  for (const Task& t : tasks) dmax = std::max(dmax, t.effective_deadline());
  return std::max(bound->ceil(), dmax);
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

namespace {

// Largest absolute deadline strictly below rational time `t`; nullopt if
// none exists.
std::optional<Rational> max_deadline_below(
    std::span<const Task> tasks, const Rational& t) {
  std::optional<Rational> best;
  for (const Task& task : tasks) {
    const Rational d(task.effective_deadline());
    if (!(d < t)) continue;
    // Largest k >= 0 with k * p + d < t:  k = ceil((t - d)/p) - 1
    // (integer ratio needs the -1 because the inequality is strict;
    // otherwise ceil - 1 == floor).
    const Rational ratio = (t - d) / Rational(task.period);
    const std::int64_t k = ratio.ceil() - 1;
    HETSCHED_DCHECK(k >= 0);
    const Rational candidate =
        Rational(k) * Rational(task.period) + d;
    HETSCHED_DCHECK(candidate < t);
    if (!best || candidate > *best) best = candidate;
  }
  return best;
}

}  // namespace

bool edf_dbf_feasible_qpa(std::span<const Task> tasks,
                          const Rational& speed) {
  if (tasks.empty()) return true;
  const auto bound = dbf_check_bound(tasks, speed);
  if (!bound) return false;

  std::int64_t dmin = std::numeric_limits<std::int64_t>::max();
  for (const Task& t : tasks) dmin = std::min(dmin, t.effective_deadline());

  // Start at the largest deadline strictly below (bound + 1) i.e. <= bound.
  auto start = max_deadline_below(tasks, Rational(*bound + 1));
  if (!start) return true;  // no deadline in range: nothing can miss
  Rational t = *start;
  for (;;) {
    const Rational demand(total_dbf(tasks, t.floor()));
    if (demand > speed * t) return false;  // miss at t
    if (!(demand / speed > Rational(dmin))) {
      return true;  // scanned down into the trivially-safe region
    }
    if (demand < speed * t) {
      t = demand / speed;
    } else {
      const auto next = max_deadline_below(tasks, t);
      if (!next) return true;
      t = *next;
    }
  }
}

bool edf_dbf_feasible_approx(std::span<const Task> tasks,
                             const Rational& speed) {
  return edf_dbf_feasible_approx_k(tasks, speed, 1);
}

bool edf_dbf_feasible_approx_k(std::span<const Task> tasks,
                               const Rational& speed, std::size_t k) {
  HETSCHED_CHECK(k >= 1);
  if (tasks.empty()) return true;
  const long double s = speed_ld(speed);
  if (total_utilization_ld(tasks) > s + kUtilBand) return false;
  // Check points beyond the La/busy-period bound are always safe: each
  // dbf*_i lies below its tangent line u_i t + (c_i - u_i d_i), and past
  // the bound the summed line is below s t.  Capping the scan there both
  // matches the canonical k-point test and lets acceptance converge to the
  // exact test as k grows.
  const auto bound = dbf_check_bound(tasks, speed);
  if (!bound) return false;

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
      if (t > static_cast<long double>(*bound)) break;
      long double demand = 0;
      for (const Task& task : tasks) demand += dbf_star(task, t);
      if (demand > s * t * (1 - kUtilBand)) return false;
    }
  }
  return true;
}

ConstrainedPartitionResult first_fit_partition_constrained(
    std::span<const Task> tasks, const Platform& platform,
    DbfAdmission admission, double alpha) {
  HETSCHED_CHECK(platform.size() >= 1);
  HETSCHED_CHECK(alpha >= 1.0);
  ConstrainedPartitionResult out;
  out.assignment.assign(tasks.size(), platform.size());
  out.tasks_per_machine.resize(platform.size());

  // Densest first (exact comparison), mirroring the paper's ordering.
  std::vector<std::size_t> order(tasks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&tasks](std::size_t a, std::size_t b) {
                     const int128 lhs = static_cast<int128>(tasks[a].exec) *
                                        tasks[b].effective_deadline();
                     const int128 rhs = static_cast<int128>(tasks[b].exec) *
                                        tasks[a].effective_deadline();
                     return lhs > rhs;
                   });

  std::vector<Rational> capacity;
  capacity.reserve(platform.size());
  const Rational ar = rational_from_double(alpha, 1'000'000);
  for (std::size_t j = 0; j < platform.size(); ++j) {
    capacity.push_back(platform.speed_exact(j) * ar);
  }

  auto feasible_on = [&](const std::vector<Task>& set,
                         const Rational& speed) {
    switch (admission) {
      case DbfAdmission::kExactQpa:
        return edf_dbf_feasible_qpa(set, speed);
      case DbfAdmission::kApproxLinear:
        return edf_dbf_feasible_approx(set, speed);
      case DbfAdmission::kApproxThreePoint:
        return edf_dbf_feasible_approx_k(set, speed, 3);
    }
    HETSCHED_CHECK_MSG(false, "unreachable admission");
    return false;
  };

  for (const std::size_t i : order) {
    bool placed = false;
    for (std::size_t j = 0; j < platform.size(); ++j) {
      std::vector<Task> with = out.tasks_per_machine[j];
      with.push_back(tasks[i]);
      if (feasible_on(with, capacity[j])) {
        out.tasks_per_machine[j] = std::move(with);
        out.assignment[i] = j;
        placed = true;
        break;
      }
    }
    if (!placed) {
      out.feasible = false;
      out.failed_task = i;
      return out;
    }
  }
  out.feasible = true;
  return out;
}

}  // namespace hetsched
