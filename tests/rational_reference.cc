#include "rational_reference.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dbf/demand_bound.h"
#include "util/check.h"

namespace hetsched::reference {

namespace {

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

// Largest absolute deadline strictly below rational time `t`; nullopt if
// none exists.
std::optional<Rational> max_deadline_below(std::span<const Task> tasks,
                                           const Rational& t) {
  std::optional<Rational> best;
  for (const Task& task : tasks) {
    const Rational d(task.effective_deadline());
    if (!(d < t)) continue;
    const Rational ratio = (t - d) / Rational(task.period);
    const std::int64_t k = ratio.ceil() - 1;
    HETSCHED_CHECK(k >= 0);
    const Rational candidate = Rational(k) * Rational(task.period) + d;
    HETSCHED_CHECK(candidate < t);
    if (!best || candidate > *best) best = candidate;
  }
  return best;
}

}  // namespace

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
    HETSCHED_CHECK(next > L);
    L = next;
  }
  return std::nullopt;
}

std::optional<std::int64_t> dbf_check_bound(std::span<const Task> tasks,
                                            const Rational& speed) {
  HETSCHED_CHECK(speed > Rational(0));
  if (tasks.empty()) return 0;
  const long double u = total_utilization_ld(tasks);
  const long double s = speed_ld(speed);
  if (u > s + kUtilBand) return std::nullopt;

  std::optional<Rational> bound = reference::busy_period(tasks, speed);
  if (u < s - kUtilBand) {
    long double num = 0;
    for (const Task& t : tasks) {
      num += static_cast<long double>(t.period - t.effective_deadline()) *
             static_cast<long double>(t.exec) /
             static_cast<long double>(t.period);
    }
    const long double la = num / (s - u) * (1 + 1e-9L) + 1;
    HETSCHED_CHECK(la < 0x1p63L);
    const Rational la_bound(static_cast<std::int64_t>(la));
    if (!bound || la_bound < *bound) bound = la_bound;
  }
  if (!bound) return std::nullopt;
  std::int64_t dmax = 0;
  for (const Task& t : tasks) dmax = std::max(dmax, t.effective_deadline());
  return std::max(bound->ceil(), dmax);
}

bool edf_dbf_feasible_qpa(std::span<const Task> tasks,
                          const Rational& speed) {
  if (tasks.empty()) return true;
  const auto bound = reference::dbf_check_bound(tasks, speed);
  if (!bound) return false;

  std::int64_t dmin = std::numeric_limits<std::int64_t>::max();
  for (const Task& t : tasks) dmin = std::min(dmin, t.effective_deadline());

  auto start = max_deadline_below(tasks, Rational(*bound + 1));
  if (!start) return true;
  Rational t = *start;
  for (;;) {
    const Rational demand(total_dbf(tasks, t.floor()));
    if (demand > speed * t) return false;
    if (!(demand / speed > Rational(dmin))) return true;
    if (demand < speed * t) {
      t = demand / speed;
    } else {
      const auto next = max_deadline_below(tasks, t);
      if (!next) return true;
      t = *next;
    }
  }
}

bool edf_dbf_feasible_approx_k(std::span<const Task> tasks,
                               const Rational& speed, std::size_t k) {
  HETSCHED_CHECK(k >= 1);
  if (tasks.empty()) return true;
  const long double s = speed_ld(speed);
  if (total_utilization_ld(tasks) > s + kUtilBand) return false;
  const auto bound = reference::dbf_check_bound(tasks, speed);
  if (!bound) return false;

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

std::optional<Rational> response_time(std::span<const Task> tasks,
                                      std::size_t target,
                                      const Rational& speed) {
  HETSCHED_CHECK(target < tasks.size());
  HETSCHED_CHECK(speed > Rational(0));
  const Task& ti = tasks[target];
  const std::int64_t di = ti.effective_deadline();
  const auto higher = [&](std::size_t j) {
    const std::int64_t dj = tasks[j].effective_deadline();
    return dj < di || (dj == di && j < target);
  };

  const Rational deadline(di);
  Rational r = Rational(ti.exec) / speed;
  if (r > deadline) return std::nullopt;
  for (;;) {
    Rational demand(ti.exec);
    for (std::size_t j = 0; j < tasks.size(); ++j) {
      if (j == target || !higher(j)) continue;
      const Rational releases((r / Rational(tasks[j].period)).ceil());
      demand += releases * Rational(tasks[j].exec);
    }
    const Rational next = demand / speed;
    if (next == r) return r;
    if (next > deadline) return std::nullopt;
    HETSCHED_CHECK(next > r);
    r = next;
  }
}

bool rta_schedulable(std::span<const Task> tasks, const Rational& speed) {
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (!reference::response_time(tasks, i, speed)) return false;
  }
  return true;
}

}  // namespace hetsched::reference
