#include "qpa_reference.h"

#include <algorithm>
#include <limits>

#include "util/check.h"
#include "util/int128.h"
#include "util/int_math.h"

namespace hetsched::qpa_reference {

namespace {

int128 instant_ticks(std::int64_t t, const Rational& speed) {
  return static_cast<int128>(t) * speed.num();
}

int128 work_ticks(std::int64_t work, const Rational& speed) {
  return static_cast<int128>(work) * speed.den();
}

std::int64_t floor_instant(int128 ticks, const Rational& speed) {
  HETSCHED_CHECK(ticks >= 0);
  const int128 q = ticks / speed.num();
  HETSCHED_CHECK(q <= std::numeric_limits<std::int64_t>::max());
  return static_cast<std::int64_t>(q);
}

std::optional<std::int64_t> ceil_instant(int128 ticks, const Rational& speed) {
  HETSCHED_CHECK(ticks >= 0);
  const int128 q = ticks / speed.num() + (ticks % speed.num() != 0 ? 1 : 0);
  if (q > std::numeric_limits<std::int64_t>::max()) return std::nullopt;
  return static_cast<std::int64_t>(q);
}

std::optional<std::int64_t> next_work(std::span<const Task> tasks,
                                      std::int64_t work,
                                      const Rational& speed) {
  const auto elapsed = ceil_instant(work_ticks(work, speed), speed);
  if (!elapsed) return std::nullopt;
  std::int64_t sum = 0;
  for (const Task& task : tasks) {
    const std::int64_t rem = *elapsed % task.period;
    const std::int64_t releases = *elapsed / task.period + (rem > 0 ? 1 : 0);
    const auto demand = checked_mul(releases, task.exec);
    const auto next = demand ? checked_add(sum, *demand) : std::nullopt;
    if (!next) return std::nullopt;
    sum = *next;
  }
  return sum;
}

std::optional<std::int64_t> dbf_checked(const Task& task, std::int64_t t) {
  const std::int64_t d = task.effective_deadline();
  if (t < d) return 0;
  return checked_mul((t - d) / task.period + 1, task.exec);
}

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

std::optional<std::int64_t> la_bound(std::span<const Task> tasks,
                                     long double u, long double s) {
  long double num = 0;
  for (const Task& t : tasks) {
    num += static_cast<long double>(t.period - t.effective_deadline()) *
           static_cast<long double>(t.exec) /
           static_cast<long double>(t.period);
  }
  const long double la = num / (s - u) * (1 + 1e-9L) + 1;
  if (!(la < 0x1p63L)) return std::nullopt;
  return static_cast<std::int64_t>(la);
}

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
  for (int iter = 0; iter < kMaxIters; ++iter) {
    if (stop && work_ticks(work, speed) >= instant_ticks(*stop, speed)) {
      return stop;
    }
    const auto next = next_work(tasks, work, speed);
    if (!next) return std::nullopt;
    if (*next == work) return ceil_instant(work_ticks(work, speed), speed);
    if (work_ticks(*next, speed) > cap) return std::nullopt;
    HETSCHED_CHECK(*next > work);
    work = *next;
  }
  return std::nullopt;
}

std::optional<std::int64_t> max_deadline_at_most(std::span<const Task> tasks,
                                                 std::int64_t t) {
  std::optional<std::int64_t> best;
  for (const Task& task : tasks) {
    const std::int64_t d = task.effective_deadline();
    if (d > t) continue;
    const std::int64_t candidate = t - (t - d) % task.period;
    if (!best || candidate > *best) best = candidate;
  }
  return best;
}

}  // namespace

std::optional<std::int64_t> dbf_check_bound(std::span<const Task> tasks,
                                            const Rational& speed) {
  HETSCHED_CHECK(speed > Rational(0));
  if (tasks.empty()) return 0;
  const long double u = total_utilization_ld(tasks);
  const long double s = speed_ld(speed);
  if (u > s + kUtilBand) return std::nullopt;

  const std::optional<std::int64_t> la =
      u < s - kUtilBand ? la_bound(tasks, u, s) : std::nullopt;
  std::optional<std::int64_t> bound = busy_period(tasks, speed, la);
  if (!bound) bound = la;
  if (!bound) return std::nullopt;
  std::int64_t dmax = 0;
  for (const Task& t : tasks) dmax = std::max(dmax, t.effective_deadline());
  return std::max(*bound, dmax);
}

bool edf_dbf_feasible_qpa(std::span<const Task> tasks, const Rational& speed) {
  if (tasks.empty()) return true;
  const auto bound = qpa_reference::dbf_check_bound(tasks, speed);
  if (!bound) return false;

  std::int64_t dmin = std::numeric_limits<std::int64_t>::max();
  for (const Task& t : tasks) dmin = std::min(dmin, t.effective_deadline());
  const int128 safe = instant_ticks(dmin, speed);

  const auto start = max_deadline_at_most(tasks, *bound);
  if (!start) return true;
  int128 t = instant_ticks(*start, speed);
  for (;;) {
    const auto demand = total_dbf_checked(tasks, floor_instant(t, speed));
    if (!demand) return false;
    const int128 need = work_ticks(*demand, speed);
    if (need > t) return false;
    if (need <= safe) return true;
    if (need < t) {
      t = need;
    } else {
      const auto next =
          max_deadline_at_most(tasks, floor_instant(t - 1, speed));
      if (!next) return true;
      t = instant_ticks(*next, speed);
    }
  }
}

}  // namespace hetsched::qpa_reference
