#include "approx_reference.h"

#include <cmath>
#include <cstdint>
#include <limits>

#include "dbf/demand_bound.h"
#include "util/check.h"

namespace hetsched::approx_reference {

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

}  // namespace

bool edf_dbf_feasible_approx_k(std::span<const Task> tasks,
                               const Rational& speed, std::size_t k) {
  HETSCHED_CHECK(k >= 1);
  if (tasks.empty()) return true;
  const long double s = speed_ld(speed);
  const long double u = total_utilization_ld(tasks);
  if (u > s + kUtilBand) return false;
  std::int64_t limit = std::numeric_limits<std::int64_t>::max();
  if (k > 1 || u >= s - kUtilBand) {
    const auto bound = dbf_check_bound(tasks, speed);
    if (!bound) return false;
    limit = *bound;
  }

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

}  // namespace hetsched::approx_reference
