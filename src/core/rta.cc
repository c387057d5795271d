#include "core/rta.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace hetsched {

std::vector<std::size_t> priority_order(std::span<const Task> tasks) {
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&tasks](std::size_t a, std::size_t b) {
                     return tasks[a].effective_deadline() <
                            tasks[b].effective_deadline();
                   });
  return order;
}

// HETSCHED_NOALLOC
std::optional<Rational> response_time(std::span<const Task> tasks,
                                      std::size_t target,
                                      const Rational& speed) {
  HETSCHED_CHECK(target < tasks.size());
  HETSCHED_CHECK(speed > Rational(0));
  const Task& ti = tasks[target];
  const std::int64_t di = ti.effective_deadline();
  // Higher priority: strictly shorter deadline, or an equal deadline with
  // a lower index (matching priority_order's tie-break).
  const auto higher = [&](std::size_t j) {
    const std::int64_t dj = tasks[j].effective_deadline();
    return dj < di || (dj == di && j < target);
  };

  const Rational deadline(di);
  Rational r = Rational(ti.exec) / speed;
  if (r > deadline) return std::nullopt;

  // The iterates increase monotonically and take at most
  // sum_j (d_i / p_j) distinct values, so this terminates.
  for (;;) {
    Rational demand(ti.exec);
    for (std::size_t j = 0; j < tasks.size(); ++j) {
      if (j == target || !higher(j)) continue;
      const Rational releases((r / Rational(tasks[j].period)).ceil());
      demand += releases * Rational(tasks[j].exec);
    }
    const Rational next = demand / speed;
    if (next == r) return r;      // fixed point: worst-case response time
    if (next > deadline) return std::nullopt;
    HETSCHED_DCHECK(next > r);    // monotone increase
    r = next;
  }
}

// HETSCHED_NOALLOC
bool rta_schedulable(std::span<const Task> tasks, const Rational& speed) {
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (!response_time(tasks, i, speed)) return false;
  }
  return true;
}

}  // namespace hetsched
