#include "core/rta.h"

#include <algorithm>
#include <numeric>

#include "core/int_time.h"
#include "util/check.h"
#include "util/int128.h"

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

namespace {

// The work the target's level-i busy window holds when the task completes:
// the least fixed point of
//     W = c_i + sum_{j in hp(i)} ceil(W / (s p_j)) c_j,
// iterated in integer work (core/int_time.h), whose time W / s is the
// response time.  nullopt once that time exceeds the deadline, or when
// the work overflows int64 (counted as a miss: a sound reject).
// HETSCHED_NOALLOC
std::optional<std::int64_t> response_work(std::span<const Task> tasks,
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

  const int128 deadline = instant_ticks(di, speed);
  std::int64_t work = ti.exec;
  if (work_ticks(work, speed) > deadline) return std::nullopt;

  // The iterates increase monotonically and take at most
  // sum_j (d_i / p_j) distinct values, so this terminates.
  for (;;) {
    const auto next = next_work(tasks, higher, ti.exec, work, speed);
    if (!next) return std::nullopt;
    if (*next == work) return work;  // fixed point: worst-case response
    if (work_ticks(*next, speed) > deadline) return std::nullopt;
    HETSCHED_DCHECK(*next > work);  // monotone increase
    work = *next;
  }
}

}  // namespace

// HETSCHED_NOALLOC
std::optional<Rational> response_time(std::span<const Task> tasks,
                                      std::size_t target,
                                      const Rational& speed) {
  const auto work = response_work(tasks, target, speed);
  if (!work) return std::nullopt;
  return Rational(*work) / speed;
}

// HETSCHED_NOALLOC
bool rta_schedulable(std::span<const Task> tasks, const Rational& speed) {
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (!response_work(tasks, i, speed)) return false;
  }
  return true;
}

}  // namespace hetsched
