// Exact integer time on a machine of rational speed s = num / den.
//
// The escalation deciders — the busy period and QPA (dbf/demand_bound.h)
// and response-time analysis (core/rta.h) — need exact time, and a
// Rational operation costs a 128-bit gcd.  They run on integers instead:
//   * a time is an int128 count of 1/num ticks, so instant t is t * num
//     ticks, and W units of work take W / s = W * den / num time, i.e.
//     W * den ticks;
//   * the busy-period and RTA recurrences stay on integer work,
//         W' = c0 + sum_j ceil(W / (s p_j)) c_j,
//     using ceil(W / (s p)) = ceil(ceil(W / s) / p) for integer p, so a
//     step costs one int128 multiply and divide plus an int64 divide per
//     task.
// Every product of two int64 terms fits int128.  Work and instants stay
// int64 under checked arithmetic; an overflow comes back as nullopt so
// the caller answers "infeasible" — a sound reject — instead of aborting.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>

#include "core/task.h"
#include "util/check.h"
#include "util/int128.h"
#include "util/int_math.h"
#include "util/rational.h"

namespace hetsched {

// Instant t, in ticks of 1/num.
inline int128 instant_ticks(std::int64_t t, const Rational& speed) {
  return static_cast<int128>(t) * speed.num();
}

// The time `work` units take at `speed`, in ticks of 1/num.
inline int128 work_ticks(std::int64_t work, const Rational& speed) {
  return static_cast<int128>(work) * speed.den();
}

// Largest integer instant <= `ticks` (>= 0); the result must fit int64.
inline std::int64_t floor_instant(int128 ticks, const Rational& speed) {
  HETSCHED_DCHECK(ticks >= 0);
  const int128 q = ticks / speed.num();
  HETSCHED_DCHECK(q <= std::numeric_limits<std::int64_t>::max());
  return static_cast<std::int64_t>(q);
}

// Smallest integer instant >= `ticks` (>= 0), or nullopt beyond int64.
inline std::optional<std::int64_t> ceil_instant(int128 ticks,
                                                const Rational& speed) {
  HETSCHED_DCHECK(ticks >= 0);
  const int128 q = ticks / speed.num() + (ticks % speed.num() != 0 ? 1 : 0);
  if (q > std::numeric_limits<std::int64_t>::max()) return std::nullopt;
  return static_cast<std::int64_t>(q);
}

// One step of the work recurrence at `speed`:
//     c0 + sum over j with include(j) of ceil(work / (speed p_j)) c_j,
// summed in index order; nullopt on int64 overflow.
// HETSCHED_NOALLOC
template <class Include>
std::optional<std::int64_t> next_work(std::span<const Task> tasks,
                                      Include include, std::int64_t c0,
                                      std::int64_t work,
                                      const Rational& speed) {
  HETSCHED_DCHECK(work >= 0);
  const auto elapsed = ceil_instant(work_ticks(work, speed), speed);
  if (!elapsed) return std::nullopt;
  std::int64_t sum = c0;
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    if (!include(j)) continue;
    const std::int64_t period = tasks[j].period;
    const std::int64_t rem = *elapsed % period;
    const std::int64_t releases = *elapsed / period + (rem > 0 ? 1 : 0);
    const auto demand = checked_mul(releases, tasks[j].exec);
    const auto next = demand ? checked_add(sum, *demand) : std::nullopt;
    if (!next) return std::nullopt;
    sum = *next;
  }
  return sum;
}

}  // namespace hetsched
