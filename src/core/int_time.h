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
// Divisions take the narrowest exact width: 32 bits when both operands
// fit (divmod_nonneg), 64 bits for ticks that fit int64, and int128 only
// beyond; a wide divide costs several narrow ones.
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

// Quotient and remainder of a / b for a >= 0 and b > 0, divided in 32
// bits when both operands fit and in 64 bits otherwise; exact either way.
struct DivMod {
  std::int64_t quot;
  std::int64_t rem;
};

inline DivMod divmod_nonneg(std::int64_t a, std::int64_t b) {
  HETSCHED_DCHECK(a >= 0 && b > 0);
  if (static_cast<std::uint64_t>(a | b) <=
      std::numeric_limits<std::uint32_t>::max()) {
    const auto a32 = static_cast<std::uint32_t>(a);
    const auto b32 = static_cast<std::uint32_t>(b);
    return {a32 / b32, a32 % b32};
  }
  return {a / b, a % b};
}

// Largest integer instant <= `ticks` (>= 0); the result must fit int64.
inline std::int64_t floor_instant(int128 ticks, const Rational& speed) {
  HETSCHED_DCHECK(ticks >= 0);
  if (ticks <= std::numeric_limits<std::int64_t>::max()) {
    return divmod_nonneg(static_cast<std::int64_t>(ticks), speed.num()).quot;
  }
  const int128 q = ticks / speed.num();
  HETSCHED_DCHECK(q <= std::numeric_limits<std::int64_t>::max());
  return static_cast<std::int64_t>(q);
}

// Smallest integer instant >= `ticks` (>= 0), or nullopt beyond int64.
inline std::optional<std::int64_t> ceil_instant(int128 ticks,
                                                const Rational& speed) {
  HETSCHED_DCHECK(ticks >= 0);
  if (ticks <= std::numeric_limits<std::int64_t>::max()) {
    const DivMod q =
        divmod_nonneg(static_cast<std::int64_t>(ticks), speed.num());
    return q.quot + (q.rem != 0 ? 1 : 0);
  }
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
    const DivMod q = divmod_nonneg(*elapsed, tasks[j].period);
    const std::int64_t releases = q.quot + (q.rem > 0 ? 1 : 0);
    const auto demand = checked_mul(releases, tasks[j].exec);
    const auto next = demand ? checked_add(sum, *demand) : std::nullopt;
    if (!next) return std::nullopt;
    sum = *next;
  }
  return sum;
}

}  // namespace hetsched
