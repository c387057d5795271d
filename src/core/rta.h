// Exact response-time analysis (RTA) for fixed-priority preemptive
// scheduling of constrained-deadline sporadic tasks on one related machine.
//
// Under deadline-monotonic priorities (shorter relative deadline = higher
// priority; for implicit deadlines this is exactly rate-monotonic order) the
// worst-case response time of task i on a machine of speed s satisfies the
// recurrence (Joseph & Pandya 1986, Audsley et al. 1993), adapted to speed s:
//
//     R = ( c_i + sum_{j in hp(i)} ceil(R / p_j) * c_j ) / s
//
// iterated from R = c_i / s until a fixed point or R > d_i.  The set is
// schedulable iff every task's fixed point satisfies R <= d_i.  All
// arithmetic is exact — the recurrence runs on integer work, R = W / s,
// with int128 time over the speed's numerator (core/int_time.h) — so this
// is a ground-truth oracle for the sufficient RMS bounds in
// core/uniproc.h; this exactness is why speeds are rationals throughout
// the library.
//
// This test is an *extension* relative to the paper (the paper's algorithm
// admits via the Liu–Layland bound, which its proofs need); bench E8 measures
// how much acceptance the analytical bound gives up against exact RTA.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/task.h"
#include "util/rational.h"

namespace hetsched {

// Indices of `tasks` sorted into deadline-monotonic priority order:
// increasing effective deadline (the period when implicit, so RM order),
// ties by lower index first (a fixed, documented tie-break).
std::vector<std::size_t> priority_order(std::span<const Task> tasks);

// Worst-case response time of the task at `target` (an index into `tasks`)
// when `tasks` runs under the priorities above on a machine of speed
// `speed`.  Returns nullopt if the response time exceeds the task's
// effective deadline, i.e. the task is unschedulable, and also when the
// work of its busy window overflows int64 — counted as a miss, so client
// input can only make the test reject, never abort.  Allocation-free:
// the warm admission controller runs it on its owner loop.
std::optional<Rational> response_time(std::span<const Task> tasks,
                                      std::size_t target,
                                      const Rational& speed);

// True iff every task meets its deadline on a speed-`speed` machine (a
// work overflow counts as a miss, as above).
bool rta_schedulable(std::span<const Task> tasks, const Rational& speed);

}  // namespace hetsched
