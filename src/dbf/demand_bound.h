// Demand-bound-function (DBF) schedulability tests for constrained-deadline
// sporadic tasks under EDF — the paper's natural extension (its reference
// [7], Chen & Chakraborty RTSS'11, studies exactly the approximate-DBF
// variant of this machinery).
//
// For a constrained-deadline task tau_i = (c_i, d_i, p_i) — a Task, whose
// d_i is its effective_deadline(), the period when implicit — the demand
// bound function
//     dbf_i(t) = max(0, floor((t - d_i) / p_i) + 1) * c_i
// counts the work of all jobs with both release and deadline inside any
// window of length t.  The processor-demand criterion (Baruah et al.):
// a task set is EDF-schedulable on a speed-s machine iff
//     forall t > 0:  sum_i dbf_i(t) <= s * t.
// Only absolute-deadline instants below a busy-period bound need checking.
// Three deciders are provided, cross-validated in the tests:
//   * exact enumeration of deadline check-points up to the bound,
//   * QPA (Zhang & Burns 2009): a backwards fixed-point scan that visits
//     only a handful of points in practice,
//   * the linear approximate DBF (Albers & Slomka / ref [7] style):
//     dbf*_i(t) = c_i + u_i (t - d_i) for t >= d_i — a sufficient test
//     whose error is bounded; it sums all n tasks at each task's first
//     deadline, O(n^2) per query (O(n^2 k) with k retained steps).
// The constrained first fit (partition/first_fit.h) runs the paper's
// algorithm over these tests, one row of partition/admission.h each.
//
// The bound, QPA and the approximate DBF run in exact integer time over
// the speed's numerator (core/int_time.h), never in Rational arithmetic;
// a demand or busy-period work that overflows int64 makes them answer
// "infeasible", a sound reject, instead of aborting.  Only the exact
// enumeration below keeps Rational: it is the tests' oracle.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "core/task.h"
#include "util/rational.h"

namespace hetsched {

// dbf_i(t) for a single task (exact, integer).
std::int64_t dbf(const Task& task, std::int64_t t);

// sum_i dbf_i(t) over a set, in checked arithmetic that aborts on
// overflow: the contract of the exact oracle, which realistic instances
// never approach.  The other deciders sum through a non-aborting variant.
std::int64_t total_dbf(std::span<const Task> tasks, std::int64_t t);

// Upper bound L on the instants that must be checked: min of the busy
// period (fixed point of w = sum_i ceil(w/p_i) c_i / s, rounded up) and
// the La-style utilization bound sum (p_i - d_i) u_i / (s - U), and never
// below the largest relative deadline.  Returns nullopt when total
// utilization exceeds the speed (trivially infeasible), or when neither
// bound exists: La needs U below s by more than 1e-12 and a value that
// fits int64, and the busy period must converge below 2^40, within
// 100 000 iterations and without int64 overflow.
std::optional<std::int64_t> dbf_check_bound(
    std::span<const Task> tasks, const Rational& speed);

// Exact processor-demand test by enumerating all deadlines <= bound.
bool edf_dbf_feasible_exact(std::span<const Task> tasks,
                            const Rational& speed);

// QPA: same verdict as the exact test, typically visiting far fewer points.
bool edf_dbf_feasible_qpa(std::span<const Task> tasks,
                          const Rational& speed);

// Sufficient test via the linear approximate DBF: never accepts an
// infeasible set; may reject feasible ones (bounded pessimism).
// Equivalent to edf_dbf_feasible_approx_k with k = 1.
bool edf_dbf_feasible_approx(std::span<const Task> tasks,
                             const Rational& speed);

// k-point approximate DBF (Albers & Slomka; the family the paper's ref [7]
// analyzes): each task's dbf is exact for its first k steps and bounded by
// the utilization line afterwards,
//     dbf*_i(t) = dbf_i(t)                       for t <  d_i + k p_i
//     dbf*_i(t) = c_i k + u_i (t - d_i - (k-1) p_i)  for t >= d_i + k p_i,
// so the test only evaluates O(nk) candidate points, each summing n tasks
// (O(n^2 k)), plus U <= s.  Sound for every k >= 1; acceptance grows with
// k and converges to the exact test.
bool edf_dbf_feasible_approx_k(std::span<const Task> tasks,
                               const Rational& speed, std::size_t k);

}  // namespace hetsched
