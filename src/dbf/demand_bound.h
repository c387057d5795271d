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
//     only a handful of points in practice, run violation-first in three
//     stages (edf_dbf_qpa_verdict below),
//   * the linear approximate DBF (Albers & Slomka / ref [7] style):
//     dbf*_i(t) = c_i + u_i (t - d_i) for t >= d_i — a sufficient test
//     whose error is bounded.  It sums all n tasks at each task's first
//     deadline, O(n^2) per query (O(n^2 k) with k retained steps); over
//     a set kept in deadline order, k = 1 takes O(n)
//     (edf_dbf_approx_linear below) and answers bit-identically.
// The constrained first fit (partition/first_fit.h) runs the paper's
// algorithm over these tests, one row of partition/admission.h each.
//
// The bound, QPA and the approximate DBF run in exact integer time over
// the speed's numerator (core/int_time.h), never in Rational arithmetic;
// a demand or busy-period work that overflows int64 makes them answer
// "infeasible", a sound reject, instead of aborting.  Only the exact
// enumeration below keeps Rational: it is the tests' oracle.
#pragma once

#include <cstddef>
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

// U = sum c_i / p_i, summed in index order in long double: every EDF
// decider compares it with the speed before anything else.  An
// escalation sums it once per machine and hands it to both tiers through
// the overloads that take `util`; the others sum it first.
long double utilization_ld(std::span<const Task> tasks);

// QPA: same verdict as the exact test, typically visiting far fewer points.
// QPA's verdict holds for any valid check bound, so the order in which it
// visits instants is free; it looks first where misses are found.  With
// d_max the largest relative deadline and La as in dbf_check_bound, it
// runs in up to three stages, each stopping at the instants an earlier
// one verified:
//   1. the prefix [0, B], B = 2 d_max, capped at max(La, d_max) when La
//      exists, where misses tend to lie (within the first few deadlines
//      of some task).  A demand beyond int64 at its top verifies nothing
//      and falls through, since that instant may lie past every bound;
//   2. when La exists: (B, max(La, d_max)] from the bottom up, in
//      segments that double — segment k scans down from the largest
//      deadline at or before min(2^k B, max(La, d_max)) to segment
//      k - 1's top — so the lowest miss above B is found after a few
//      segment starts.  The busy period races across the segments, one
//      step every 8 visits: once its iterate reaches the top it stops;
//      once it converges to L below the top, the top drops to
//      max(L, d_max).  Without a miss the segments cost at most one visit
//      per segment more than a single scan down from max(La, d_max).
//      Where the demand at max(La, d_max) may pass int64, it is evaluated
//      first;
//   3. otherwise (no La, or a demand beyond int64 at the top of stage 1
//      or 2): from dbf_check_bound down to B.  Here a missing bound or an
//      overflow rejects.
// A miss found anywhere is a miss, the busy period lowers stage 2's top
// only to dbf_check_bound's own bound, and stage 3 is the classic scan,
// so every verdict equals the classic scan's from dbf_check_bound.
bool edf_dbf_feasible_qpa(std::span<const Task> tasks,
                          const Rational& speed);

// The stage of edf_dbf_feasible_qpa that reached its verdict.
enum class QpaStage : std::uint8_t {
  kUtilization,  // no scan: U > s rejects, an empty set is feasible
  kPrefix,       // stage 1 (also when B reached max(La, d_max))
  kLa,           // stage 2, the segments
  kBusyPeriod,   // stage 3
};

struct QpaVerdict {
  bool feasible;
  QpaStage stage;
  std::int64_t visits;  // demand evaluations over every stage's scan
  std::int64_t steps;   // busy-period steps, in the race and the bound
};

// edf_dbf_feasible_qpa with the stage that decided.
QpaVerdict edf_dbf_qpa_verdict(std::span<const Task> tasks,
                               const Rational& speed);
QpaVerdict edf_dbf_qpa_verdict(std::span<const Task> tasks,
                               const Rational& speed, long double util);

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
bool edf_dbf_feasible_approx_k(std::span<const Task> tasks,
                               const Rational& speed, std::size_t k,
                               long double util);

// One task of a set kept in deadline order for the linear tier 1: its
// deadline and index, and its terms of the k = 1 approximate demand
//     dbf*(t) = sum over d_j <= t of c_j + u_j (t - d_j) = A(t) + t U(t),
// with U(t) the sum of u_j = c_j / p_j and A(t) the sum of c_j - u_j d_j.
struct DeadlineTerm {
  std::int64_t deadline = 0;
  std::uint32_t index = 0;  // the task's position in index order
  bool exact = true;        // c_j and p_j below 2^53, so exact in double
  double c_term = 0;        // c_j
  double u_term = 0;        // u_j
  double a_term = 0;        // c_j - u_j d_j
};

// The terms of `task`, which sits at `index` in index order.
DeadlineTerm deadline_term(const Task& task, std::uint32_t index);

struct LinearApprox {
  bool feasible;
  std::uint32_t exact_probes;  // probes recomputed in index order
};

// edf_dbf_feasible_approx_k at k = 1 in O(n), with the same verdict.
// `tasks` is the set in index order, the candidate last; `order` holds
// the deadline_term of every task but the candidate, by deadline (ties by
// index).  The demand is evaluated as A(t) + t U(t) at each distinct
// deadline, summing the terms in that order as it goes; a probe whose
// double sum lies within a proven rounding bound of the threshold is
// recomputed exactly as the O(n^2) test computes it.  nullopt where that
// test needs more than first-deadline probes or the bound does not hold:
// U within 1e-12 of the speed (the busy-period limit decides there), or
// an exec or period of 2^53 or more among the tasks a probe sums.
std::optional<LinearApprox> edf_dbf_approx_linear(
    std::span<const Task> tasks, std::span<const DeadlineTerm> order,
    const Rational& speed, long double util);

}  // namespace hetsched
