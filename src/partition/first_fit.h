// The paper's partitioned feasibility test (Section III).
//
// Algorithm: sort tasks by non-increasing utilization; sort machines by
// non-decreasing speed; assign each task to the first (slowest) machine
// whose per-machine schedulability test still passes at speed alpha * s_j.
// If some task fits nowhere the test declares failure, and the paper's
// theorems turn that failure into an infeasibility certificate:
//   * alpha = 2      + EDF admission:  no *partitioned* EDF schedule exists
//                      at the original speeds (Theorem I.1);
//   * alpha = 2.414  + RMS admission:  no partitioned RMS schedule (Thm I.2);
//   * alpha = 2.98   + EDF admission:  the migrating-adversary LP (1)-(4)
//                      is infeasible (Theorem I.3);
//   * alpha = 3.34   + RMS admission:  same under RMS (Theorem I.4).
// Running time for the bound-based admission kinds: O(n log n + n m) with
// the naive scan, O(n log n + n log m) with the segment tree.  The
// decision-only accept path below places a task in O(1) while it lands on
// the same machine as the task before it, and in O(log m) when the machine
// changes; on the tree engine it first tries load bounds, O(m + n/64) in
// all, that decide many probes without placing any task.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/platform.h"
#include "core/task.h"
#include "partition/admission.h"
#include "partition/engine.h"

namespace hetsched {

struct PartitionResult {
  bool feasible = false;
  AdmissionKind kind = AdmissionKind::kEdf;
  double alpha = 1.0;

  // task index (caller's numbering) -> machine index in the platform's
  // sorted order; only meaningful when feasible.
  std::vector<std::size_t> assignment;

  // Tasks grouped per machine (sorted order), in assignment order.
  std::vector<std::vector<Task>> tasks_per_machine;

  // Utilization admitted per machine (at unaugmented task utilizations).
  std::vector<double> machine_utilization;

  // When infeasible: the task (caller's index) the algorithm failed on, and
  // its utilization w_n — the quantity the paper's case analysis pivots on.
  std::optional<std::size_t> failed_task;
  double failed_utilization = 0;

  std::string to_string() const;
};

// Runs the first-fit partitioner for one of the paper's four tests (a row
// that is not tiered).  alpha >= 1.  Both engines return bit-identical
// results (see partition/engine.h); kAuto picks the segment tree whenever
// the test has a fold.  Implemented as a thin wrapper over the stateful
// controller (online/online_partitioner.h): a fresh OnlinePartitioner
// admits the tasks in canonical utilization-descending order, so the batch
// and online admission paths are one code path and stay bit-identical.
PartitionResult first_fit_partition(
    const TaskSet& tasks, const Platform& platform, AdmissionKind kind,
    double alpha, PartitionEngine engine = PartitionEngine::kAuto);

// The same controller wrapper for the constrained-deadline model, under a
// tiered row (kDbfQpa, kDbfThreePoint and kDbfLinear are E11's batch-only
// DBF testers): tasks densest first (exact comparison, stable), machines
// slowest first.  machine_utilization reports density sums.
PartitionResult first_fit_partition_constrained(std::span<const Task> tasks,
                                                const Platform& platform,
                                                AdmissionKind kind,
                                                double alpha);

// Convenience predicate.
bool first_fit_accepts(const TaskSet& tasks, const Platform& platform,
                       AdmissionKind kind, double alpha);

// Decision-only fast path: same verdict as first_fit_partition(...).feasible
// but never builds a PartitionResult, never copies Task vectors, and reuses
// the caller's scratch buffers — allocation-free once the scratch is warm.
// (kRmsResponseTime has no fold; its pass runs on the controller and
// allocates.)
//
// On the tree engine (kAuto for the slack-form kinds, or kSegmentTree),
// load bounds from the argument behind Theorem I.1's failure certificate
// decide the probe in O(m + n/G) when they apply, and only otherwise does
// first fit run.  With W the sum of the task utilizations, cap_j =
// alpha * s_j, w_max the largest utilization, delta = 1e-8, f = 1 for EDF
// or 0.693 (just below ln 2) for RMS-LL and RMS-HB, and the tasks in
// first-fit order cut into groups of G = kLoadBoundGroup
// (partition/engine.h), each with w_g its first (largest) utilization and
// P_g the sum of every utilization before its last task:
//   * reject when W > (1 + delta) sum_j c_j: a pass that places every task
//     loads machine j with at most c_j.  c_j = cap_j for EDF;
//     c_j = LL(K_j) cap_j for RMS-LL, K_j = max(1, ceil(ln 2 cap_j / w_max)):
//     a machine that ends with k tasks passed its last admission against
//     LL(k) cap_j and holds at most k w_max; and c_j = h(a_j) cap_j for
//     RMS-HB, a_j = w_max / cap_j, h(a) = k a + 2/(1 + a)^k - 1 with
//     k = floor(ln 2 / ln(1 + a)), 1 once a >= 1: under
//     prod(1 + w/cap_j) <= 2 with every w <= w_max a machine holds at most
//     k tasks at w_max plus one remainder (more than LL(k): the test admits
//     {0.99, 0.001} on a unit machine, above LL(2));
//   * accept when every group has P_g <= (1 - delta) R_g with
//     R_g = sum_j max(0, f cap_j - w_g) > 0: a pass that fails on task t
//     of group g leaves every machine j loaded beyond f cap_j - w_t >=
//     f cap_j - w_g, since each kind's test passes any machine loaded up
//     to f cap_j (EDF: cap_j; RMS-LL: LL(k) cap_j >= ln 2 cap_j; RMS-HB:
//     prod(1 + w/cap_j) <= exp(sum w/cap_j) <= 2), yet the machines hold
//     only the tasks before t, at most P_g.
// delta covers the rounding of every sum and test involved while n and m
// are at most 2^20 (the bounds are off beyond that), so a bound fires only
// where the pass would return the same verdict: neither can change one.
// kNaive never takes them: it is the plain reference scan.  The proofs in
// full are in online/first_fit.cc; PartitionScratch::first_fit_passes
// counts the passes that did run.
bool first_fit_accepts(const TaskSet& tasks, const Platform& platform,
                       AdmissionKind kind, double alpha,
                       PartitionScratch& scratch,
                       PartitionEngine engine = PartitionEngine::kAuto);

// Smallest alpha in [1, alpha_hi] at which first-fit accepts, located by
// bisection to within `tol`.  Returns nullopt if even alpha_hi is rejected.
//
// Caveat (documented behaviour, probed by bench E9): first-fit acceptance is
// not provably monotone in alpha — raising alpha can reroute early tasks and
// in principle flip an accept to a reject.  The bisection result is exact
// whenever acceptance is monotone on the bracket, which holds for every
// instance our monotonicity property test has sampled; treat the result as
// "an alpha within tol of a boundary of the acceptance region".
std::optional<double> min_feasible_alpha(const TaskSet& tasks,
                                         const Platform& platform,
                                         AdmissionKind kind, double alpha_hi,
                                         double tol = 1e-6);

// Scratch-reusing bisection: orders the tasks once, then runs every probe
// through the decision-only accept path, load bounds included.  Since each
// probe's verdict is the pass's, the bisection visits the same alphas and
// returns the same bits on every engine; identical result to the overload
// above.  This is the hot path of the augmentation studies.  On the
// batch experiments' overloaded inputs (U/S about 1.06-1.35, n = 16384,
// m = 128, EDF) the bounds decide about two thirds of a search's 24 probes.
std::optional<double> min_feasible_alpha(
    const TaskSet& tasks, const Platform& platform, AdmissionKind kind,
    double alpha_hi, PartitionScratch& scratch,
    PartitionEngine engine = PartitionEngine::kAuto, double tol = 1e-6);

}  // namespace hetsched
