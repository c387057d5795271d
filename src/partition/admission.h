// Per-machine admission tests used by the first-fit partitioner.
//
// The paper's algorithm admits a task onto a machine of (augmented) speed
// alpha * s if the machine's single-processor schedulability test still
// passes with the task added.  Admission state is incremental so the whole
// partitioning pass is O(nm) for the analytical bounds; the exact RTA
// admission (an extension) re-runs response-time analysis and is
// correspondingly more expensive.
#pragma once

#include <string>
#include <vector>

#include "core/platform.h"
#include "core/task.h"
#include "core/uniproc.h"
#include "util/rational.h"

namespace hetsched {

enum class AdmissionKind {
  kEdf,              // sum w <= alpha s                  (paper, Thm II.2)
  kRmsLiuLayland,    // sum w <= (k)(2^{1/k}-1) alpha s   (paper, Thm II.3)
  kRmsHyperbolic,    // prod(w/(alpha s)+1) <= 2          (extension)
  kRmsResponseTime,  // exact RTA at speed alpha s        (extension)
};

std::string to_string(AdmissionKind k);

// True for the admission kinds whose accepted partitions run under
// rate-monotonic priorities (vs. EDF).
bool is_rms(AdmissionKind k);

// True for the kinds whose admission test has a closed-form slack: the
// machine admits a task iff w <= slack, with slack a function of the
// machine's accumulated state only.  These are the kinds the segment-tree
// engine (partition/engine.h) can index; kRmsResponseTime is not one.
bool admission_has_slack_form(AdmissionKind k);

// The slack-form kinds' admission comparison, verbatim as
// MachineLoad::can_admit performs it: does a machine of capacity alpha * s
// whose admitted tasks sum to `util_sum` (`task_count` of them, hyperbolic
// product `hyper_product`) still pass with a task of utilization `w` added?
// kRmsResponseTime has no such comparison and never admits here.
// HETSCHED_NOALLOC
inline bool admission_admits(AdmissionKind kind, double w, double capacity,
                             double util_sum, std::size_t task_count,
                             double hyper_product) {
  switch (kind) {
    case AdmissionKind::kEdf:
      return util_sum + w <= capacity;
    case AdmissionKind::kRmsLiuLayland:
      // EDF's comparison against the count-aware Liu–Layland limit.
      return admission_admits(
          AdmissionKind::kEdf, w,
          rms_liu_layland_bound(task_count + 1) * capacity, util_sum,
          task_count, hyper_product);
    case AdmissionKind::kRmsHyperbolic:
      return hyper_product * (w / capacity + 1.0) <= 2.0;
    case AdmissionKind::kRmsResponseTime:
      break;
  }
  return false;
}

// The largest task utilization the machine still admits — the EXACT
// floating-point threshold of admission_admits, i.e. for every double
// w >= 0, (w <= slack) == admission_admits(kind, w, ...).  The threshold
// search evaluates admission_admits itself as its predicate, so the two
// agree by construction.  In real arithmetic the thresholds are
//   kEdf:            capacity - util_sum
//   kRmsLiuLayland:  LL(task_count + 1) * capacity - util_sum
//   kRmsHyperbolic:  (2 / hyper_product - 1) * capacity
// but those rearranged closed forms can be 1 ulp off at exact-fit
// boundaries, so the implementation instead bisects the original predicate
// over the double bit-space.  This exactness is what keeps the naive scan
// and the segment-tree engine bit-identical (the equivalence property test
// relies on it) and keeps boundary instances — exact bin packings like
// {0.44, 0.40, 0.16} on a unit machine — admissible, matching the predicate
// form the repo has always used.  `task_count` and `hyper_product` describe
// the tasks already admitted; negative return means not even w = 0 fits.
// kRmsResponseTime has no closed form: its slack is always negative, so a
// fold over it never admits and every decision falls to response-time
// analysis (the online controller's RTA escalation).
double admission_slack(AdmissionKind kind, double capacity, double util_sum,
                       std::size_t task_count, double hyper_product);

// Accumulates a task of utilization `w` into a machine's running state,
// mirroring MachineLoad::admit's arithmetic exactly.
// HETSCHED_NOALLOC
inline void admission_accumulate(double w, double capacity, double& util_sum,
                                 double& hyper_product,
                                 std::size_t& task_count) {
  util_sum += w;
  hyper_product *= w / capacity + 1.0;
  ++task_count;
}

// One step of the slack-form admission fold: accumulate `w` and refresh the
// machine's slack.  This is THE admission code path shared by the batch
// scratch engine (online/first_fit.cc) and the stateful controller
// (online/online_partitioner.h); keeping it in one place is what keeps the
// two bit-identical.
// HETSCHED_NOALLOC
inline void admission_fold_step(AdmissionKind kind, double w, double capacity,
                                double& util_sum, double& hyper_product,
                                std::size_t& task_count, double& slack) {
  admission_accumulate(w, capacity, util_sum, hyper_product, task_count);
  slack = admission_slack(kind, capacity, util_sum, task_count, hyper_product);
}

// Incremental admission state for one machine.
class MachineLoad {
 public:
  // `speed` is the machine's un-augmented speed s_j; `alpha` the augmentation.
  MachineLoad(AdmissionKind kind, const Rational& speed, double alpha);

  // Would the machine still pass its schedulability test with `t` added?
  bool can_admit(const Task& t) const;

  // Adds the task (caller must have checked can_admit, or explicitly wants
  // an overloaded machine for analysis purposes).
  void admit(const Task& t);

  double utilization() const { return util_sum_; }
  std::size_t task_count() const { return tasks_.size(); }
  double capacity() const { return capacity_; }
  const std::vector<Task>& tasks() const { return tasks_; }

  // Moves the admitted tasks out (the load is dead afterwards); lets result
  // builders avoid copying every Task vector.
  std::vector<Task> take_tasks() { return std::move(tasks_); }

 private:
  AdmissionKind kind_;
  Rational speed_exact_;       // alpha-augmented speed, exact (for RTA)
  double capacity_ = 0;        // alpha * s_j
  double util_sum_ = 0;        // sum of admitted utilizations
  double hyper_product_ = 1;   // prod (w_i / capacity + 1)
  std::vector<Task> tasks_;    // admitted tasks (needed by RTA; kept for all
                               // kinds so results can report assignments)
};

}  // namespace hetsched
