// Per-machine admission tests: one table of named tests.
//
// The paper's algorithm admits a task onto a machine of (augmented) speed
// alpha * s if the machine's single-processor schedulability test still
// passes with the task added.  Every such test the repo runs is one row of
// kAdmissionRows, in the shape of schedcat's HRT_TESTS: a tier-0 fold over
// the machine's weights with a closed-form slack (EDF's bound, Thm II.2;
// Liu–Layland's, Thm II.3; the hyperbolic bound; or none), then for the
// machines whose fold rejects, an escalation: the approximate DBF at k
// points (tier 1, dbf/demand_bound.h), then QPA or DM response-time
// analysis (tier 2), which `auto` runs only inside a density band.  The
// folds are incremental, so a first-fit pass over them is O(nm); the
// escalations are correspondingly more expensive.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/platform.h"
#include "core/task.h"
#include "core/uniproc.h"
#include "util/rational.h"

namespace hetsched {

// The named tests, in table order.
enum class AdmissionKind {
  // The paper's tests over utilizations; implicit deadlines only.
  kEdf,              // sum w <= alpha s                  (paper, Thm II.2)
  kRmsLiuLayland,    // sum w <= (k)(2^{1/k}-1) alpha s   (paper, Thm II.3)
  kRmsHyperbolic,    // prod(w/(alpha s)+1) <= 2          (extension)
  kRmsResponseTime,  // exact RTA at speed alpha s        (extension)
  // Tests over overhead-inflated densities; constrained deadlines.
  kBound,      // tier 0 only: density bound
  kDbfApprox,  // density, then the linear approximate DBF
  kQpa,        // density, approximate DBF, then QPA
  // Liu–Layland over densities, then DM response times.  LL over
  // densities is sufficient for DM: shrinking periods to deadlines only
  // adds demand and turns DM order into RM order.
  kRta,
  kAuto,       // as kQpa, QPA only inside the band
  // Batch-only DBF testers of E11: no fold, no name.
  kDbfQpa,         // QPA alone
  kDbfThreePoint,  // the approximate DBF at k = 3
  kDbfLinear,      // the approximate DBF at k = 1
};

// A row's tier-0 fold.  The value is the kind id version 2 snapshots
// persist for it, the same as the paper test with that fold.
enum class AdmissionFold : std::uint8_t {
  kEdf = 0,
  kLiuLayland = 1,
  kHyperbolic = 2,
  kNone = 3,  // the slack never admits: every decision escalates
};

// A row's exact tier.
enum class ExactTest : std::uint8_t { kNone, kQpa, kRta };

struct AdmissionRow {
  const char* name;   // CLI spelling; nullptr for the batch-only rows
  // Printed label (status lines, PartitionResult): the paper test's name;
  // the other rows print their fold's, or EDF without one.
  const char* label;
  AdmissionFold fold;
  std::uint8_t approx_k;  // tier 1: approximate DBF at k points, 0 = none
  ExactTest exact;        // tier 2
  bool band_gated;        // tier 2 runs only inside AdmitConfig::band
  // Takes constrained deadlines and overheads, reports the deciding tier,
  // and snapshots as version 2.
  bool tiered;
  bool fixed_priority;  // certifies RM/DM priorities rather than EDF
  std::uint8_t id;      // persisted: v1 kind id, or v2 test id if tiered

  // Whether a tier-0 reject is offered to tier 1 or 2 at all.
  constexpr bool escalates() const {
    return approx_k > 0 || exact != ExactTest::kNone;
  }
};

inline constexpr AdmissionRow kAdmissionRows[] = {
    // name, label, fold, approx_k, exact, band_gated, tiered,
    // fixed_priority, id
    {"edf", "EDF", AdmissionFold::kEdf, 0, ExactTest::kNone, false, false,
     false, 0},
    {"rms-ll", "RMS-LL", AdmissionFold::kLiuLayland, 0, ExactTest::kNone,
     false, false, true, 1},
    {"rms-hb", "RMS-HB", AdmissionFold::kHyperbolic, 0, ExactTest::kNone,
     false, false, true, 2},
    {"rms-rta", "RMS-RTA", AdmissionFold::kNone, 0, ExactTest::kRta, false,
     false, true, 3},
    {"bound", "EDF", AdmissionFold::kEdf, 0, ExactTest::kNone, false, true,
     false, 1},
    {"dbf-approx", "EDF", AdmissionFold::kEdf, 1, ExactTest::kNone, false,
     true, false, 2},
    {"qpa", "EDF", AdmissionFold::kEdf, 1, ExactTest::kQpa, false, true,
     false, 3},
    {"rta", "RMS-LL", AdmissionFold::kLiuLayland, 0, ExactTest::kRta, false,
     true, true, 4},
    {"auto", "EDF", AdmissionFold::kEdf, 1, ExactTest::kQpa, true, true,
     false, 5},
    {nullptr, "EDF", AdmissionFold::kNone, 0, ExactTest::kQpa, false, true,
     false, 0},
    {nullptr, "EDF", AdmissionFold::kNone, 3, ExactTest::kNone, false, true,
     false, 0},
    {nullptr, "EDF", AdmissionFold::kNone, 1, ExactTest::kNone, false, true,
     false, 0},
};
static_assert(std::size(kAdmissionRows) ==
              static_cast<std::size_t>(AdmissionKind::kDbfLinear) + 1);

constexpr const AdmissionRow& admission_row(AdmissionKind k) {
  return kAdmissionRows[static_cast<std::size_t>(k)];
}

// The row's label.
std::string to_string(AdmissionKind k);

// The row whose CLI spelling is `name`, or nullopt.
std::optional<AdmissionKind> find_admission(std::string_view name);

// The fold's admission comparison, verbatim as MachineLoad::can_admit
// performs it: does a machine of capacity alpha * s whose admitted weights
// sum to `util_sum` (`task_count` of them, hyperbolic product
// `hyper_product`) still pass with a weight `w` added?  kNone never admits.
// HETSCHED_NOALLOC
inline bool admission_admits(AdmissionFold fold, double w, double capacity,
                             double util_sum, std::size_t task_count,
                             double hyper_product) {
  switch (fold) {
    case AdmissionFold::kEdf:
      return util_sum + w <= capacity;
    case AdmissionFold::kLiuLayland:
      // EDF's comparison against the count-aware Liu–Layland limit.
      return admission_admits(
          AdmissionFold::kEdf, w,
          rms_liu_layland_bound(task_count + 1) * capacity, util_sum,
          task_count, hyper_product);
    case AdmissionFold::kHyperbolic:
      return hyper_product * (w / capacity + 1.0) <= 2.0;
    case AdmissionFold::kNone:
      break;
  }
  return false;
}

// The largest weight the machine still admits — the EXACT floating-point
// threshold of admission_admits, i.e. for every double w >= 0,
// (w <= slack) == admission_admits(fold, w, ...).  In real arithmetic the
// thresholds are
//   kEdf:        capacity - util_sum
//   kLiuLayland: LL(task_count + 1) * capacity - util_sum
//   kHyperbolic: (2 / hyper_product - 1) * capacity
// but those rearranged closed forms can be 1 ulp off at exact-fit
// boundaries.  The EDF-form folds (kEdf, kLiuLayland) take the exact
// threshold of their comparison from edf_form_threshold; kHyperbolic, and
// the inputs edf_form_threshold does not cover, gallop and bisect the
// original predicate over the double bit-space.  This exactness is what
// keeps the naive scan and the segment-tree engine bit-identical (the
// equivalence property test relies on it) and keeps boundary instances —
// exact bin packings like {0.44, 0.40, 0.16} on a unit machine —
// admissible, matching the predicate form the repo has always used.
// `task_count` and `hyper_product` describe the weights already admitted;
// negative return means not even w = 0 fits.  kNone's slack is always
// negative, so a fold over it never admits and every decision falls to the
// row's escalation.  Audit builds check every EDF-form threshold bit for
// bit against the bit-space search.
double admission_slack(AdmissionFold fold, double capacity, double util_sum,
                       std::size_t task_count, double hyper_product);

// The exact threshold of the EDF-form comparison fl(util_sum + w) <= limit
// in closed form: for every double w >= 0, (w <= threshold) ==
// (util_sum + w <= limit), and -1 when not even w = 0 passes.  kEdf
// compares against limit = capacity, kLiuLayland against
// LL(task_count + 1) * capacity.  nullopt for the inputs the closed form
// does not cover, which admission_slack decides by the bit-space search.
//
// Under the default round-to-nearest-even mode, fl(x) <= L holds exactly
// when x lies below the midpoint M = L + g of L and its successor L+,
// g = (L+ - L) / 2, or on M when L's significand is even (a tie rounds to
// the even neighbour).  With U = util_sum, x = U + w is exact, so the
// threshold is the largest double below D = M - U (`to_midpoint`), or D
// itself on an even tie:
//   * L/2 <= U <= L: L - U is exact (Sterbenz).  With L in [2^e, 2^(e+1)),
//     U >= 2^(e-1) is a multiple of g = 2^(e-53), and so is
//     D <= L/2 + g <= 2^e: D is a double.  The threshold is D when L is
//     even and the double below D when L is odd: two floating-point
//     operations and a bit test.
//   * 0 <= U < L/2: est = fl(L - U) (`estimate`) lies in (L/2, L] and is
//     off by at most half an ulp of est, while ulp(est)/2 <= g <=
//     ulp(est).  So est <= D <= est + 1.5 ulp(est), and the threshold is
//     est-, est or est+: evaluating the comparison at est and its
//     neighbours (at most three evaluations) brackets it by monotonicity.
//   * U > L: not even w = 0 fits.
// Not covered: L below 2^-1021 (g is not a double), L at DBL_MAX or above
// (L+ is not finite), a negative U, NaNs, and a bracket that does not
// close.  No extended precision is involved, so the form does not depend
// on the ABI.
// HETSCHED_NOALLOC
inline std::optional<double> edf_form_threshold(double limit,
                                                double util_sum) {
  if (!(limit >= 2.0 * std::numeric_limits<double>::min() &&
        limit < std::numeric_limits<double>::max() && util_sum >= 0.0)) {
    return std::nullopt;
  }
  if (util_sum > limit) return -1.0;
  const std::uint64_t l = std::bit_cast<std::uint64_t>(limit);
  if (util_sum >= 0.5 * limit) {
    const double to_midpoint =
        (limit - util_sum) + 0.5 * (std::bit_cast<double>(l + 1) - limit);
    return (l & 1) == 0 ? to_midpoint
                        : std::bit_cast<double>(
                              std::bit_cast<std::uint64_t>(to_midpoint) - 1);
  }
  const double estimate = limit - util_sum;
  const std::uint64_t e = std::bit_cast<std::uint64_t>(estimate);
  // The comparison at the double whose bit pattern is `w_bits`.
  const auto admits = [&](std::uint64_t w_bits) {
    return admission_admits(AdmissionFold::kEdf, std::bit_cast<double>(w_bits),
                            limit, util_sum, 0, 1.0);
  };
  if (admits(e)) {
    if (!admits(e + 1)) return estimate;
    if (!admits(e + 2)) return std::bit_cast<double>(e + 1);
  } else if (admits(e - 1)) {
    return std::bit_cast<double>(e - 1);
  }
  return std::nullopt;
}

// Accumulates a weight `w` into a machine's running state under `fold`:
// the one accumulation MachineLoad::admit, the batch scratch engine and
// the controller (admits, and the from-scratch recomputation on a depart)
// all perform.  Only kHyperbolic reads the product, so only it pays the
// division; under every other fold the product stays 1.
// HETSCHED_NOALLOC
inline void admission_accumulate(AdmissionFold fold, double w,
                                 double capacity, double& util_sum,
                                 double& hyper_product,
                                 std::size_t& task_count) {
  util_sum += w;
  if (fold == AdmissionFold::kHyperbolic) hyper_product *= w / capacity + 1.0;
  ++task_count;
}

// One step of the slack-form admission fold: accumulate `w` and refresh the
// machine's slack.  This is THE admission code path shared by the batch
// scratch engine (online/first_fit.cc) and the stateful controller
// (online/online_partitioner.h); keeping it in one place is what keeps the
// two bit-identical.
// HETSCHED_NOALLOC
inline void admission_fold_step(AdmissionFold fold, double w, double capacity,
                                double& util_sum, double& hyper_product,
                                std::size_t& task_count, double& slack) {
  admission_accumulate(fold, w, capacity, util_sum, hyper_product,
                       task_count);
  slack = admission_slack(fold, capacity, util_sum, task_count, hyper_product);
}

// Incremental admission state for one machine under one of the paper's
// four tests (a row that is not tiered).
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
  double hyper_product_ = 1;   // prod (w_i / capacity + 1); RMS-HB only
  std::vector<Task> tasks_;    // admitted tasks (needed by RTA; kept for all
                               // kinds so results can report assignments)
};

}  // namespace hetsched
