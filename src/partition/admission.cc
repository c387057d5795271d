#include "partition/admission.h"

#include <bit>
#include <cstdint>
#include <limits>

#include "core/rta.h"
#include "core/uniproc.h"
#include "partition/audit.h"
#include "util/check.h"

namespace hetsched {

namespace {

// Largest non-negative double w for which the monotone predicate holds, or
// a negative value when even w = 0 fails.  The search runs over the ordered
// bit representation of non-negative doubles (monotone bijection to
// integers), so the returned threshold characterizes the predicate EXACTLY:
// for every double w >= 0, (w <= threshold) == pred(w).  A rearranged
// closed form (e.g. capacity - util_sum) can be 1 ulp off at exact-fit
// boundaries and flip verdicts on adversarially tight instances (an exact
// bin packing like {0.44, 0.40, 0.16} on a unit machine); the search
// cannot.  It decides the hyperbolic fold's threshold, and the EDF-form
// folds' wherever edf_form_threshold's closed form does not cover the
// inputs.
//
// `estimate` is the closed-form rearrangement, which lies within a few ulps
// of the true threshold; galloping from it and then bisecting the remaining
// bracket costs ~6 predicate evaluations in the common case (vs ~63 for a
// blind bisection over the full double range).
template <typename Pred>
double exact_admission_threshold(double estimate, const Pred& pred) {
  if (!pred(0.0)) return -1.0;
  constexpr double kMax = std::numeric_limits<double>::max();
  if (pred(kMax)) return kMax;
  const std::uint64_t max_bits = std::bit_cast<std::uint64_t>(kMax);

  std::uint64_t lo = 0;         // invariant: pred true at lo
  std::uint64_t hi = max_bits;  // invariant: pred false at hi
  if (estimate > 0.0 && estimate < kMax) {
    const std::uint64_t e = std::bit_cast<std::uint64_t>(estimate);
    if (pred(estimate)) {
      lo = e;
      // Gallop up for a false point; each true probe tightens lo.
      for (std::uint64_t step = 1; lo + step < hi; step *= 2) {
        const std::uint64_t probe = lo + step;
        if (pred(std::bit_cast<double>(probe))) {
          lo = probe;
        } else {
          hi = probe;
          break;
        }
      }
    } else {
      hi = e;
      // Gallop down for a true point; each false probe tightens hi.
      for (std::uint64_t step = 1;; step *= 2) {
        if (step >= hi) break;  // bracket bottoms out at 0 (pred true there)
        const std::uint64_t probe = hi - step;
        if (pred(std::bit_cast<double>(probe))) {
          lo = probe;
          break;
        }
        hi = probe;
      }
    }
  }
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (pred(std::bit_cast<double>(mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::bit_cast<double>(lo);
}

// edf_form_threshold, or the gallop where it does not decide.  Audit
// builds check the result bit for bit against the gallop.
inline double edf_form_slack(double limit, double util_sum) {
  const auto admits = [&](double w) {
    return admission_admits(AdmissionFold::kEdf, w, limit, util_sum, 0, 1.0);
  };
  const std::optional<double> closed = edf_form_threshold(limit, util_sum);
  const double slack =
      closed ? *closed : exact_admission_threshold(limit - util_sum, admits);
  HETSCHED_AUDIT_HOOK(
      const double reference =
          exact_admission_threshold(limit - util_sum, admits);
      // Bit equality on purpose: the closed form must reproduce the
      // gallop's threshold exactly.  hetsched-lint: allow(float-compare)
      HETSCHED_CHECK_MSG(std::bit_cast<std::uint64_t>(slack) ==
                             std::bit_cast<std::uint64_t>(reference),
                         "audit: closed-form admission threshold diverged "
                         "from the gallop"));
  return slack;
}

}  // namespace

std::string to_string(AdmissionKind k) { return admission_row(k).label; }

std::optional<AdmissionKind> find_admission(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kAdmissionRows); ++i) {
    const char* row_name = kAdmissionRows[i].name;
    if (row_name != nullptr && name == row_name) {
      return static_cast<AdmissionKind>(i);
    }
  }
  return std::nullopt;
}

double admission_slack(AdmissionFold fold, double capacity, double util_sum,
                       std::size_t task_count, double hyper_product) {
  // Liu–Layland's comparison is EDF's against the count-aware limit, as in
  // admission_admits.  The hyperbolic predicate is admission_admits at a
  // literal fold, so its switch folds away inside the search.
  switch (fold) {
    case AdmissionFold::kEdf:
      return edf_form_slack(capacity, util_sum);
    case AdmissionFold::kLiuLayland:
      return edf_form_slack(rms_liu_layland_bound(task_count + 1) * capacity,
                            util_sum);
    case AdmissionFold::kHyperbolic:
      return exact_admission_threshold(
          (2.0 / hyper_product - 1.0) * capacity, [&](double w) {
            return admission_admits(AdmissionFold::kHyperbolic, w, capacity,
                                    util_sum, task_count, hyper_product);
          });
    case AdmissionFold::kNone:
      break;
  }
  return -1.0;
}

MachineLoad::MachineLoad(AdmissionKind kind, const Rational& speed,
                         double alpha)
    : kind_(kind),
      speed_exact_(speed * rational_from_double(alpha, 1'000'000)),
      capacity_(speed.to_double() * alpha) {
  HETSCHED_CHECK(!admission_row(kind).tiered);
  HETSCHED_CHECK(speed > Rational(0));
  HETSCHED_CHECK(alpha >= 1.0);
}

bool MachineLoad::can_admit(const Task& t) const {
  const AdmissionRow& row = admission_row(kind_);
  if (admission_admits(row.fold, t.utilization(), capacity_, util_sum_,
                       tasks_.size(), hyper_product_)) {
    return true;
  }
  if (row.exact != ExactTest::kRta) return false;
  std::vector<Task> with = tasks_;
  with.push_back(t);
  return rta_schedulable(with, speed_exact_);
}

void MachineLoad::admit(const Task& t) {
  std::size_t count = tasks_.size();
  admission_accumulate(admission_row(kind_).fold, t.utilization(), capacity_,
                       util_sum_, hyper_product_, count);
  tasks_.push_back(t);
}

}  // namespace hetsched
