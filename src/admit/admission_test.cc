#include "admit/admission_test.h"

#include <algorithm>

#include "core/rta.h"
#include "dbf/demand_bound.h"
#include "partition/audit.h"
#include "util/check.h"
#include "util/int_math.h"

namespace hetsched::admit {

std::optional<AdmissionKind> test_from_name(std::string_view name) {
  const std::optional<AdmissionKind> kind = find_admission(name);
  if (kind && admission_row(*kind).tiered) return kind;
  return std::nullopt;
}

const char* test_name(const AdmitConfig& cfg) {
  return cfg.test ? admission_row(*cfg.test).name : "legacy";
}

std::optional<Task> inflate(const AdmitConfig& cfg, const Task& t) {
  HETSCHED_DCHECK(t.valid());
  auto c = checked_mul(std::int64_t{2}, cfg.preempt_overhead);
  if (c) c = checked_add(*c, cfg.release_overhead);
  if (c) c = checked_add(*c, t.exec);
  if (!c) return std::nullopt;
  return Task{*c, t.period, t.effective_deadline()};
}

// HETSCHED_NOALLOC (warm path: capacity is reserved up front)
void MachineDemand::push(const Task& t) {
  const DeadlineTerm term =
      deadline_term(t, static_cast<std::uint32_t>(tasks_.size()));
  // hetsched-lint: allow(noalloc) amortized growth, reserved when warm
  tasks_.push_back(t);
  // After every equal deadline: the new task has the largest index.
  const auto at = std::upper_bound(
      order_.begin(), order_.end(), term.deadline,
      [](std::int64_t key, const DeadlineTerm& e) { return key < e.deadline; });
  // hetsched-lint: allow(noalloc) amortized growth, reserved when warm
  order_.insert(at, term);
}

// HETSCHED_NOALLOC
void MachineDemand::remove_at(std::size_t i) {
  tasks_.erase(tasks_.begin() + static_cast<std::ptrdiff_t>(i));
  // One pass: drop task i's entry, renumber the later tasks.
  std::size_t kept = 0;
  for (const DeadlineTerm& e : order_) {
    if (e.index == i) continue;
    DeadlineTerm& to = order_[kept++];
    to = e;
    to.index -= e.index > i ? 1 : 0;
  }
  HETSCHED_DCHECK(kept + 1 == order_.size());
  order_.pop_back();
}

// HETSCHED_NOALLOC
// HETSCHED_OWNER_LOOP
// The incremental-DBF warm-admit path: `demand` already holds the machine's
// inflated residents, so the deciders scan it in place; the only mutation is
// a transient push/pop of the candidate into the index-ordered mirror's
// reserved capacity.  Tier 1 at k = 1 reads the deadline order, which
// leaves the candidate out.
TierVerdict escalate(AdmissionKind kind, double band, MachineDemand& demand,
                     const Task& candidate, const Rational& speed,
                     double density_margin) {
  const AdmissionRow& row = admission_row(kind);
  if (!row.escalates()) return {false, kTierBound};
  // hetsched-lint: allow(noalloc) amortized growth, reserved when warm
  demand.tasks_.push_back(candidate);
  const std::span<const Task> with = demand.tasks_;
  const bool edf = row.approx_k > 0 || row.exact == ExactTest::kQpa;
  const long double util = edf ? utilization_ld(with) : 0;
  // The approximate test is sound, so an approx accept short-circuits the
  // exact test; only approx rejects pay for it.  Past `auto`'s band the
  // approximate reject stands.
  bool approx = false;
  if (row.approx_k == 1) {
    const std::optional<LinearApprox> linear =
        edf_dbf_approx_linear(with, demand.order_, speed, util);
    approx = linear ? linear->feasible
                    : edf_dbf_feasible_approx_k(with, speed, 1, util);
    HETSCHED_AUDIT_HOOK(HETSCHED_CHECK_MSG(
        approx == edf_dbf_feasible_approx_k(with, speed, 1, util),
        "audit: linear tier 1 diverged from the O(n^2) test"));
  } else if (row.approx_k > 1) {
    approx = edf_dbf_feasible_approx_k(with, speed, row.approx_k, util);
  }
  TierVerdict v{false, kTierApprox};
  if (approx) {
    v = {true, kTierApprox};
  } else if (row.exact == ExactTest::kQpa &&
             (!row.band_gated || density_margin <= band)) {
    v = {edf_dbf_qpa_verdict(with, speed, util).feasible, kTierExact};
  } else if (row.exact == ExactTest::kRta) {
    v = {rta_schedulable(with, speed), kTierExact};
  }
  demand.tasks_.pop_back();
  return v;
}

TierVerdict machine_admits(const AdmitConfig& cfg,
                           std::span<const Task> residents,
                           const Task& candidate, double capacity,
                           const Rational& speed) {
  HETSCHED_CHECK(cfg.test.has_value());
  const AdmissionFold fold = admission_row(*cfg.test).fold;
  double dens_sum = 0.0;
  double hyper = 1.0;
  std::size_t count = 0;
  double slack = admission_slack(fold, capacity, 0.0, 0, 1.0);
  for (const Task& t : residents) {
    admission_fold_step(fold, t.density(), capacity, dens_sum, hyper, count,
                        slack);
  }
  const double dens = candidate.density();
  if (dens <= slack) return {true, kTierBound};
  const double margin = (dens_sum + dens - capacity) / capacity;
  MachineDemand demand;
  demand.reserve(residents.size() + 1);
  for (const Task& t : residents) demand.push(t);
  return escalate(*cfg.test, cfg.band, demand, candidate, speed, margin);
}

}  // namespace hetsched::admit
