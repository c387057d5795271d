#include "admit/admission_test.h"

#include "core/rta.h"
#include "dbf/demand_bound.h"
#include "util/check.h"
#include "util/int_math.h"

namespace hetsched::admit {

std::string to_string(TestKind k) {
  switch (k) {
    case TestKind::kLegacy:
      return "legacy";
    case TestKind::kBound:
      return "bound";
    case TestKind::kDbfApprox:
      return "dbf-approx";
    case TestKind::kQpa:
      return "qpa";
    case TestKind::kRta:
      return "rta";
    case TestKind::kAuto:
      return "auto";
  }
  return "unknown";
}

std::optional<TestKind> test_from_name(std::string_view name) {
  if (name == "legacy") return TestKind::kLegacy;
  if (name == "bound") return TestKind::kBound;
  if (name == "dbf-approx") return TestKind::kDbfApprox;
  if (name == "qpa") return TestKind::kQpa;
  if (name == "rta") return TestKind::kRta;
  if (name == "auto") return TestKind::kAuto;
  return std::nullopt;
}

std::optional<Task> inflate(const AdmitConfig& cfg, const Task& t) {
  HETSCHED_DCHECK(t.valid());
  auto c = checked_mul(std::int64_t{2}, cfg.preempt_overhead);
  if (c) c = checked_add(*c, cfg.release_overhead);
  if (c) c = checked_add(*c, t.exec);
  if (!c) return std::nullopt;
  return Task{*c, t.period, t.effective_deadline()};
}

AdmissionKind tier0_fold_kind(TestKind k) {
  HETSCHED_CHECK(k != TestKind::kLegacy);
  return k == TestKind::kRta ? AdmissionKind::kRmsLiuLayland
                             : AdmissionKind::kEdf;
}

// HETSCHED_NOALLOC
// HETSCHED_OWNER_LOOP
// The incremental-DBF warm-admit path: `demand` already holds the machine's
// inflated residents, so the deciders scan it in place; the only mutation is
// a transient push/pop of the candidate into reserved capacity.
TierVerdict escalate(const AdmitConfig& cfg, MachineDemand& demand,
                     const Task& candidate, const Rational& speed,
                     double density_margin) {
  HETSCHED_DCHECK(cfg.tiered());
  if (cfg.test == TestKind::kBound) return {false, kTierBound};

  demand.push(candidate);
  const std::span<const Task> with = demand.tasks();
  TierVerdict v{false, kTierApprox};
  switch (cfg.test) {
    case TestKind::kDbfApprox:
      v = {edf_dbf_feasible_approx(with, speed), kTierApprox};
      break;
    case TestKind::kQpa:
      // The approximate test is sound, so an approx accept short-circuits
      // the exact scan; only approx rejects pay for QPA.
      if (edf_dbf_feasible_approx(with, speed)) {
        v = {true, kTierApprox};
      } else {
        v = {edf_dbf_feasible_qpa(with, speed), kTierExact};
      }
      break;
    case TestKind::kRta:
      v = {rta_schedulable(with, speed), kTierExact};
      break;
    case TestKind::kAuto:
      if (edf_dbf_feasible_approx(with, speed)) {
        v = {true, kTierApprox};
      } else if (density_margin <= cfg.band) {
        v = {edf_dbf_feasible_qpa(with, speed), kTierExact};
      } else {
        // Far from the boundary: the approximate reject stands.
        v = {false, kTierApprox};
      }
      break;
    case TestKind::kBound:
    case TestKind::kLegacy:
      HETSCHED_CHECK_MSG(false, "unreachable escalation kind");
  }
  demand.pop();
  return v;
}

TierVerdict machine_admits(const AdmitConfig& cfg,
                           std::span<const Task> residents,
                           const Task& candidate, double capacity,
                           const Rational& speed) {
  HETSCHED_CHECK(cfg.tiered());
  const AdmissionKind fold = tier0_fold_kind(cfg.test);
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
  return escalate(cfg, demand, candidate, speed, margin);
}

}  // namespace hetsched::admit
