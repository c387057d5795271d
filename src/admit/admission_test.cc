#include "admit/admission_test.h"

#include "core/rta.h"
#include "dbf/demand_bound.h"
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

// HETSCHED_NOALLOC
// HETSCHED_OWNER_LOOP
// The incremental-DBF warm-admit path: `demand` already holds the machine's
// inflated residents, so the deciders scan it in place; the only mutation is
// a transient push/pop of the candidate into reserved capacity.
TierVerdict escalate(AdmissionKind kind, double band, MachineDemand& demand,
                     const Task& candidate, const Rational& speed,
                     double density_margin) {
  const AdmissionRow& row = admission_row(kind);
  if (!row.escalates()) return {false, kTierBound};
  demand.push(candidate);
  const std::span<const Task> with = demand.tasks();
  // The approximate test is sound, so an approx accept short-circuits the
  // exact test; only approx rejects pay for it.  Past `auto`'s band the
  // approximate reject stands.
  TierVerdict v{false, kTierApprox};
  if (row.approx_k > 0 &&
      edf_dbf_feasible_approx_k(with, speed, row.approx_k)) {
    v = {true, kTierApprox};
  } else if (row.exact == ExactTest::kQpa &&
             (!row.band_gated || density_margin <= band)) {
    v = {edf_dbf_feasible_qpa(with, speed), kTierExact};
  } else if (row.exact == ExactTest::kRta) {
    v = {rta_schedulable(with, speed), kTierExact};
  }
  demand.pop();
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
