// Tiered per-machine admission tests for constrained-deadline tasks.
//
// The paper's controller admits with implicit-deadline utilization bounds
// (partition/admission.h).  This module generalizes the per-machine query —
// "can machine j at speed alpha * s_j accept its resident set plus one
// candidate?" — to the constrained model (d_i <= p_i) by composing the
// deciders the repo already owns into a *tiered selector*:
//
//   tier 0 (bound)   density slack: sum c_i/d_i <= capacity, evaluated with
//                    the same exact-FP fold the paper's kinds use, so
//                    warm admits stay allocation-free and the segment-tree
//                    engine keeps its O(log m) machine lookup.  Sufficient:
//                    a density accept is always safe, and implies both
//                    escalation tiers accept (dbf_i(t) <= (c_i/d_i) t for
//                    t >= d_i), so tier 0 never needs double-checking.
//   tier 1 (approx)  linear approximate DBF (dbf/demand_bound.h): n probe
//                    points over the residents kept in deadline order,
//                    whose terms one pass sums, O(n) per query and
//                    bit-identical to summing n tasks at each point.
//                    O(n^2 k) at k > 1 and when U is within 1e-12 of the
//                    speed (which adds the busy-period bound).
//                    Sufficient, bounded pessimism.
//   tier 2 (exact)   QPA for EDF modes; deadline-monotonic response-time
//                    analysis for the fixed-priority mode.  Exact, but a
//                    per-query cost that depends on the period spread;
//                    QPA scans up from 2 d_max in doubling segments, so
//                    it meets the lowest miss first, and races the busy
//                    period, which cuts the segments once it converges.
//
// Escalation only ever runs when tier 0 *rejects*; which tiers run is a
// column of the test's row in partition/admission.h, and kAuto additionally
// gates the exact tier behind a relative density-overshoot band so
// far-from-boundary rejects stay cheap.
//
// The overhead model inflates c_i with per-release/preemption costs before
// any test sees the task, so every tier prices the same (pessimistic) WCET.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/task.h"
#include "dbf/demand_bound.h"
#include "partition/admission.h"
#include "util/rational.h"

namespace hetsched::admit {

// Tier ids as persisted in WAL record flags and AdmitDecision::tier.
inline constexpr std::uint8_t kTierBound = 0;
inline constexpr std::uint8_t kTierApprox = 1;
inline constexpr std::uint8_t kTierExact = 2;

struct AdmitConfig {
  // The tiered test that decides in place of the controller's kind.  Empty
  // (the default, "legacy") keeps the kind: the paper's implicit-deadline
  // test, which rejects deadlines on the wire and keeps every pre-existing
  // byte stream (WAL, snapshot, checksum) bit-identical.
  std::optional<AdmissionKind> test;
  // kAuto: escalate to the exact tier only while the relative density
  // overshoot (density_sum_with_candidate - capacity) / capacity is within
  // this band; beyond it the approximate verdict stands.
  double band = 0.5;
  // Overhead model: each job pays one release and up to two context
  // switches (preempt + resume), inflating c_i before any test runs.
  std::int64_t release_overhead = 0;
  std::int64_t preempt_overhead = 0;

  friend bool operator==(const AdmitConfig&, const AdmitConfig&) = default;
};

// The tiered test named "auto" | "bound" | "dbf-approx" | "qpa" | "rta";
// nullopt for any other name ("legacy" included).
std::optional<AdmissionKind> test_from_name(std::string_view name);

// The configured test's name, "legacy" when the kind decides.
const char* test_name(const AdmitConfig& cfg);

// Overhead inflation: c' = c + release + 2 * preempt, or nullopt when that
// sum overflows int64 — callers facing client input reject such a task
// instead of admitting it.  The period is untouched and the deadline made
// explicit (d == p for implicit tasks) — overhead is work, not urgency.
std::optional<Task> inflate(const AdmitConfig& cfg, const Task& t);

struct TierVerdict {
  bool accept = false;
  std::uint8_t tier = kTierBound;  // the tier that produced the verdict
};

// Incremental per-machine demand state: the machine's resident tasks,
// inflated, index-aligned with the controller's per-machine resident list
// (same push / ordered-erase discipline), and the same residents in
// deadline order (ties by index) with the terms tier 1 sums
// (dbf/demand_bound.h DeadlineTerm).  Keeping both resident is what makes
// a warm escalation allocation-free and tier 1 linear — the deciders scan
// them in place instead of rebuilding them from slots.
class MachineDemand {
 public:
  void reserve(std::size_t n) {
    tasks_.reserve(n);
    order_.reserve(n);
  }
  // O(n): an insert into the deadline order.
  // HETSCHED_NOALLOC (warm path: capacity is reserved up front)
  void push(const Task& t);
  // Ordered erase, NOT swap-remove: the deciders sum demand in element
  // order, and bit-identical recovery requires a recovered mirror (rebuilt
  // in resident-list order) to evaluate the same floating-point sums.
  // O(n): the deadline order renumbers the indices past i.
  // HETSCHED_NOALLOC
  void remove_at(std::size_t i);
  void clear() {
    tasks_.clear();
    order_.clear();
  }
  std::size_t size() const { return tasks_.size(); }
  std::span<const Task> tasks() const { return tasks_; }
  std::span<const DeadlineTerm> by_deadline() const { return order_; }

 private:
  // Appends the candidate to the index-ordered mirror only, for the span
  // of one escalation.
  friend TierVerdict escalate(AdmissionKind, double, MachineDemand&,
                              const Task&, const Rational&, double);

  std::vector<Task> tasks_;
  std::vector<DeadlineTerm> order_;
};

// Escalation: decide `candidate` on a machine whose tier-0 fold REJECTED
// it, through the escalation of `kind`'s row.  `demand` is
// pushed/tested/popped transiently and is unchanged on return; `speed` is
// the machine's exact augmented speed; `density_margin` is the relative
// overshoot the band gates on.  U is summed once, for both tiers.
// Allocation-free when `demand` has spare capacity (warm).
TierVerdict escalate(AdmissionKind kind, double band, MachineDemand& demand,
                     const Task& candidate, const Rational& speed,
                     double density_margin);

// Batch oracle for tests and benchmarks: replays the tier-0 fold of
// `cfg.test` (which must be set) over `residents` (in admission order) and
// decides `candidate` exactly as the online controller would on a machine
// of double capacity `capacity` and exact speed `speed`.  Allocates; not
// for the hot path.
TierVerdict machine_admits(const AdmitConfig& cfg,
                           std::span<const Task> residents,
                           const Task& candidate, double capacity,
                           const Rational& speed);

}  // namespace hetsched::admit
