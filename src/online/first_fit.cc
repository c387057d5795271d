// Implementation of the batch first-fit API (partition/first_fit.h).
//
// Since the online re-layering, the full-result batch paths are thin
// wrappers over OnlinePartitioner: construct a controller and admit the
// tasks in canonical order (utilization-descending, or density-descending
// for the constrained partitioner), so the batch and online paths share
// one admission code path and stay bit-identical
// (tests/online_equivalence_test.cpp).  The decision-only accept path and
// the alpha bisection keep their allocation-free PartitionScratch engine —
// the same admission arithmetic (admission.h), without the controller's
// assignment bookkeeping, and with a machine cursor that lets most
// placements skip the slack tree (run_slack_engine).
#include "partition/first_fit.h"

#include <algorithm>
#include <iomanip>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>

#include "online/online_partitioner.h"
#include "partition/audit.h"
#include "util/check.h"
#include "util/int128.h"

#if HETSCHED_AUDIT_ENABLED
#include <limits>
#include <utility>
#include <vector>
#endif

namespace hetsched {

namespace {

// Fills scratch.order, scratch.utils in that order, and the total and
// largest utilization the load bounds read.  The order is the exact
// permutation TaskSet::order_by_utilization_desc produces, so every engine
// consumes tasks in the same sequence.
// HETSCHED_NOALLOC (scratch warm-up; allocation-free once warm)
void prepare_order(const TaskSet& tasks, AdmissionKind kind,
                   PartitionScratch& s) {
  HETSCHED_CHECK(!admission_row(kind).tiered);
  tasks.order_by_utilization_desc(s.order, s.utils);
  double total = 0.0;
  for (const double w : s.utils) total += w;
  s.util_total = total;
  s.util_max = s.utils.empty() ? 0.0 : s.utils.front();
}

// The load bounds below are off beyond this many tasks or machines, which
// keeps their rounding error under kLoadBoundMargin.
constexpr std::size_t kLoadBoundMaxSize = std::size_t{1} << 20;
// delta: the relative margin each bound keeps over its rounding error.
constexpr double kLoadBoundMargin = 1e-8;
// f for the RMS kinds: a constant just below ln 2 = 0.693147...
constexpr double kRmsLoadFactor = 0.693;

// Decides a probe from two O(m) load bounds, without a first-fit pass;
// nullopt when neither applies.  Both bounds come from the load argument
// behind Theorem I.1's failure certificate.  W = sum of the n task
// utilizations (the doubles first fit compares), cap_j = speed(j) * alpha
// exactly as reset_machines computes it, w_max the largest utilization,
// u = 2^-53 the unit roundoff, and n, m <= 2^20.
//
// Reject when W > (1 + delta) * sum_j cap_j.  A pass that places every
// task leaves each machine's exact load L_j (the real sum of its doubles)
// at most cap_j up to rounding: EDF's last admission passed
// fl(sum + w) <= cap_j; RMS-LL's passed the same against
// fl(LL(k) * cap_j) with LL(k) <= LL(1) = 1; RMS-HB's product
// prod(1 + w/cap_j) <= 2 gives sum w/cap_j <= prod - 1 <= 1.  With three
// roundings per task that is L_j <= cap_j (1 + 6 k_j u), so
// W <= (1 + 6nu) sum_j cap_j exactly, and the two computed sums add
// (n + m)u more: in all less than 2^-30 < delta.  So a computed W above
// (1 + delta) times the computed capacity rules out an accepting pass.
//
// Accept when W <= (1 - delta) * sum_j max(0, f cap_j - w_max).  Suppose
// first fit fails on task t.  Then every machine j rejected t:
//   * EDF:    fl(U_j + w_t) > cap_j, so U_j > cap_j - w_t exactly (cap_j is
//             a double and rounding is monotone), f = 1;
//   * RMS-LL: fl(U_j + w_t) > fl(LL(k + 1) cap_j) with LL(k) >= ln 2 for
//             every k, computed to 1e-9 relative for k <= 2^20, so
//             U_j > fl(f cap_j) - w_t for f = 0.693;
//   * RMS-HB: prod over j's tasks and t of (1 + w/cap_j) > 2 up to
//             rounding, and ln(1 + x) <= x turns it into
//             L_j + w_t > (ln 2 - 4(n+1)u) cap_j > fl(f cap_j),
// where U_j is j's rounded running sum, at most L_j (1 + nu).  Each
// machine therefore holds L_j >= max(0, f cap_j - w_max) up to that
// relative rounding, and W >= sum_j L_j + w_t with w_t > 0; the computed
// sums again add (n + m + 1)u.  So a computed W at most (1 - delta) times
// the computed sum rules out a failing pass.
//
// Either way the bound returns the verdict the pass would, so a
// bisection sees the same answers and returns the same bits.
// HETSCHED_NOALLOC
std::optional<bool> load_bound_verdict(const Platform& platform,
                                       AdmissionKind kind, double alpha,
                                       const PartitionScratch& s) {
  const std::size_t m = platform.size();
  if (s.utils.size() > kLoadBoundMaxSize || m > kLoadBoundMaxSize) {
    return std::nullopt;
  }
  const double f =
      admission_row(kind).fold == AdmissionFold::kEdf ? 1.0 : kRmsLoadFactor;
  double capacity = 0.0;
  double failed_load = 0.0;  // the least load a failed pass leaves
  for (std::size_t j = 0; j < m; ++j) {
    const double cap = platform.speed(j) * alpha;
    capacity += cap;
    failed_load += std::max(0.0, f * cap - s.util_max);
  }
  if (s.util_total > (1.0 + kLoadBoundMargin) * capacity) return false;
  if (s.util_total <= (1.0 - kLoadBoundMargin) * failed_load) return true;
  return std::nullopt;
}

// Resets the per-machine state (capacity, sums, slacks) for one run.
// Capacity is computed exactly as MachineLoad's constructor computes it.
// HETSCHED_NOALLOC (scratch warm-up; allocation-free once warm)
void reset_machines(const Platform& platform, AdmissionFold fold, double alpha,
                    PartitionScratch& s) {
  const std::size_t m = platform.size();
  s.capacity.resize(m);
  s.util_sum.resize(m);
  s.hyper.resize(m);
  s.count.resize(m);
  s.slack.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    s.capacity[j] = platform.speed(j) * alpha;
    s.util_sum[j] = 0.0;
    s.hyper[j] = 1.0;
    s.count[j] = 0;
    s.slack[j] = admission_slack(fold, s.capacity[j], 0.0, 0, 1.0);
  }
}

// Runs first fit over the prepared order using the resolved engine.
// Returns the position in s.order of the first task that fits nowhere, or
// s.utils.size() if all fit.
//
// kNaive is the reference: a linear scan over the slack array for every
// task.  kSegmentTree keeps a cursor on the machine j of the last placement
// and the largest slack left of j, which the descent that found j reports.
// Machines left of j do not change while the cursor stays, so while that
// maximum is below the next utilization and j's own comparison admits the
// task, j is still the leftmost fit: the task folds straight into j with
// no slack search, tree update or descent.  When the cursor leaves, j's
// slack is computed once, the tree updated and a new descent run.  Since
// (w <= slack) == admission_admits(w), both engines make the same
// comparisons and place every task on the same machine.
// HETSCHED_NOALLOC
std::size_t run_slack_engine(AdmissionFold fold, PartitionEngine resolved,
                             PartitionScratch& s) {
  const std::size_t n = s.utils.size();
  const std::size_t m = s.slack.size();
  if (resolved == PartitionEngine::kNaive) {
    for (std::size_t pos = 0; pos < n; ++pos) {
      const double w = s.utils[pos];
      std::size_t j = 0;
      while (j < m && !(w <= s.slack[j])) ++j;
      if (j == m) return pos;
      admission_fold_step(fold, w, s.capacity[j], s.util_sum[j], s.hyper[j],
                          s.count[j], s.slack[j]);
    }
    return n;
  }
  s.tree.build(s.slack);
  // The cursor machine's state lives in locals while the cursor stays and
  // is written back when it leaves.
  std::size_t j = SlackTree::npos;
  double left_max = 0.0;
  double capacity = 0.0, util_sum = 0.0, hyper = 1.0;
  std::size_t count = 0;
  for (std::size_t pos = 0; pos < n; ++pos) {
    const double w = s.utils[pos];
    if (j != SlackTree::npos) {
      if (left_max < w &&
          admission_admits(fold, w, capacity, util_sum, count, hyper)) {
        admission_accumulate(w, capacity, util_sum, hyper, count);
        continue;
      }
      s.util_sum[j] = util_sum;
      s.hyper[j] = hyper;
      s.count[j] = count;
      s.slack[j] = admission_slack(fold, capacity, util_sum, count, hyper);
      s.tree.update(j, s.slack[j]);
    }
    j = s.tree.find_first_at_least(w, left_max);
    if (j == SlackTree::npos) return pos;
    capacity = s.capacity[j];
    util_sum = s.util_sum[j];
    hyper = s.hyper[j];
    count = s.count[j];
    admission_accumulate(w, capacity, util_sum, hyper, count);
  }
  return n;
}

// First fit through a fresh controller, offering tasks[i] for each i of
// `order` in turn: the full-result batch path of every test, and the
// accept probe of the tests without a fold.
PartitionResult controller_partition(std::span<const Task> tasks,
                                     std::span<const std::size_t> order,
                                     const Platform& platform,
                                     AdmissionKind kind, double alpha,
                                     PartitionEngine engine) {
  HETSCHED_CHECK(platform.size() >= 1);
  HETSCHED_CHECK(alpha >= 1.0);
  PartitionResult out;
  out.kind = kind;
  out.alpha = alpha;
  out.assignment.assign(tasks.size(), platform.size());

  OnlinePartitioner controller(platform, kind, alpha, engine);
  controller.reserve(tasks.size());
  for (const std::size_t i : order) {
    const AdmitDecision d = controller.admit(tasks[i]);
    if (!d.admitted) {
      out.failed_task = i;
      out.failed_utilization = d.utilization;
      break;
    }
    out.assignment[i] = d.machine;
  }
  out.feasible = !out.failed_task.has_value();

  // Expose the (possibly partial) loads: the proofs reason about exactly
  // this state.
  out.machine_utilization.resize(platform.size());
  out.tasks_per_machine.resize(platform.size());
  for (std::size_t j = 0; j < platform.size(); ++j) {
    out.machine_utilization[j] = controller.machine_utilization(j);
    out.tasks_per_machine[j] = controller.machine_tasks(j);
  }
  return out;
}

// Accept probe assuming the scratch is prepared for `tasks` by
// prepare_order (the bisection hoists the ordering out of the loop).  The
// tree engine first tries the load bounds; kNaive always runs the pass.
// A test without a fold (kRmsResponseTime) runs its pass on the
// controller.
// HETSCHED_NOALLOC (tests with a fold; the controller pass allocates)
bool accepts_prepared(const TaskSet& tasks, const Platform& platform,
                      AdmissionKind kind, double alpha, PartitionScratch& s,
                      PartitionEngine engine) {
  const AdmissionFold fold = admission_row(kind).fold;
  const PartitionEngine resolved = resolve_engine(engine, kind);
  bool verdict;
  if (fold == AdmissionFold::kNone) {
    ++s.first_fit_passes;
    verdict = controller_partition(tasks.tasks(), s.order, platform, kind,
                                   alpha, engine)
                  .feasible;
  } else {
    const std::optional<bool> bound =
        resolved == PartitionEngine::kSegmentTree
            ? load_bound_verdict(platform, kind, alpha, s)
            : std::nullopt;
    if (bound) {
      verdict = *bound;
    } else {
      ++s.first_fit_passes;
      reset_machines(platform, fold, alpha, s);
      verdict = run_slack_engine(fold, resolved, s) == tasks.size();
    }
  }
  // Shadow oracle: the decision-only scratch verdict, whether a pass or a
  // load bound gave it, must match the full batch partition (the
  // controller path) and a full pass of the opposite engine.
  HETSCHED_AUDIT_HOOK(
      const bool oracle =
          first_fit_partition(tasks, platform, kind, alpha, engine).feasible;
      HETSCHED_CHECK_MSG(verdict == oracle,
                         "audit: scratch verdict diverged from batch oracle");
      if (fold != AdmissionFold::kNone) {
        const PartitionEngine other =
            resolved == PartitionEngine::kSegmentTree
                ? PartitionEngine::kNaive
                : PartitionEngine::kSegmentTree;
        PartitionScratch fresh;
        prepare_order(tasks, kind, fresh);
        reset_machines(platform, fold, alpha, fresh);
        const bool cross =
            run_slack_engine(fold, other, fresh) == tasks.size();
        HETSCHED_CHECK_MSG(verdict == cross,
                           "audit: engines disagree on accept verdict");
      });
  return verdict;
}

}  // namespace

std::string PartitionResult::to_string() const {
  std::ostringstream os;
  os << hetsched::to_string(kind) << " alpha=" << alpha << " ";
  // Fixed precision so CSV-diffing benches are stable across libstdc++
  // versions (default double formatting is not).
  os << std::fixed << std::setprecision(6);
  if (feasible) {
    os << "FEASIBLE loads=[";
    for (std::size_t j = 0; j < machine_utilization.size(); ++j) {
      if (j > 0) os << ",";
      os << machine_utilization[j];
    }
    os << "]";
  } else {
    os << "INFEASIBLE failed_task=";
    if (failed_task) {
      os << *failed_task;
    } else {
      os << "none";
    }
    os << " w=" << failed_utilization;
  }
  return os.str();
}

PartitionResult first_fit_partition(const TaskSet& tasks,
                                    const Platform& platform,
                                    AdmissionKind kind, double alpha,
                                    PartitionEngine engine) {
  HETSCHED_CHECK(!admission_row(kind).tiered);
  return controller_partition(tasks.tasks(),
                              tasks.order_by_utilization_desc(), platform,
                              kind, alpha, engine);
}

PartitionResult first_fit_partition_constrained(std::span<const Task> tasks,
                                                const Platform& platform,
                                                AdmissionKind kind,
                                                double alpha) {
  HETSCHED_CHECK(admission_row(kind).tiered);
  // Densest first (exact comparison, stable), mirroring the paper's
  // ordering.
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&tasks](std::size_t a, std::size_t b) {
                     const int128 lhs = static_cast<int128>(tasks[a].exec) *
                                        tasks[b].effective_deadline();
                     const int128 rhs = static_cast<int128>(tasks[b].exec) *
                                        tasks[a].effective_deadline();
                     return lhs > rhs;
                   });
  return controller_partition(tasks, order, platform, kind, alpha,
                              PartitionEngine::kAuto);
}

bool first_fit_accepts(const TaskSet& tasks, const Platform& platform,
                       AdmissionKind kind, double alpha) {
  PartitionScratch scratch;
  return first_fit_accepts(tasks, platform, kind, alpha, scratch);
}

// HETSCHED_NOALLOC (tests with a fold, warm scratch; the RTA pass
// allocates)
bool first_fit_accepts(const TaskSet& tasks, const Platform& platform,
                       AdmissionKind kind, double alpha,
                       PartitionScratch& scratch, PartitionEngine engine) {
  HETSCHED_CHECK(platform.size() >= 1);
  HETSCHED_CHECK(alpha >= 1.0);
  prepare_order(tasks, kind, scratch);
  return accepts_prepared(tasks, platform, kind, alpha, scratch, engine);
}

std::optional<double> min_feasible_alpha(const TaskSet& tasks,
                                         const Platform& platform,
                                         AdmissionKind kind, double alpha_hi,
                                         double tol) {
  PartitionScratch scratch;
  return min_feasible_alpha(tasks, platform, kind, alpha_hi, scratch,
                            PartitionEngine::kAuto, tol);
}

std::optional<double> min_feasible_alpha(const TaskSet& tasks,
                                         const Platform& platform,
                                         AdmissionKind kind, double alpha_hi,
                                         PartitionScratch& scratch,
                                         PartitionEngine engine, double tol) {
  HETSCHED_CHECK(platform.size() >= 1);
  HETSCHED_CHECK(alpha_hi >= 1.0);
  HETSCHED_CHECK(tol > 0);
  prepare_order(tasks, kind, scratch);
#if HETSCHED_AUDIT_ENABLED
  // Audit builds record every (alpha, verdict) the bisection observes and
  // assert at the end that the samples are consistent with acceptance
  // being monotone in alpha: no accepted alpha below a rejected one.
  // First-fit acceptance is not provably monotone (see the header caveat),
  // so a firing here is a genuine research find, not necessarily a bug.
  std::vector<std::pair<double, bool>> audit_probes;
#endif
  const auto probe = [&](double alpha) {
    const bool ok =
        accepts_prepared(tasks, platform, kind, alpha, scratch, engine);
#if HETSCHED_AUDIT_ENABLED
    audit_probes.emplace_back(alpha, ok);
#endif
    return ok;
  };
#if HETSCHED_AUDIT_ENABLED
  const auto audit_monotone = [&] {
    double min_accept = std::numeric_limits<double>::infinity();
    double max_reject = -std::numeric_limits<double>::infinity();
    for (const auto& [alpha, ok] : audit_probes) {
      if (ok) {
        min_accept = std::min(min_accept, alpha);
      } else {
        max_reject = std::max(max_reject, alpha);
      }
    }
    HETSCHED_CHECK_MSG(
        min_accept >= max_reject,
        "audit: bisection observed non-monotone acceptance in alpha");
  };
#endif
  if (probe(1.0)) return 1.0;
  if (!probe(alpha_hi)) return std::nullopt;
  double lo = 1.0, hi = alpha_hi;  // reject at lo, accept at hi
  while (hi - lo > tol) {
    const double mid = 0.5 * (lo + hi);
    if (probe(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  HETSCHED_AUDIT_HOOK(audit_monotone());
  return hi;
}

}  // namespace hetsched
