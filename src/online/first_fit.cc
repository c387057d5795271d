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
#include <cmath>
#include <iomanip>
#include <limits>
#include <numbers>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>

#include "online/online_partitioner.h"
#include "partition/audit.h"
#include "util/check.h"
#include "util/int128.h"

#if HETSCHED_AUDIT_ENABLED
#include <utility>
#include <vector>
#endif

namespace hetsched {

namespace {

// Fills scratch.order, scratch.utils in that order, and what the load
// bounds read: the total utilization and, per group of kLoadBoundGroup
// consecutive tasks, its first (largest) utilization and the in-order sum
// of every utilization before its last task.  The order is the exact
// permutation TaskSet::order_by_utilization_desc produces, so every engine
// consumes tasks in the same sequence.
// HETSCHED_NOALLOC (scratch warm-up; allocation-free once warm)
void prepare_order(const TaskSet& tasks, AdmissionKind kind,
                   PartitionScratch& s) {
  HETSCHED_CHECK(!admission_row(kind).tiered);
  tasks.order_by_utilization_desc(s.order, s.utils);
  const std::size_t n = s.utils.size();
  const std::size_t groups = (n + kLoadBoundGroup - 1) / kLoadBoundGroup;
  s.group_max.resize(groups);
  s.group_prefix.resize(groups);
  double total = 0.0;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t first = g * kLoadBoundGroup;
    const std::size_t last = std::min(first + kLoadBoundGroup, n) - 1;
    s.group_max[g] = s.utils[first];
    for (std::size_t k = first; k < last; ++k) total += s.utils[k];
    s.group_prefix[g] = total;
    total += s.utils[last];
  }
  s.util_total = total;
}

// The load bounds below are off beyond this many tasks or machines, which
// keeps their rounding error under kLoadBoundMargin.
constexpr std::size_t kLoadBoundMaxSize = std::size_t{1} << 20;
// delta: the relative margin each bound keeps over its rounding error.
constexpr double kLoadBoundMargin = 1e-8;
// f for the RMS kinds: a constant just below ln 2 = 0.693147...
constexpr double kRmsLoadFactor = 0.693;

// h(a) = k a + 2/(1 + a)^k - 1, k = floor(ln 2 / ln(1 + a)), at
// a = w_max / cap rounded up, or 1 for a >= 1: the most sum w / cap a
// machine of capacity cap holds under RMS-HB's test with every w <= w_max
// (load_bound_verdict).  For every integer p >= 0, g(p) = p a +
// 2/(1 + a)^p - 1 >= h(a) (g falls until p = k and rises after), so a k
// that rounding moves by one, or clamping k to n, still gives an upper
// bound, and so does 1 (sum x <= prod(1 + x) - 1).  It is evaluated as
// p a + 2 exp(-p log1p(a)) - 1 with 0 <= p log1p(a) < 2: log1p and exp
// err by a few ulps and the other five operations by half an ulp each, so
// the computed h is within 1e-14 of g(p) >= ln 2, far inside delta.
// HETSCHED_NOALLOC
double hyperbolic_fill(double w_max, double cap, std::size_t n) {
  const double a = std::nextafter(w_max / cap,
                                  std::numeric_limits<double>::infinity());
  if (!(a < 1.0)) return 1.0;
  const double l = std::log1p(a);
  const double p =
      std::min(std::floor(std::numbers::ln2 / l), static_cast<double>(n));
  return std::min(1.0, p * a + 2.0 * std::exp(-p * l) - 1.0);
}

// Decides a probe from O(m + n/G) load bounds, without a first-fit pass;
// nullopt when none applies.  The bounds come from the load argument
// behind Theorem I.1's failure certificate.  W = the in-order sum of the n
// task utilizations (the doubles first fit compares), cap_j = s.capacity[j]
// = speed(j) * alpha, w_max the largest utilization, LL(k) the computed
// rms_liu_layland_bound(k) (within 1e-9 relative of k(2^(1/k) - 1) for
// k <= 2^20), u = 2^-53 the unit roundoff, and n, m <= 2^20.  Every sum
// below adds non-negative terms, so its rounding is relative: at most
// (terms + 2)u of the exact sum.
//
// Reject when W > (1 + delta) * sum_j c_j, with c_j = cap_j for EDF,
// c_j = LL(K_j) cap_j for RMS-LL, K_j = max(1, ceil(ln 2 cap_j / w_max))
// clamped to n, and c_j = h(a_j) cap_j for RMS-HB (hyperbolic_fill).  A
// pass that places every task leaves each machine's exact load L_j (the
// real sum of its doubles) at most c_j up to rounding:
//   * EDF's last admission passed fl(sum + w) <= cap_j;
//   * RMS-LL's last admission onto a machine that ends with k tasks passed
//     against fl(LL(k) cap_j).  If k >= K_j, LL(k) <= LL(K_j) (up to LL's
//     1e-9); if k < K_j, then k <= K_j - 1 < ln 2 cap_j / w_max, so
//     L_j <= k w_max < ln 2 cap_j <= LL(K_j) cap_j.  Clamping K_j to n
//     keeps both cases, as k <= n;
//   * RMS-HB's last admission passed prod(1 + x_i) <= 2 with
//     x_i = w_i / cap_j <= a_j = w_max / cap_j.  ln(1 + x) is concave, so
//     moving load from a smaller x to a larger one, up to a_j, keeps
//     sum x and does not raise sum ln(1 + x): the largest sum x is k
//     tasks at a_j plus one remainder, h(a_j) = k a_j + 2/(1 + a_j)^k - 1
//     with k = floor(ln 2 / ln(1 + a_j)).  h rises with a_j and is 1 for
//     a_j >= 1 (not LL(k): the test admits {0.99, 0.001} on a unit
//     machine, more than LL(2) = 0.828).
// With k_j tasks on machine j and three roundings per task, EDF's and
// RMS-LL's L_j <= c_j (1 + 6 k_j u + 3e-9).  RMS-HB's computed product is
// within (1 + 3 k_j u) of the real one, and the largest sum x under
// prod(1 + x) <= C grows with C at slope (1 + a)^-k <= 1, so
// L_j <= c_j (1 + 10 k_j u) with h >= ln 2.
// So W <= (1 + 10nu + 3e-9) sum_j c_j exactly, and the two computed sums
// add (n + m + 2)u more: in all less than delta.  So a computed W above
// (1 + delta) times the computed sum rules out an accepting pass.
//
// Accept when, for every group g of G = kLoadBoundGroup consecutive tasks
// in first-fit order, with w_g its first (largest) utilization, P_g the
// in-order sum of every utilization before its last task, and
// a_j = fl(f cap_j) (f = 1 for EDF, 0.693 for RMS-LL and RMS-HB):
//   0 < R_g = sum_j max(0, a_j - w_g)  and  P_g <= (1 - delta) R_g.
// Suppose first fit fails on task t of group g.  Every machine j rejected
// t:
//   * EDF:    fl(U_j + w_t) > cap_j, so U_j > cap_j - w_t exactly (cap_j is
//             a double and rounding is monotone);
//   * RMS-LL: fl(U_j + w_t) > fl(LL(k + 1) cap_j) with LL(k) >= ln 2 for
//             every k, computed to 1e-9 relative for k <= 2^20, so
//             U_j > a_j - w_t;
//   * RMS-HB: prod over j's tasks and t of (1 + w/cap_j) > 2 up to
//             rounding, and ln(1 + x) <= x turns it into
//             L_j + w_t > (ln 2 - 4(n+1)u) cap_j > a_j,
// where U_j is j's rounded running sum, at most L_j (1 + nu).  Since
// w_t <= w_g, every machine holds L_j >= max(0, a_j - w_g) up to that
// rounding, strictly where a_j > w_g, and R_g > 0 says some machine does.
// But the machines hold exactly the tasks before t, and t is at most g's
// last task, so sum_j L_j <= P_g up to the rounding of P_g.  Hence
// R_g < P_g up to (3n + m + n/G + 4)u < delta, and a computed P_g at most
// (1 - delta) times the computed R_g rules out a failing pass.
//
// The machines are sorted by speed, so those with a_j > w_g are a suffix
// [k, m) that grows as w_g falls: one sweep moves k left and carries
// R_{g+1} = R_g + (m - k)(w_g - w_{g+1}) + the new machines' a_j - w_{g+1},
// O(m + n/G) per probe, every term non-negative.  A running minimum of
// a_j from the right stands in for a_j, so the suffix holds even where
// converting the exact speeds to doubles is not monotone; it only lowers
// R_g.  With a single group, w_g = w_max and P_g <= W: no weaker than the
// same bound taken once over W and w_max.
//
// Either way the bound returns the verdict the pass would, so a
// bisection sees the same answers and returns the same bits.
// HETSCHED_NOALLOC
std::optional<bool> load_bound_verdict(AdmissionFold fold,
                                       const PartitionScratch& s) {
  const std::size_t n = s.utils.size();
  const std::size_t m = s.capacity.size();
  if (n > kLoadBoundMaxSize || m > kLoadBoundMaxSize) return std::nullopt;
  if (n == 0) return true;
  const double w_max = s.group_max.front();
  double capacity = 0.0;  // the most a pass that places every task places
  for (const double cap : s.capacity) {
    if (fold == AdmissionFold::kLiuLayland) {
      const double k = std::ceil(std::numbers::ln2 * cap / w_max);
      const std::size_t tasks =
          !(k < static_cast<double>(n))
              ? n
              : std::max(std::size_t{1}, static_cast<std::size_t>(k));
      capacity += rms_liu_layland_bound(tasks) * cap;
    } else if (fold == AdmissionFold::kHyperbolic) {
      capacity += hyperbolic_fill(w_max, cap, n) * cap;
    } else {
      capacity += cap;
    }
  }
  if (s.util_total > (1.0 + kLoadBoundMargin) * capacity) return false;

  const double f = fold == AdmissionFold::kEdf ? 1.0 : kRmsLoadFactor;
  std::size_t k = m;  // machines [k, m) have a_j > w_g
  double edge = std::numeric_limits<double>::infinity();  // min a_j, [k, m)
  double room = 0.0;                                       // R_g
  double w_prev = w_max;
  for (std::size_t g = 0; g < s.group_max.size(); ++g) {
    const double w = s.group_max[g];
    room += static_cast<double>(m - k) * (w_prev - w);
    w_prev = w;
    while (k > 0) {
      const double a = std::min(f * s.capacity[k - 1], edge);
      if (!(a > w)) break;
      room += a - w;
      edge = a;
      --k;
    }
    if (!(room > 0.0) ||
        s.group_prefix[g] > (1.0 - kLoadBoundMargin) * room) {
      return std::nullopt;
    }
  }
  return true;
}

// Sets every machine's capacity for one probe, exactly as MachineLoad's
// constructor computes it: the load bounds and the pass both read it.
// HETSCHED_NOALLOC (scratch warm-up; allocation-free once warm)
void set_capacity(const Platform& platform, double alpha,
                  PartitionScratch& s) {
  const std::size_t m = platform.size();
  s.capacity.resize(m);
  for (std::size_t j = 0; j < m; ++j) s.capacity[j] = platform.speed(j) * alpha;
}

// Resets the per-machine state (sums, slacks) for one pass over the
// capacities set_capacity set.
// HETSCHED_NOALLOC (scratch warm-up; allocation-free once warm)
void reset_machines(AdmissionFold fold, PartitionScratch& s) {
  const std::size_t m = s.capacity.size();
  s.util_sum.resize(m);
  s.hyper.resize(m);
  s.count.resize(m);
  s.slack.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
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
        admission_accumulate(fold, w, capacity, util_sum, hyper, count);
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
    admission_accumulate(fold, w, capacity, util_sum, hyper, count);
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
    set_capacity(platform, alpha, s);
    const std::optional<bool> bound =
        resolved == PartitionEngine::kSegmentTree
            ? load_bound_verdict(fold, s)
            : std::nullopt;
    if (bound) {
      verdict = *bound;
    } else {
      ++s.first_fit_passes;
      reset_machines(fold, s);
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
        set_capacity(platform, alpha, fresh);
        reset_machines(fold, fresh);
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
