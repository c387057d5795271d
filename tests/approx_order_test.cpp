// Differential test of the escalation (admit/admission_test.h) against
// the tests it runs in place of: tier 1 as the O(n^2) approximate DBF it
// was (approx_reference.h, summing every task at every probe) and tier 2
// as the single-scan QPA (qpa_reference.h).  escalate's tier 1 reads the
// residents in deadline order with running double sums and its QPA races
// the busy period; neither may move a verdict or a tier.  10^5 seeded
// sets per run, over period ranges up to beyond 2^53, U / s in [0.9, 1)
// and [0.999, 1 + 1e-12], sets whose U equals s exactly, and runs of
// equal deadlines.  The demand mirror is built by pushes and an ordered
// erase, as the controller builds it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "admit/admission_test.h"
#include "approx_reference.h"
#include "dbf/demand_bound.h"
#include "qpa_reference.h"
#include "task_literals.h"
#include "util/rng.h"

namespace hetsched {
namespace {

using admit::MachineDemand;
using admit::TierVerdict;

struct PeriodRange {
  const char* name;
  std::int64_t lo;
  std::int64_t hi;
};

constexpr std::int64_t kTwo53 = std::int64_t{1} << 53;

// Near 1e6 are ROADMAP item 1's shapes; from 2^53 on, tier 1 keeps the
// O(n^2) path.
constexpr PeriodRange kPeriodRanges[] = {
    {"Tens", 10, 1000},
    {"NearOneMillion", 999000, 1001000},
    {"TwoFortyToFortyFive", std::int64_t{1} << 40, std::int64_t{1} << 45},
    {"BeyondTwo53", kTwo53 - (std::int64_t{1} << 50), kTwo53 * 4},
};

struct UtilBand {
  double lo;
  double hi;
};

constexpr UtilBand kUtilBands[] = {{0.9, 1.0}, {0.999, 1.0 + 1e-12}};

const Rational kSpeeds[] = {Rational(1), Rational(3, 2), Rational(9, 4),
                            Rational(7, 3)};

// 4 ranges x (2 bands + exact U = s) x 4 speeds x 2100 sets = 100800.
constexpr int kSetsPerCell = 2100;

constexpr AdmissionKind kKinds[] = {AdmissionKind::kDbfApprox,
                                    AdmissionKind::kQpa, AdmissionKind::kAuto};

constexpr double kBand = 0.5;

// A random constrained set with periods in `range` and utilization near
// `target` (as qpa_order_test.cpp draws them), whose deadlines in one set
// out of four are snapped to a few shared values so that runs of equal
// deadlines occur.
std::vector<Task> random_set(Rng& rng, const PeriodRange& range,
                             double target) {
  const auto fewest = std::max<std::int64_t>(
      2, static_cast<std::int64_t>(std::ceil(target * 1.25)));
  const std::int64_t n = rng.uniform_int(fewest, fewest + 10);
  std::vector<double> weights;
  double sum = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    weights.push_back(rng.uniform(0.1, 1.0));
    sum += weights.back();
  }
  std::vector<Task> tasks;
  long double u = 0;
  std::size_t widest = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const std::int64_t p = rng.uniform_int(range.lo, range.hi);
    const double share = std::min(1.0, target * weights[i] / sum);
    const auto c = std::clamp<std::int64_t>(
        std::llround(share * static_cast<double>(p)), 1, p);
    tasks.push_back(cdp(c, p, p));
    u += static_cast<long double>(c) / static_cast<long double>(p);
    if (p > tasks[widest].period) widest = i;
  }
  Task& top = tasks[widest];
  const long double fix =
      (target - u) * static_cast<long double>(top.period);
  top.exec = std::clamp<std::int64_t>(top.exec + std::llround(fix), 1,
                                      top.period);
  const bool shared = rng.bernoulli(0.25);
  std::int64_t pool[3] = {};
  for (std::int64_t& d : pool) d = rng.uniform_int(range.lo / 3, range.lo);
  for (Task& t : tasks) {
    if (shared) {
      t.deadline = std::clamp<std::int64_t>(pool[rng.uniform_int(0, 2)],
                                            t.exec, t.period);
      continue;
    }
    if (rng.bernoulli(0.25)) continue;
    const double ratio = rng.uniform(0.3, 1.0);
    t.deadline = std::clamp<std::int64_t>(
        std::llround(ratio * static_cast<double>(t.period)), t.exec,
        t.period);
  }
  return tasks;
}

// A set whose utilization equals s = num / den exactly: periods divide
// H = den * K, and the last task, of period H, takes up the rest.  U = s
// keeps tier 1 on its O(n^2) path, which needs the busy period there.
std::vector<Task> exact_set(Rng& rng, const PeriodRange& range,
                            const Rational& speed) {
  const std::int64_t k = std::max<std::int64_t>(range.lo / speed.den(), 12);
  const std::int64_t h = speed.den() * k;  // U = sum c_i q_i / h
  const std::int64_t want = speed.num() * k;
  const std::int64_t n = rng.uniform_int(1, 6);
  std::vector<Task> tasks;
  std::int64_t used = 0;
  const std::int64_t divisors[] = {1, 2, 3, 4, 6, 12};
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t q = divisors[rng.uniform_int(1, 5)];
    const std::int64_t p = h / q;
    const std::int64_t most = std::max<std::int64_t>(1, p / (4 * n));
    const std::int64_t c = rng.uniform_int(1, most);
    if (used + c * q >= want) break;
    used += c * q;
    tasks.push_back(cdp(c, std::max(c, p - rng.uniform_int(0, p / 4)), p));
  }
  const std::int64_t c = want - used;
  tasks.push_back(cdp(c, std::min(h, std::max(c, h - h / 8)), h));
  return tasks;
}

std::string describe(const std::vector<Task>& tasks, const Rational& speed) {
  std::ostringstream out;
  out << "speed " << speed.to_string() << ":";
  for (const Task& t : tasks) {
    out << " cdp(" << t.exec << ", " << t.effective_deadline() << ", "
        << t.period << ")";
  }
  return out.str();
}

// What the escalation answered before: the O(n^2) tier 1, then the
// single-scan QPA, gated as the row gates it.
TierVerdict reference_verdict(AdmissionKind kind, std::span<const Task> with,
                              const Rational& speed, double margin) {
  if (approx_reference::edf_dbf_feasible_approx_k(with, speed, 1)) {
    return {true, admit::kTierApprox};
  }
  const AdmissionRow& row = admission_row(kind);
  if (row.exact == ExactTest::kQpa && (!row.band_gated || margin <= kBand)) {
    return {qpa_reference::edf_dbf_feasible_qpa(with, speed),
            admit::kTierExact};
  }
  return {false, admit::kTierApprox};
}

// The controller's density margin for `candidate` on a machine of
// capacity s holding `residents`.
double margin_of(std::span<const Task> residents, const Task& candidate,
                 const Rational& speed) {
  const double capacity = speed.to_double();
  double density = candidate.density();
  for (const Task& t : residents) density += t.density();
  return (density - capacity) / capacity;
}

void PrintTo(const PeriodRange& range, std::ostream* out) {
  *out << range.name;
}

class ApproxOrder : public ::testing::TestWithParam<PeriodRange> {};

TEST_P(ApproxOrder, EscalationMatchesTheReferences) {
  const PeriodRange& range = GetParam();
  Rng rng(20261018 + static_cast<std::uint64_t>(range.lo));
  int mismatches = 0;
  int linear = 0;   // sets tier 1 decided in O(n)
  int fallen = 0;   // sets left to the O(n^2) path
  int tiers[3] = {};
  MachineDemand demand;
  for (int cell = 0; cell < 3; ++cell) {
    for (const Rational& speed : kSpeeds) {
      for (int i = 0; i < kSetsPerCell; ++i) {
        std::vector<Task> tasks;
        if (cell < 2) {
          const UtilBand& band = kUtilBands[cell];
          tasks = random_set(
              rng, range, rng.uniform(band.lo, band.hi) * speed.to_double());
        } else {
          tasks = exact_set(rng, range, speed);
        }
        const Task candidate = tasks.back();
        const std::span<const Task> residents =
            std::span<const Task>(tasks).first(tasks.size() - 1);
        // Push an extra task in the middle and erase it again, so the
        // deadline order also passes through an ordered erase.
        demand.clear();
        const std::size_t extra = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(residents.size())));
        for (std::size_t k = 0; k <= residents.size(); ++k) {
          if (k == extra) demand.push(candidate);
          if (k < residents.size()) demand.push(residents[k]);
        }
        demand.remove_at(extra);

        const std::optional<LinearApprox> fast = edf_dbf_approx_linear(
            tasks, demand.by_deadline(), speed, utilization_ld(tasks));
        ++(fast ? linear : fallen);
        const double margin = margin_of(residents, candidate, speed);
        for (const AdmissionKind kind : kKinds) {
          const TierVerdict got =
              admit::escalate(kind, kBand, demand, candidate, speed, margin);
          const TierVerdict want =
              reference_verdict(kind, tasks, speed, margin);
          ++tiers[got.tier];
          if ((got.accept != want.accept || got.tier != want.tier) &&
              ++mismatches <= 5) {
            ADD_FAILURE() << admission_row(kind).name << " answered "
                          << got.accept << " at tier " << int{got.tier}
                          << ", the references " << want.accept
                          << " at tier " << int{want.tier} << ": "
                          << describe(tasks, speed);
          }
        }
        ASSERT_EQ(demand.size(), residents.size());
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
  // Both tier-1 paths and both tiers are reached.
  if (range.hi < kTwo53) {
    EXPECT_GT(linear, kSetsPerCell);
  } else {
    EXPECT_GT(fallen, kSetsPerCell);
  }
  EXPECT_GT(fallen, 0);
  EXPECT_GT(tiers[admit::kTierApprox], kSetsPerCell);
  EXPECT_GT(tiers[admit::kTierExact], kSetsPerCell);
}

INSTANTIATE_TEST_SUITE_P(
    Periods, ApproxOrder, ::testing::ValuesIn(kPeriodRanges),
    [](const ::testing::TestParamInfo<PeriodRange>& param) {
      return std::string(param.param.name);
    });

TEST(ApproxOrderPinned, ProbeNearTheThresholdIsRecomputedExactly) {
  // The candidate's own probe at t = 1.001e12, below both residents'
  // deadlines, has demand c = t - 1, and the threshold s t (1 - 1e-12)
  // = t - 1.001 lies 0.001 from it, inside the rounding bound (about
  // 0.004 here) yet not on it: no double sum may decide that probe, so it
  // is summed again in index order in long double, exactly as the O(n^2)
  // test sums it.
  const std::int64_t t = 1001000000000;
  const std::vector<Task> tasks{cdp(3, 3 * t, 4 * t), cdp(7, 2 * t, 4 * t),
                                cdp(t - 1, t, 2 * t)};
  MachineDemand demand;
  demand.push(tasks[0]);
  demand.push(tasks[1]);
  const std::optional<LinearApprox> fast = edf_dbf_approx_linear(
      tasks, demand.by_deadline(), Rational(1), utilization_ld(tasks));
  ASSERT_TRUE(fast.has_value());
  EXPECT_GE(fast->exact_probes, 1u);
  const bool want =
      approx_reference::edf_dbf_feasible_approx_k(tasks, Rational(1), 1);
  EXPECT_EQ(fast->feasible, want);
  for (const AdmissionKind kind : kKinds) {
    const TierVerdict got =
        admit::escalate(kind, kBand, demand, tasks[2], Rational(1), 0.1);
    const TierVerdict ref = reference_verdict(kind, tasks, Rational(1), 0.1);
    EXPECT_EQ(got.accept, ref.accept) << admission_row(kind).name;
    EXPECT_EQ(got.tier, ref.tier) << admission_row(kind).name;
  }
}

TEST(ApproxOrderPinned, DeadlineOrderFollowsPushAndErase) {
  // Ties keep index order; an erase renumbers the later indices.
  MachineDemand demand;
  demand.push(cdp(1, 8, 10));
  demand.push(cdp(2, 4, 10));
  demand.push(cdp(3, 8, 10));
  demand.push(cdp(4, 2, 10));
  const auto order = [&] {
    std::vector<std::uint32_t> out;
    for (const DeadlineTerm& e : demand.by_deadline()) out.push_back(e.index);
    return out;
  };
  EXPECT_EQ(order(), (std::vector<std::uint32_t>{3, 1, 0, 2}));
  demand.remove_at(1);
  EXPECT_EQ(order(), (std::vector<std::uint32_t>{2, 0, 1}));
  const DeadlineTerm& first = demand.by_deadline().front();
  EXPECT_EQ(first.deadline, 2);
  EXPECT_TRUE(first.exact);
  EXPECT_DOUBLE_EQ(first.c_term, 4.0);
  EXPECT_DOUBLE_EQ(first.u_term, 0.4);
  EXPECT_DOUBLE_EQ(first.a_term, 4.0 - 0.4 * 2);
  // An exec or period from 2^53 on is not exact in double.
  EXPECT_FALSE(deadline_term(cdp(1, 8, std::int64_t{1} << 53), 0).exact);
}

}  // namespace
}  // namespace hetsched
