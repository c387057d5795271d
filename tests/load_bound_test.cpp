// Soundness of the load bounds the tree engine's decision-only path
// (first_fit_accepts, min_feasible_alpha) decides probes with before it
// runs a first-fit pass: a probe a bound decides must get the verdict of
// the pass, so the tree engine must agree with kNaive (which always runs
// the pass) and with first_fit_partition on every probe.  The cases sit
// where a bound could go wrong: alpha exactly on each bound's threshold
// and one ulp either side, exact-fit packings, a task larger than every
// machine, a single machine, n on both sides of the ordering's small-n
// cut-over, and two instances that only the bounds' margins keep sound —
// one for the rounding margin delta, one for the RMS load factor f < ln 2.
// In the audit build every accept probe also replays the full partition
// and the other engine, so these cases run through that oracle too.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gen/platform_gen.h"
#include "gen/taskset_gen.h"
#include "partition/first_fit.h"
#include "util/rng.h"

namespace hetsched {
namespace {

constexpr AdmissionKind kKinds[] = {AdmissionKind::kEdf,
                                    AdmissionKind::kRmsLiuLayland,
                                    AdmissionKind::kRmsHyperbolic};

// How the tree engine answered one probe.
struct TreeProbe {
  bool verdict = false;
  bool pass_ran = false;  // false: a load bound decided it
};

// Probes the bounds decided, by verdict, since the current test began.
int g_bound_rejects = 0;
int g_bound_accepts = 0;

TreeProbe tree_probe(const TaskSet& tasks, const Platform& platform,
                     AdmissionKind kind, double alpha) {
  PartitionScratch scratch;
  TreeProbe p;
  p.verdict = first_fit_accepts(tasks, platform, kind, alpha, scratch,
                                PartitionEngine::kSegmentTree);
  p.pass_ran = scratch.first_fit_passes == 1;
  return p;
}

// Tree engine == kNaive == first_fit_partition at alpha.
TreeProbe expect_agree(const TaskSet& tasks, const Platform& platform,
                       AdmissionKind kind, double alpha,
                       const std::string& label) {
  const TreeProbe tree = tree_probe(tasks, platform, kind, alpha);
  PartitionScratch naive;
  const bool naive_verdict = first_fit_accepts(tasks, platform, kind, alpha,
                                               naive, PartitionEngine::kNaive);
  EXPECT_EQ(naive.first_fit_passes, 1u);
  const bool full = first_fit_partition(tasks, platform, kind, alpha).feasible;
  EXPECT_EQ(tree.verdict, naive_verdict)
      << label << " " << to_string(kind) << " alpha=" << alpha
      << (tree.pass_ran ? " (pass)" : " (load bound)");
  EXPECT_EQ(tree.verdict, full) << label << " " << to_string(kind)
                                << " alpha=" << alpha;
  if (!tree.pass_ran) ++(tree.verdict ? g_bound_accepts : g_bound_rejects);
  return tree;
}

double from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }
std::uint64_t to_bits(double a) { return std::bit_cast<std::uint64_t>(a); }

// Bisects the double bit space of [lo, hi] for the boundary of a predicate
// that is monotone in alpha and differs at the ends: returns the last
// alpha with pred == pred(lo).
template <typename Pred>
double boundary(double lo, double hi, Pred pred) {
  const bool at_lo = pred(lo);
  std::uint64_t a = to_bits(lo), b = to_bits(hi);
  while (b - a > 1) {
    const std::uint64_t mid = a + (b - a) / 2;
    if (pred(from_bits(mid)) == at_lo) {
      a = mid;
    } else {
      b = mid;
    }
  }
  return from_bits(a);
}

// Probes alpha, and its neighbours one ulp either side (kept >= 1).
void expect_agree_around(const TaskSet& tasks, const Platform& platform,
                         AdmissionKind kind, double alpha,
                         const std::string& label) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double a : {std::nextafter(alpha, -inf), alpha,
                         std::nextafter(alpha, inf)}) {
    if (a >= 1.0) expect_agree(tasks, platform, kind, a, label);
  }
}

// Finds each bound's threshold in [1, hi] and checks the engines agree on
// it and one ulp either side.  The reject bound fires up to some alpha and
// the accept bound from some alpha on; each edge is located with the
// tree engine's pass count.
void expect_agree_at_thresholds(const TaskSet& tasks,
                                const Platform& platform, AdmissionKind kind,
                                double hi, const std::string& label) {
  const auto rejected_by_bound = [&](double a) {
    const TreeProbe p = tree_probe(tasks, platform, kind, a);
    return !p.pass_ran && !p.verdict;
  };
  const auto accepted_by_bound = [&](double a) {
    const TreeProbe p = tree_probe(tasks, platform, kind, a);
    return !p.pass_ran && p.verdict;
  };
  if (rejected_by_bound(1.0) && !rejected_by_bound(hi)) {
    expect_agree_around(tasks, platform, kind,
                        boundary(1.0, hi, rejected_by_bound),
                        label + " reject threshold");
  }
  if (!accepted_by_bound(1.0) && accepted_by_bound(hi)) {
    const double last_undecided = boundary(1.0, hi, accepted_by_bound);
    expect_agree_around(tasks, platform, kind,
                        std::nextafter(last_undecided, hi),
                        label + " accept threshold");
  }
}

// Batch-alpha-shaped load: total utilization r times the total speed.
TaskSet overloaded(Rng& rng, std::size_t n, const Platform& platform,
                   double r) {
  TasksetSpec spec;
  spec.n = n;
  spec.total_utilization = r * platform.total_speed();
  spec.max_task_utilization = 1.0;
  spec.periods = PeriodSpec::log_uniform(10, 1000);
  return generate_taskset(rng, spec);
}

TEST(LoadBounds, ThresholdsAndNeighboursAgreeWithThePass) {
  g_bound_rejects = g_bound_accepts = 0;
  Rng rng(0x10AD);
  for (const std::size_t n : {std::size_t{127}, std::size_t{128},
                              std::size_t{129}}) {
    for (const std::size_t m : {std::size_t{1}, std::size_t{4},
                                std::size_t{16}}) {
      const Platform platform =
          geometric_platform(m, 1.0625, 0.05 * static_cast<double>(n));
      const TaskSet tasks = overloaded(rng, n, platform, 1.2);
      for (const AdmissionKind kind : kKinds) {
        const std::string label =
            "n=" + std::to_string(n) + " m=" + std::to_string(m);
        expect_agree_at_thresholds(tasks, platform, kind, 8.0, label);
        for (const double a : {1.0, 1.1, 1.3, 1.7, 2.0, 2.5, 4.0}) {
          expect_agree(tasks, platform, kind, a, label);
        }
      }
    }
  }
  // Both shortcuts were taken (and, in the audit build, re-derived).
  EXPECT_GT(g_bound_rejects, 0);
  EXPECT_GT(g_bound_accepts, 0);
}

TEST(LoadBounds, ExactFitPackings) {
  // {0.44, 0.40, 0.16} fills a unit machine exactly, as does one task of
  // utilization 1; two such machines hold both.
  const TaskSet three({{11, 25}, {2, 5}, {4, 25}});
  const TaskSet four({{11, 25}, {2, 5}, {4, 25}, {1, 1}});
  const Platform one = Platform::identical(1);
  const Platform two = Platform::identical(2);
  for (const AdmissionKind kind : kKinds) {
    for (const double a : {1.0, 1.5, 2.0, 4.0}) {
      expect_agree(three, one, kind, a, "exact fit, one machine");
      expect_agree(four, two, kind, a, "exact fit, two machines");
    }
    expect_agree_at_thresholds(three, one, kind, 8.0, "exact fit");
    expect_agree_at_thresholds(four, two, kind, 8.0, "exact fit x2");
  }
  EXPECT_TRUE(tree_probe(three, one, AdmissionKind::kEdf, 1.0).verdict);
  EXPECT_TRUE(tree_probe(four, two, AdmissionKind::kEdf, 1.0).verdict);
}

TEST(LoadBounds, TaskLargerThanEveryMachine) {
  // A task of utilization 3/2 beside small ones on unit machines: the
  // total fits the platform at alpha = 1 but the big task fits nowhere
  // until alpha reaches 3/2.
  std::vector<Task> list{{3, 2}};
  for (int i = 0; i < 20; ++i) list.push_back({1, 20});
  const TaskSet tasks(list);
  const Platform platform = Platform::identical(4);
  for (const AdmissionKind kind : kKinds) {
    for (const double a : {1.0, 1.25, 1.4999, 1.5, 1.6, 3.0}) {
      expect_agree(tasks, platform, kind, a, "oversized task");
    }
    expect_agree_at_thresholds(tasks, platform, kind, 8.0, "oversized task");
  }
  EXPECT_FALSE(tree_probe(tasks, platform, AdmissionKind::kEdf, 1.0).verdict);
}

TEST(LoadBounds, RoundingMarginKeepsAnExactFitAccepted) {
  // Machines a, a, 1 with a = 5 * 2^-55, and tasks 1, a, a: first fit puts
  // one task on each machine, exactly full.  Summed in first-fit order the
  // utilizations round up twice, to 1 + 2^-51, while the capacities summed
  // slowest first give 1 + 2^-52: without a margin the reject bound would
  // declare this instance overloaded.
  const std::int64_t den = std::int64_t{1} << 55;
  const Platform platform = Platform::from_speeds_exact(
      std::vector<Rational>{Rational(5, den), Rational(5, den), Rational(1)});
  const TaskSet tasks({{5, den}, {1, 1}, {5, den}});
  for (const AdmissionKind kind : kKinds) {
    const TreeProbe p = expect_agree(tasks, platform, kind, 1.0, "margin");
    EXPECT_TRUE(p.verdict) << to_string(kind);
  }
}

TEST(LoadBounds, RmsLoadFactorStaysBelowLnTwo) {
  // Eight tasks of 0.1 on a unit machine: 0.8 <= 1 - 0.1, so with f = 1 the
  // accept bound would admit them, yet RMS-LL's limit LL(8) = 0.724 and
  // RMS-HB's 1.1^8 = 2.14 > 2 reject them.  EDF accepts.
  const TaskSet tasks(std::vector<Task>(8, Task{1, 10}));
  const Platform platform = Platform::identical(1);
  for (const AdmissionKind kind : kKinds) {
    for (const double a : {1.0, 1.05, 1.1, 1.15, 1.2}) {
      expect_agree(tasks, platform, kind, a, "eight tenths");
    }
  }
  EXPECT_TRUE(tree_probe(tasks, platform, AdmissionKind::kEdf, 1.0).verdict);
  EXPECT_FALSE(
      tree_probe(tasks, platform, AdmissionKind::kRmsLiuLayland, 1.0).verdict);
  EXPECT_FALSE(
      tree_probe(tasks, platform, AdmissionKind::kRmsHyperbolic, 1.0).verdict);
}

TEST(LoadBounds, MinFeasibleAlphaAgreesAcrossEngines) {
  // 54 instances, n log-uniform in [8, 4096], loaded at 0.9-1.4 of the
  // platform, so the searches' probes fall on both sides of both bounds.
  Rng rng(0xA1FA);
  std::size_t tree_passes = 0, naive_passes = 0, searched = 0;
  for (int i = 0; i < 54; ++i) {
    const AdmissionKind kind = kKinds[i % 3];
    const auto n =
        static_cast<std::size_t>(std::lround(rng.log_uniform(8, 4096)));
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 64));
    // Total speed n / 20 or at most n / 16: tasks of 0.05-0.09 on average.
    const std::size_t m_identical =
        std::min(m, std::max<std::size_t>(1, n / 16));
    const Platform platform =
        i % 2 == 0
            ? geometric_platform(m, 1.0625, 0.05 * static_cast<double>(n))
            : Platform::identical(m_identical);
    const TaskSet tasks = overloaded(rng, n, platform, rng.uniform(0.9, 1.4));
    PartitionScratch tree, naive;
    const auto a_tree = min_feasible_alpha(tasks, platform, kind, 4.0, tree,
                                           PartitionEngine::kSegmentTree);
    const auto a_naive = min_feasible_alpha(tasks, platform, kind, 4.0, naive,
                                            PartitionEngine::kNaive);
    ASSERT_EQ(a_tree.has_value(), a_naive.has_value()) << "instance " << i;
    if (a_tree) {
      EXPECT_EQ(to_bits(*a_tree), to_bits(*a_naive))
          << "instance " << i << " " << to_string(kind) << " n=" << n
          << " m=" << m;
      EXPECT_TRUE(first_fit_accepts(tasks, platform, kind, *a_tree));
      if (*a_tree > 1.0) ++searched;
    }
    tree_passes += tree.first_fit_passes;
    naive_passes += naive.first_fit_passes;
  }
  EXPECT_GE(searched, 40u) << "too few instances needed a search";
  EXPECT_LT(tree_passes, naive_passes);
}

}  // namespace
}  // namespace hetsched
