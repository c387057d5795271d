// Soundness of the load bounds the tree engine's decision-only path
// (first_fit_accepts, min_feasible_alpha) decides probes with before it
// runs a first-fit pass: a probe a bound decides must get the verdict of
// the pass, so the tree engine must agree with kNaive (which always runs
// the pass) and with first_fit_partition on every probe.  The cases sit
// where a bound could go wrong: alpha exactly on each bound's threshold
// and one ulp either side, exact-fit packings, a task larger than every
// machine, a single machine, n on both sides of the ordering's small-n
// cut-over and of the accept bound's group size, and instances that only
// the bounds' margins keep sound — the rounding margin delta, the RMS load
// factor f < ln 2, each group's own largest task and prefix, and the
// count-aware capacities of RMS-LL and RMS-HB.  In the audit
// build every accept probe also replays the full partition and the other
// engine, so these cases run through that oracle too.
#include <gtest/gtest.h>

#include <algorithm>
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

// The first alpha in (1, hi] at which the accept bound decides the probe,
// located by bisection on the tree engine's pass count; 0 when the bound
// accepts at 1 already or not even at hi.
double accept_threshold(const TaskSet& tasks, const Platform& platform,
                        AdmissionKind kind, double hi) {
  const auto accepted_by_bound = [&](double a) {
    const TreeProbe p = tree_probe(tasks, platform, kind, a);
    return !p.pass_ran && p.verdict;
  };
  if (accepted_by_bound(1.0) || !accepted_by_bound(hi)) return 0.0;
  return std::nextafter(boundary(1.0, hi, accepted_by_bound), hi);
}

// The accept bound as it stood before groups, taken once over the total W
// and the largest utilization: W <= (1 - delta) sum_j max(0, f cap_j -
// w_max).
bool largest_task_bound_accepts(const TaskSet& tasks,
                                const Platform& platform, AdmissionKind kind,
                                double alpha) {
  std::vector<std::size_t> order;
  std::vector<double> utils;
  tasks.order_by_utilization_desc(order, utils);
  double total = 0.0;
  for (const double w : utils) total += w;
  const double f = kind == AdmissionKind::kEdf ? 1.0 : 0.693;
  double room = 0.0;
  for (std::size_t j = 0; j < platform.size(); ++j) {
    room += std::max(0.0, f * (platform.speed(j) * alpha) - utils.front());
  }
  return total <= (1.0 - 1e-8) * room;
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

TEST(LoadBounds, LoneTaskLargerThanEveryMachine) {
  // One task of 3/2 on unit machines: nothing precedes it, so its group's
  // prefix is 0, yet it fits nowhere below alpha = 3/2.  The accept bound
  // needs some machine with room beyond the task, not just a zero prefix.
  const TaskSet tasks({{3, 2}});
  for (const std::size_t m : {std::size_t{1}, std::size_t{4}}) {
    const Platform platform = Platform::identical(m);
    for (const AdmissionKind kind : kKinds) {
      for (const double a : {1.0, 1.4999, 1.5, 3.0}) {
        expect_agree(tasks, platform, kind, a, "lone oversized task");
      }
    }
    EXPECT_FALSE(
        tree_probe(tasks, platform, AdmissionKind::kEdf, 1.0).verdict);
  }
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

TEST(LoadBounds, GroupedAcceptThresholdOnASkewedPlatform) {
  // batch-alpha's platform shape: 128 geometric machines, speeds about
  // 0.016-48 at n = 16384, scaled with n.  n falls below one group, on no
  // multiple of it, and on many whole groups.
  g_bound_rejects = g_bound_accepts = 0;
  Rng rng(0x6A0F);
  for (const std::size_t n :
       {kLoadBoundGroup - 14, 15 * kLoadBoundGroup + 40,
        64 * kLoadBoundGroup}) {
    const Platform platform =
        geometric_platform(128, 1.0625, 0.05 * static_cast<double>(n));
    const TaskSet tasks = overloaded(rng, n, platform, 1.2);
    for (const AdmissionKind kind : kKinds) {
      const std::string label = "skewed n=" + std::to_string(n);
      const double a = accept_threshold(tasks, platform, kind, 64.0);
      ASSERT_GT(a, 1.0) << label << " " << to_string(kind);
      expect_agree_around(tasks, platform, kind, a,
                          label + " grouped accept threshold");
      expect_agree_at_thresholds(tasks, platform, kind, 64.0, label);
      for (const double x : {1.0, 1.2, 1.5, 2.0}) {
        expect_agree(tasks, platform, kind, x, label);
      }
    }
  }
  EXPECT_GT(g_bound_rejects, 0);
  EXPECT_GT(g_bound_accepts, 0);
}

TEST(LoadBounds, GroupsDecideWhereTheLargestTaskAloneDoesNot) {
  // One task of 1/2 and 950 of 1/100 on 16 unit machines at alpha = 1.
  // Taken at w_max = 1/2 the certificate leaves 16 (f - 1/2), under
  // W = 10.  Every later group's largest task is 1/100, which leaves
  // 16 (f - 1/100) > 10 against the prefix, and the first group's prefix,
  // 1/2 + (G - 2)/100, is under 16 (f - 1/2): the grouped bound accepts.
  std::vector<Task> list{{1, 2}};
  for (int i = 0; i < 950; ++i) list.push_back({1, 100});
  const TaskSet tasks(list);
  const Platform platform = Platform::identical(16);
  for (const AdmissionKind kind : kKinds) {
    EXPECT_FALSE(largest_task_bound_accepts(tasks, platform, kind, 1.0))
        << to_string(kind);
    const TreeProbe p = expect_agree(tasks, platform, kind, 1.0, "groups");
    EXPECT_TRUE(p.verdict) << to_string(kind);
    EXPECT_FALSE(p.pass_ran) << to_string(kind);
  }
}

TEST(LoadBounds, OversizedTaskLeadsItsGroup) {
  // A task of 3/2 and 200 of 1/100 on 4 unit machines: below alpha = 3/2
  // the big task fits nowhere, though the rest of its group is small and
  // the platform holds the total twice over.  The certificate must be
  // taken at the group's first task, not its last.
  std::vector<Task> list{{3, 2}};
  for (int i = 0; i < 200; ++i) list.push_back({1, 100});
  const TaskSet tasks(list);
  const Platform platform = Platform::identical(4);
  for (const AdmissionKind kind : kKinds) {
    for (const double a : {1.0, 1.25, 1.4999, 1.5, 2.0}) {
      expect_agree(tasks, platform, kind, a, "oversized leader");
    }
    expect_agree_at_thresholds(tasks, platform, kind, 8.0,
                               "oversized leader");
  }
  EXPECT_FALSE(tree_probe(tasks, platform, AdmissionKind::kEdf, 1.0).verdict);
}

TEST(LoadBounds, GroupPrefixRunsToItsLastTask) {
  // 2G - 1 tasks of 3/10 on one unit machine: first fit needs alpha at
  // least their sum, 38.1.  A group's prefix summed only up to its first
  // task would leave out the 63 tasks before its last and accept near 19.5.
  const TaskSet tasks(
      std::vector<Task>(2 * kLoadBoundGroup - 1, Task{3, 10}));
  const Platform platform = Platform::identical(1);
  for (const AdmissionKind kind : kKinds) {
    for (const double a : {19.5, 20.0, 30.0, 38.0, 38.1, 40.0, 64.0}) {
      expect_agree(tasks, platform, kind, a, "one machine, two groups");
    }
    expect_agree_at_thresholds(tasks, platform, kind, 64.0,
                               "one machine, two groups");
  }
}

TEST(LoadBounds, RmsLiuLaylandRejectCountsTasksPerMachine) {
  // 100 tasks of 0.008 on one unit machine: RMS-LL needs
  // 0.8 <= LL(100) alpha, alpha >= 1.1502.  The machine holds at least
  // ceil(ln 2 alpha / 0.008) tasks before its limit nears ln 2, so the
  // count-aware reject holds to within delta of that; the plain capacity
  // bound rejects only below alpha = 0.8.
  const TaskSet tasks(std::vector<Task>(100, Task{1, 125}));
  const Platform platform = Platform::identical(1);
  const auto rejected_by_bound = [&](double a) {
    const TreeProbe p =
        tree_probe(tasks, platform, AdmissionKind::kRmsLiuLayland, a);
    return !p.pass_ran && !p.verdict;
  };
  ASSERT_TRUE(rejected_by_bound(1.0));
  const double threshold = boundary(1.0, 2.0, rejected_by_bound);
  EXPECT_GT(threshold, 1.15);
  expect_agree_around(tasks, platform, AdmissionKind::kRmsLiuLayland,
                      threshold, "count-aware reject threshold");
  expect_agree_around(tasks, platform, AdmissionKind::kRmsLiuLayland,
                      std::nextafter(threshold, 2.0),
                      "count-aware reject threshold");
  EXPECT_FALSE(
      tree_probe(tasks, platform, AdmissionKind::kRmsLiuLayland, 1.15)
          .verdict);
  EXPECT_TRUE(
      tree_probe(tasks, platform, AdmissionKind::kRmsLiuLayland, 1.1503)
          .verdict);
  for (const AdmissionKind kind : kKinds) {
    expect_agree_at_thresholds(tasks, platform, kind, 8.0, "0.008 x 100");
  }
}

TEST(LoadBounds, HyperbolicMachinesHoldMoreThanLiuLaylandCounts) {
  // RMS-HB admits {0.99, 0.001} (1.99 * 1.001 <= 2) and {0.6, 0.24}
  // (1.6 * 1.24 <= 2) on a unit machine: two tasks each, loads 0.991 and
  // 0.84, both over LL(2) = 0.828, and the second with
  // ceil(ln 2 / 0.6) = 2.  RMS-HB's own count-aware reject leaves them
  // room: h(0.99) = 0.995 and h(0.6) = 0.85.
  const TaskSet witnesses[] = {TaskSet({{99, 100}, {1, 1000}}),
                               TaskSet({{3, 5}, {6, 25}})};
  const Platform platform = Platform::identical(1);
  for (const TaskSet& tasks : witnesses) {
    EXPECT_GT(tasks.total_utilization(), rms_liu_layland_bound(2));
    const TreeProbe hb = expect_agree(
        tasks, platform, AdmissionKind::kRmsHyperbolic, 1.0, "HB witness");
    EXPECT_TRUE(hb.verdict);
    EXPECT_FALSE(expect_agree(tasks, platform, AdmissionKind::kRmsLiuLayland,
                              1.0, "HB witness")
                     .verdict);
  }
}

TEST(LoadBounds, RmsHyperbolicRejectCountsTasksPerMachine) {
  // On a unit machine RMS-HB first admits {0.35, 0.35, 0.15} at
  // alpha = 1.0770623 and {0.6, 0.3} at 1.0684658.  Each is k tasks at
  // w_max plus one remainder (k = 2 and 1), the load that
  // h(a) = k a + 2/(1 + a)^k - 1 at a = w_max / alpha bounds, so the
  // reject W > (1 + delta) h(a) alpha holds to within delta of it.  With
  // k + 1 tasks at w_max, h alpha would exceed W = 0.85 and 0.9 already at
  // alpha = 1.
  struct Case {
    TaskSet tasks;
    double alpha;  // RMS-HB's first accepting alpha, to 1e-7
  };
  const Case cases[] = {{TaskSet({{7, 20}, {7, 20}, {3, 20}}), 1.0770623},
                        {TaskSet({{3, 5}, {3, 10}}), 1.0684658}};
  const Platform platform = Platform::identical(1);
  const AdmissionKind kind = AdmissionKind::kRmsHyperbolic;
  for (const Case& c : cases) {
    const auto rejected_by_bound = [&](double a) {
      const TreeProbe p = tree_probe(c.tasks, platform, kind, a);
      return !p.pass_ran && !p.verdict;
    };
    ASSERT_TRUE(rejected_by_bound(1.0)) << c.alpha;
    const double threshold = boundary(1.0, 2.0, rejected_by_bound);
    EXPECT_GT(threshold, c.alpha - 1e-6);
    expect_agree_around(c.tasks, platform, kind, threshold,
                        "hyperbolic count-aware reject threshold");
    expect_agree_around(c.tasks, platform, kind,
                        std::nextafter(threshold, 2.0),
                        "hyperbolic count-aware reject threshold");
    EXPECT_FALSE(tree_probe(c.tasks, platform, kind, c.alpha - 1e-6).verdict);
    EXPECT_TRUE(tree_probe(c.tasks, platform, kind, c.alpha + 1e-6).verdict);
  }
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
