// Randomized property test: the segment-tree engine is bit-identical to the
// naive machine scan, across every admission kind, accept and reject cases
// alike.  This is the contract that lets every experiment run on the fast
// path while the naive scan stays the auditable reference implementation of
// the paper's algorithm.
//
// Small instances cover many platform shapes.  Large ones (n in the
// thousands, m up to 128, log-uniform periods 10-1000) repeat utilizations
// in long runs, so the batch tree engine's machine cursor stays on one
// machine for many placements, and mixed machine speeds make it move left
// as well as right.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gen/platform_gen.h"
#include "gen/taskset_gen.h"
#include "partition/first_fit.h"
#include "util/rng.h"

namespace hetsched {
namespace {

// EXPECT with exact (bitwise) double equality: the engines must compute the
// very same values, not merely close ones.
void expect_identical(const PartitionResult& a, const PartitionResult& b) {
  ASSERT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.alpha, b.alpha);
  ASSERT_EQ(a.assignment.size(), b.assignment.size());
  for (std::size_t i = 0; i < a.assignment.size(); ++i) {
    EXPECT_EQ(a.assignment[i], b.assignment[i]) << "task " << i;
  }
  ASSERT_EQ(a.machine_utilization.size(), b.machine_utilization.size());
  for (std::size_t j = 0; j < a.machine_utilization.size(); ++j) {
    EXPECT_EQ(a.machine_utilization[j], b.machine_utilization[j])
        << "machine " << j;
  }
  ASSERT_EQ(a.tasks_per_machine.size(), b.tasks_per_machine.size());
  for (std::size_t j = 0; j < a.tasks_per_machine.size(); ++j) {
    ASSERT_EQ(a.tasks_per_machine[j].size(), b.tasks_per_machine[j].size())
        << "machine " << j;
    for (std::size_t k = 0; k < a.tasks_per_machine[j].size(); ++k) {
      EXPECT_EQ(a.tasks_per_machine[j][k].exec, b.tasks_per_machine[j][k].exec);
      EXPECT_EQ(a.tasks_per_machine[j][k].period,
                b.tasks_per_machine[j][k].period);
    }
  }
  EXPECT_EQ(a.failed_task, b.failed_task);
  EXPECT_EQ(a.failed_utilization, b.failed_utilization);
}

Platform random_platform(Rng& rng, bool large = false) {
  if (large) {
    // Total speed m, as for identical unit machines.
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(16, 128));
    switch (rng.uniform_int(0, 2)) {
      case 0:
        return Platform::identical(m);
      case 1:
        return geometric_platform(m, rng.uniform(1.01, 1.07),
                                  static_cast<double>(m));
      default:
        return big_little_platform(m - m / 4, m / 4, 1.0,
                                   rng.uniform(1.5, 4.0));
    }
  }
  const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 12));
  switch (rng.uniform_int(0, 2)) {
    case 0:
      return Platform::identical(m);
    case 1:
      return geometric_platform(m, rng.uniform(1.0, 2.5));
    default:
      return big_little_platform((m + 1) / 2, m / 2 + 1, 1.0,
                                 rng.uniform(1.5, 4.0));
  }
}

TaskSet random_taskset(Rng& rng, const Platform& platform, bool bounded_periods,
                       bool large = false) {
  TasksetSpec spec;
  spec.n = static_cast<std::size_t>(large ? rng.uniform_int(1000, 4096)
                                          : rng.uniform_int(1, 40));
  spec.max_task_utilization = platform.max_speed();
  // Normalized load 0.4..1.15: straddles the acceptance boundary so the
  // sample contains plenty of rejections (the branchier engine path).
  const double norm = rng.uniform(0.4, 1.15);
  spec.total_utilization =
      std::min(norm * platform.total_speed(),
               0.35 * static_cast<double>(spec.n) * spec.max_task_utilization);
  spec.periods = bounded_periods ? PeriodSpec::uniform(10, 200)
                                 : PeriodSpec::log_uniform(10, 1000);
  return generate_taskset(rng, spec);
}

TEST(EngineEquivalence, SlackFormKindsBitIdenticalOverRandomInstances) {
  const AdmissionKind kinds[] = {AdmissionKind::kEdf,
                                 AdmissionKind::kRmsLiuLayland,
                                 AdmissionKind::kRmsHyperbolic};
  const double alphas[] = {1.0, 1.3, 2.0, 2.98};
  Rng rng(0x5EED5EED);
  int rejects = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const bool large = iter % 10 == 9;
    const Platform platform = random_platform(rng, large);
    const TaskSet tasks = random_taskset(rng, platform, false, large);
    const AdmissionKind kind = kinds[iter % 3];
    const double alpha = alphas[iter % 4];

    const PartitionResult naive = first_fit_partition(
        tasks, platform, kind, alpha, PartitionEngine::kNaive);
    const PartitionResult tree = first_fit_partition(
        tasks, platform, kind, alpha, PartitionEngine::kSegmentTree);
    expect_identical(naive, tree);
    if (!naive.feasible) ++rejects;

    // The decision-only accept path must agree with both full partitions.
    PartitionScratch scratch;
    EXPECT_EQ(first_fit_accepts(tasks, platform, kind, alpha, scratch,
                                PartitionEngine::kSegmentTree),
              naive.feasible);
    EXPECT_EQ(first_fit_accepts(tasks, platform, kind, alpha, scratch,
                                PartitionEngine::kNaive),
              naive.feasible);
  }
  // The sample must actually exercise the reject path.
  EXPECT_GT(rejects, 30);
}

TEST(EngineEquivalence, ScratchReuseAcrossHeterogeneousCallsIsSafe) {
  // One scratch, many different (platform, kind, alpha) shapes in a row:
  // stale buffer contents from a previous call must never leak into the
  // next verdict.
  Rng rng(0xAB12);
  PartitionScratch scratch;
  for (int iter = 0; iter < 120; ++iter) {
    const Platform platform = random_platform(rng);
    const TaskSet tasks = random_taskset(rng, platform, false);
    const AdmissionKind kind = iter % 2 == 0 ? AdmissionKind::kEdf
                                             : AdmissionKind::kRmsHyperbolic;
    const double alpha = 1.0 + 0.5 * (iter % 3);
    const bool fresh =
        first_fit_accepts(tasks, platform, kind, alpha);  // own scratch
    const bool reused =
        first_fit_accepts(tasks, platform, kind, alpha, scratch);
    EXPECT_EQ(fresh, reused);
  }
}

TEST(EngineEquivalence, ResponseTimeKindMatchesThroughFallback) {
  // kRmsResponseTime has no slack form; requesting the tree engine must
  // transparently produce the naive engine's exact result.
  Rng rng(0x52A);
  for (int iter = 0; iter < 40; ++iter) {
    const Platform platform = random_platform(rng);
    const TaskSet tasks = random_taskset(rng, platform, true);
    const double alpha = iter % 2 == 0 ? 1.0 : 2.0;
    const PartitionResult naive =
        first_fit_partition(tasks, platform, AdmissionKind::kRmsResponseTime,
                            alpha, PartitionEngine::kNaive);
    const PartitionResult tree =
        first_fit_partition(tasks, platform, AdmissionKind::kRmsResponseTime,
                            alpha, PartitionEngine::kSegmentTree);
    expect_identical(naive, tree);
    PartitionScratch scratch;
    EXPECT_EQ(first_fit_accepts(tasks, platform,
                                AdmissionKind::kRmsResponseTime, alpha,
                                scratch),
              naive.feasible);
  }
}

TEST(EngineEquivalence, MinFeasibleAlphaAgreesAcrossEnginesAndScratch) {
  const AdmissionKind kinds[] = {AdmissionKind::kEdf,
                                 AdmissionKind::kRmsLiuLayland,
                                 AdmissionKind::kRmsHyperbolic};
  constexpr double kTol = 1e-6;
  Rng rng(0xA1FA);
  PartitionScratch scratch;
  int large_searched = 0;
  int below_rejects = 0;
  for (int iter = 0; iter < 72; ++iter) {
    const bool large = iter % 4 == 3;
    const Platform platform = random_platform(rng, large);
    const TaskSet tasks = random_taskset(rng, platform, false, large);
    const AdmissionKind kind = kinds[iter % 3];
    const auto plain = min_feasible_alpha(tasks, platform, kind, 8.0);
    const auto via_naive = min_feasible_alpha(tasks, platform, kind, 8.0,
                                              scratch, PartitionEngine::kNaive);
    const auto via_tree = min_feasible_alpha(
        tasks, platform, kind, 8.0, scratch, PartitionEngine::kSegmentTree);
    ASSERT_EQ(plain.has_value(), via_tree.has_value());
    ASSERT_EQ(via_naive.has_value(), via_tree.has_value());
    if (!plain) continue;
    // Bit for bit: the engines must bisect through the same verdicts.
    EXPECT_EQ(*plain, *via_tree);
    EXPECT_EQ(*via_naive, *via_tree);
    if (!large) continue;
    // Both sides of the acceptance boundary: the alpha found, and just
    // below it, where the bisection saw a reject.  Each engine, and the
    // controller path, must give the same verdict there.
    ++large_searched;
    const double below = std::max(1.0, *via_tree - 2 * kTol);
    for (const double alpha : {*via_tree, below}) {
      const bool naive = first_fit_accepts(tasks, platform, kind, alpha,
                                           scratch, PartitionEngine::kNaive);
      const bool tree = first_fit_accepts(
          tasks, platform, kind, alpha, scratch, PartitionEngine::kSegmentTree);
      EXPECT_EQ(naive, tree) << "alpha " << alpha;
      EXPECT_EQ(first_fit_partition(tasks, platform, kind, alpha).feasible,
                tree)
          << "alpha " << alpha;
      if (alpha < *via_tree && !tree) ++below_rejects;
    }
  }
  // The large sample must reach the bisection and its reject side.
  EXPECT_GT(large_searched, 10);
  EXPECT_GT(below_rejects, 5);
}

}  // namespace
}  // namespace hetsched
