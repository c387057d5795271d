// Cross-cutting edge-case tests gathered from review of the public API:
// rarely-hit branches that the per-module suites do not reach.
#include <gtest/gtest.h>

#include "hetsched/hetsched.h"
#include "task_literals.h"

namespace hetsched {
namespace {

// -------------------------------------------------------------- io corners

TEST(Edge, IoDecimalWithoutWholePart) {
  const auto r = parse_instance_string("platform .5 2\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value->platform.speed_exact(0), Rational(1, 2));
}

TEST(Edge, IoOverlongDecimalRejected) {
  // More than 12 fractional digits would overflow the exact conversion.
  EXPECT_FALSE(parse_instance_string("platform 1.1234567890123\n").ok());
}

TEST(Edge, IoWhitespaceOnlyFile) {
  EXPECT_FALSE(parse_instance_string("\n   \n\t\n").ok());  // no platform
}

// ----------------------------------------------------- exact search corners

TEST(Edge, ExactPartitionWithHyperbolicAdmission) {
  // The skewed set the hyperbolic bound accepts on one machine but LL does
  // not: exact search must mirror the admission semantics.
  const TaskSet tasks({{6, 10}, {1, 10}, {1, 10}});
  const Platform one = Platform::from_speeds({1.0});
  EXPECT_EQ(
      exact_partition(tasks, one, AdmissionKind::kRmsHyperbolic).verdict,
      ExactVerdict::kFeasible);
  EXPECT_EQ(
      exact_partition(tasks, one, AdmissionKind::kRmsLiuLayland).verdict,
      ExactVerdict::kInfeasible);
}

TEST(Edge, ExactSingleMachineReducesToAdmission) {
  const TaskSet tasks({{1, 2}, {1, 4}, {1, 8}});
  const Platform one = Platform::from_speeds({1.0});
  EXPECT_EQ(
      exact_partition(tasks, one, AdmissionKind::kRmsResponseTime).verdict,
      ExactVerdict::kFeasible);  // the harmonic U=0.875 set
}

// ------------------------------------------------------------- sim corners

TEST(Edge, TraceGlyphsBeyondTen) {
  // 11 single-shot tasks: glyphs roll into letters ('a' = task 10).
  std::vector<Task> tasks;
  for (int i = 0; i < 11; ++i) tasks.push_back(Task{1, 20});
  SimLimits limits;
  limits.record_trace = true;
  const SimOutcome out =
      simulate_uniproc(tasks, Rational(1), SchedPolicy::kEdf, limits);
  ASSERT_TRUE(out.schedulable);
  const std::string text = render_trace(out, tasks.size());
  EXPECT_NE(text.find('a'), std::string::npos);
}

TEST(Edge, PartitionSimWithEmptyMachine) {
  const std::vector<std::vector<Task>> per_machine{{}, {{1, 2}}};
  const std::vector<Rational> speeds{Rational(1), Rational(1)};
  const PartitionSimOutcome out =
      simulate_partition(per_machine, speeds, SchedPolicy::kEdf);
  EXPECT_TRUE(out.schedulable);
  EXPECT_EQ(out.per_machine[0].jobs_released, 0);
}

// --------------------------------------------------------- stats corners

TEST(Edge, PercentileSingleElement) {
  const std::vector<double> xs{42.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 37.0), 42.0);
}

TEST(Edge, HistogramDegenerateMass) {
  Histogram h(0.0, 1.0, 4);
  for (int i = 0; i < 100; ++i) h.add(0.999999);
  EXPECT_EQ(h.bin_count(3), 100u);
}

// ------------------------------------------------------ partition corners

TEST(Edge, FirstFitSingleMachineEqualsAdmission) {
  // With one machine the partitioner is exactly the admission test.
  const TaskSet tasks({{1, 2}, {1, 3}});
  const Platform one = Platform::from_speeds({1.0});
  EXPECT_TRUE(first_fit_accepts(tasks, one, AdmissionKind::kEdf, 1.0));
  EXPECT_FALSE(
      first_fit_accepts(tasks, one, AdmissionKind::kRmsLiuLayland, 1.0));
  // 5/6 > 2(sqrt2-1) ~ 0.828 rejected by LL, accepted by exact RTA
  // (R2 = 1 + ceil(R/2) -> 3 <= 3).
  EXPECT_TRUE(
      first_fit_accepts(tasks, one, AdmissionKind::kRmsResponseTime, 1.0));
}

TEST(Edge, MinFeasibleAlphaHonorsTolerance) {
  const TaskSet tasks({{1, 1}, {1, 1}, {1, 1}});
  const Platform platform = Platform::from_speeds({1.0, 1.0});
  const auto coarse =
      min_feasible_alpha(tasks, platform, AdmissionKind::kEdf, 4.0, 0.5);
  const auto fine =
      min_feasible_alpha(tasks, platform, AdmissionKind::kEdf, 4.0, 1e-8);
  ASSERT_TRUE(coarse && fine);
  EXPECT_NEAR(*fine, 2.0, 1e-6);
  EXPECT_GE(*coarse, *fine - 1e-9);  // both upper-bracket the boundary
  EXPECT_LE(*coarse, *fine + 0.5);
}

// ------------------------------------------------------- migrating corners

TEST(Edge, BvnIdleSlicesAreDropped) {
  // A lightly loaded instance: the decomposition must not emit all-idle
  // slices (total length well below 1).
  const TaskSet tasks({{1, 10}});
  const Platform platform = Platform::from_speeds({1.0, 1.0});
  const auto sched = build_migrating_schedule(tasks, platform);
  ASSERT_TRUE(sched.has_value());
  for (const MigratingSlice& s : sched->slices) {
    bool any = false;
    for (const std::size_t t : s.assignment) {
      any |= (t != MigratingSlice::kIdle);
    }
    EXPECT_TRUE(any);
  }
}

// ----------------------------------------------------------- dbf corners

TEST(Edge, DbfCoprimePeriodsDoNotOverflow) {
  // The regression that motivated the long-double utilization path:
  // eight pairwise-coprime-ish periods whose lcm exceeds int64.
  std::vector<Task> tasks;
  for (const std::int64_t p :
       {1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049}) {
    tasks.push_back(cdp(p / 20, p / 2, p));
  }
  EXPECT_TRUE(edf_dbf_feasible_qpa(tasks, Rational(1)));
  EXPECT_TRUE(edf_dbf_feasible_exact(tasks, Rational(1)));
  EXPECT_TRUE(edf_dbf_feasible_approx(tasks, Rational(1)));
}

}  // namespace
}  // namespace hetsched
