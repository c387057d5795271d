// Tests for the simulator's constrained-deadline, trace, and sporadic
// arrival extensions (sim/event_sim.h).
#include <gtest/gtest.h>

#include "sim/event_sim.h"
#include "task_literals.h"

namespace hetsched {
namespace {

TEST(ConstrainedSim, TightDeadlineMissesWherePeriodWouldNot) {
  // (3, d, 10): utilization 0.3, but with d = 2 the first job cannot finish.
  const std::vector<Task> ok{cdp(3, 3, 10)};
  const std::vector<Task> bad{cdp(3, 2, 10)};
  EXPECT_TRUE(
      simulate_uniproc(ok, Rational(1), SchedPolicy::kEdf).schedulable);
  const SimOutcome miss = simulate_uniproc(bad, Rational(1), SchedPolicy::kEdf);
  EXPECT_FALSE(miss.schedulable);
  ASSERT_TRUE(miss.miss.has_value());
  EXPECT_EQ(miss.miss->deadline, 2);
}

TEST(ConstrainedSim, EdfHandlesConstrainedInterleaving) {
  // tau1 = (2, 3, 6), tau2 = (2, 6, 6): EDF runs tau1 first (deadline 3),
  // then tau2 finishes at 4 <= 6.  Both repeat; schedulable.
  const std::vector<Task> tasks{cdp(2, 3, 6), cdp(2, 6, 6)};
  EXPECT_TRUE(
      simulate_uniproc(tasks, Rational(1), SchedPolicy::kEdf).schedulable);
}

TEST(ConstrainedSim, DeadlineMonotonicPriorityOrder) {
  // Same periods, different deadlines: the tight-deadline task must win
  // under fixed priorities.  tau1 = (3, 9, 10), tau2 = (2, 2, 10).
  // DM runs tau2 first: finishes at 2 == deadline.  RM-by-period would tie
  // and run tau1 first, making tau2 miss.
  const std::vector<Task> tasks{cdp(3, 9, 10), cdp(2, 2, 10)};
  EXPECT_TRUE(
      simulate_uniproc(tasks, Rational(1), SchedPolicy::kFixedPriorityRm)
          .schedulable);
}

TEST(ConstrainedSim, ImplicitEmbeddingMatchesTaskOverload) {
  const std::vector<Task> tasks{{1, 2}, {1, 3}, {1, 6}};  // U = 1 exactly
  const SimOutcome via_task =
      simulate_uniproc(tasks, Rational(1), SchedPolicy::kEdf);
  // The same tasks with the deadline spelled out as d == p.
  std::vector<Task> ct;
  for (const Task& t : tasks) ct.push_back(Task{t.exec, t.period, t.period});
  const SimOutcome via_constrained =
      simulate_uniproc(ct, Rational(1), SchedPolicy::kEdf);
  EXPECT_EQ(via_task.schedulable, via_constrained.schedulable);
  EXPECT_EQ(via_task.busy_time, via_constrained.busy_time);
  EXPECT_EQ(via_task.jobs_released, via_constrained.jobs_released);
}

TEST(Trace, RecordsSegmentsWhenAsked) {
  const std::vector<Task> tasks{{1, 4}, {6, 12}};
  SimLimits limits;
  limits.record_trace = true;
  const SimOutcome out =
      simulate_uniproc(tasks, Rational(1), SchedPolicy::kEdf, limits);
  ASSERT_TRUE(out.schedulable);
  ASSERT_FALSE(out.trace.empty());
  // Segments tile the busy time exactly.
  Rational covered(0);
  for (const TraceSegment& seg : out.trace) {
    EXPECT_LT(seg.start, seg.end);
    covered += seg.end - seg.start;
  }
  EXPECT_EQ(covered, out.busy_time);
  // Segments are chronologically ordered and non-overlapping.
  for (std::size_t k = 1; k < out.trace.size(); ++k) {
    EXPECT_LE(out.trace[k - 1].end, out.trace[k].start);
  }
}

TEST(Trace, OffByDefault) {
  const std::vector<Task> tasks{{1, 4}};
  const SimOutcome out =
      simulate_uniproc(tasks, Rational(1), SchedPolicy::kEdf);
  EXPECT_TRUE(out.trace.empty());
}

TEST(Trace, RenderContainsSegmentsAndGantt) {
  const std::vector<Task> tasks{{1, 4}, {6, 12}};
  SimLimits limits;
  limits.record_trace = true;
  const SimOutcome out =
      simulate_uniproc(tasks, Rational(1), SchedPolicy::kEdf, limits);
  const std::string text = render_trace(out, tasks.size());
  EXPECT_NE(text.find("task 0:"), std::string::npos);
  EXPECT_NE(text.find("task 1:"), std::string::npos);
  EXPECT_NE(text.find('|'), std::string::npos);  // gantt drawn (horizon 12)
  EXPECT_NE(text.find('0'), std::string::npos);
}

TEST(Trace, GanttSkippedForHugeHorizon) {
  const std::vector<Task> tasks{{1, 499}, {1, 997}};  // hyperperiod 497503
  SimLimits limits;
  limits.record_trace = true;
  const SimOutcome out =
      simulate_uniproc(tasks, Rational(1), SchedPolicy::kEdf, limits);
  const std::string text = render_trace(out, tasks.size());
  EXPECT_EQ(text.find('|'), std::string::npos);
}

TEST(Jitter, SporadicArrivalsAreDeterministicPerSeed) {
  const std::vector<Task> tasks{{2, 5}, {3, 7}};
  SimLimits limits;
  limits.horizon_override = 200;
  const ArrivalModel a = ArrivalModel::jittered(7);
  const SimOutcome o1 =
      simulate_uniproc(tasks, Rational(1), SchedPolicy::kEdf, limits, a);
  const SimOutcome o2 =
      simulate_uniproc(tasks, Rational(1), SchedPolicy::kEdf, limits, a);
  EXPECT_EQ(o1.jobs_released, o2.jobs_released);
  EXPECT_EQ(o1.busy_time, o2.busy_time);
}

TEST(Jitter, SporadicReleasesFewerJobsThanSynchronous) {
  const std::vector<Task> tasks{{1, 5}};
  SimLimits limits;
  limits.horizon_override = 1000;
  const SimOutcome sync =
      simulate_uniproc(tasks, Rational(1), SchedPolicy::kEdf, limits);
  const SimOutcome spor = simulate_uniproc(
      tasks, Rational(1), SchedPolicy::kEdf, limits,
      ArrivalModel::jittered(3, /*max_jitter=*/0.5));
  EXPECT_EQ(sync.jobs_released, 200);
  EXPECT_LT(spor.jobs_released, sync.jobs_released);
  EXPECT_GT(spor.jobs_released, 100);  // jitter caps at 50% extra spacing
}

TEST(Jitter, ZeroJitterEqualsSynchronousExceptPhasing) {
  // max_jitter = 0 draws no slack: identical to the synchronous pattern.
  const std::vector<Task> tasks{{2, 5}, {1, 3}};
  const SimOutcome sync =
      simulate_uniproc(tasks, Rational(1), SchedPolicy::kEdf);
  const SimOutcome zero = simulate_uniproc(
      tasks, Rational(1), SchedPolicy::kEdf, {},
      ArrivalModel::jittered(1, /*max_jitter=*/0.0));
  EXPECT_EQ(sync.jobs_released, zero.jobs_released);
  EXPECT_EQ(sync.busy_time, zero.busy_time);
  EXPECT_EQ(sync.schedulable, zero.schedulable);
}

}  // namespace
}  // namespace hetsched
