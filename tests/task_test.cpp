// Unit tests for the task model (core/task.h).
#include "core/task.h"

#include <gtest/gtest.h>

#include <vector>

#include "task_literals.h"

namespace hetsched {
namespace {

TEST(Task, UtilizationDoubleAndExactAgree) {
  const Task t{3, 12};
  EXPECT_DOUBLE_EQ(t.utilization(), 0.25);
  EXPECT_EQ(t.utilization_exact(), Rational(1, 4));
}

TEST(Task, ValidityChecks) {
  EXPECT_TRUE((Task{1, 1}).valid());
  EXPECT_FALSE((Task{0, 5}).valid());
  EXPECT_FALSE((Task{5, 0}).valid());
  EXPECT_FALSE((Task{-1, 5}).valid());
}

TEST(Task, ConstrainedDeadlineValidity) {
  EXPECT_TRUE(cdp(1, 2, 4).valid());
  EXPECT_TRUE(cdp(1, 4, 4).valid());   // d == p
  EXPECT_FALSE(cdp(1, 5, 4).valid());  // d > p
  EXPECT_FALSE(cdp(0, 2, 4).valid());
  EXPECT_FALSE(cdp(1, -1, 4).valid());
  EXPECT_TRUE(cdp(1, 0, 4).valid());  // 0 = implicit
}

TEST(Task, DensityAndUtilization) {
  const Task t = cdp(2, 4, 8);
  EXPECT_DOUBLE_EQ(t.utilization(), 0.25);
  EXPECT_DOUBLE_EQ(t.density(), 0.5);
  EXPECT_EQ(t.utilization_exact(), Rational(1, 4));
  EXPECT_EQ(t.density_exact(), Rational(1, 2));
}

TEST(Task, ImplicitDeadlineIsThePeriod) {
  const Task t{3, 7};
  EXPECT_EQ(t.effective_deadline(), 7);
  EXPECT_TRUE(t.implicit_deadline());
  EXPECT_TRUE(cdp(3, 7, 7).implicit_deadline());
  EXPECT_FALSE(cdp(3, 5, 7).implicit_deadline());
  // Density equals utilization bit for bit when d == p.
  EXPECT_EQ(t.density(), t.utilization());
}

TEST(TaskSet, TotalUtilization) {
  const TaskSet ts({{1, 4}, {1, 2}, {1, 4}});
  EXPECT_DOUBLE_EQ(ts.total_utilization(), 1.0);
  EXPECT_EQ(ts.total_utilization_exact(), Rational(1));
}

TEST(TaskSet, MaxUtilization) {
  const TaskSet ts({{1, 10}, {3, 4}, {1, 2}});
  EXPECT_DOUBLE_EQ(ts.max_utilization(), 0.75);
}

TEST(TaskSet, EmptySet) {
  const TaskSet ts;
  EXPECT_TRUE(ts.empty());
  EXPECT_DOUBLE_EQ(ts.total_utilization(), 0.0);
  EXPECT_DOUBLE_EQ(ts.max_utilization(), 0.0);
  EXPECT_TRUE(ts.order_by_utilization_desc().empty());
}

TEST(TaskSet, OrderByUtilizationDescending) {
  const TaskSet ts({{1, 10}, {1, 2}, {1, 4}});  // w = .1, .5, .25
  const auto order = ts.order_by_utilization_desc();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 0u);
}

TEST(TaskSet, OrderBreaksTiesByIndex) {
  // Equal utilizations expressed with different integers: 2/4 == 1/2.
  const TaskSet ts({{2, 4}, {1, 2}, {3, 6}});
  const auto order = ts.order_by_utilization_desc();
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(TaskSet, OrderIsExactNotFloating) {
  // (10^9+1)/(3*10^9+3) > 10^9/(3*10^9+2)? Left = 1/3 exactly; right is
  // slightly less.  Doubles cannot distinguish; exact comparison must.
  const TaskSet ts({{1'000'000'000, 3'000'000'002},
                    {1'000'000'001, 3'000'000'003}});
  const auto order = ts.order_by_utilization_desc();
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 0u);
}

TEST(TaskSet, PushBackAccumulates) {
  TaskSet ts;
  ts.push_back({1, 2});
  ts.push_back({1, 4});
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts.total_utilization(), 0.75);
}

TEST(TaskSet, IterationAndIndexing) {
  const TaskSet ts({{1, 2}, {3, 4}});
  EXPECT_EQ(ts[1].exec, 3);
  std::size_t count = 0;
  for (const Task& t : ts) {
    EXPECT_TRUE(t.valid());
    ++count;
  }
  EXPECT_EQ(count, 2u);
}

TEST(TaskSet, ToStringMentionsSizeAndTasks) {
  const TaskSet ts({{1, 2}});
  const std::string s = ts.to_string();
  EXPECT_NE(s.find("n=1"), std::string::npos);
  EXPECT_NE(s.find("(1,2)"), std::string::npos);
}

TEST(TaskSetDeathTest, InvalidTaskAborts) {
  EXPECT_DEATH(TaskSet({{0, 1}}), "non-positive");
  TaskSet ts;
  EXPECT_DEATH(ts.push_back({1, -1}), "non-positive");
}

}  // namespace
}  // namespace hetsched
