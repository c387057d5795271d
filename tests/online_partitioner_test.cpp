// Unit tests for the stateful admission controller: placement, departure,
// id staleness, rebalancing (success, no-op, and the canonical-repack
// failure case), and snapshot/restore what-if probing.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "online/online_partitioner.h"
#include "partition/first_fit.h"

namespace hetsched {
namespace {

Platform two_unit_machines() { return Platform::identical(2); }

TEST(OnlinePartitioner, AdmitPlacesFirstFit) {
  OnlinePartitioner c(two_unit_machines(), AdmissionKind::kEdf, 1.0);
  // EDF on a unit machine admits while util_sum <= 1.
  const AdmitDecision a = c.admit({6, 10});  // w = 0.6
  ASSERT_TRUE(a.admitted);
  EXPECT_EQ(a.machine, 0u);
  EXPECT_DOUBLE_EQ(a.utilization, 0.6);

  const AdmitDecision b = c.admit({5, 10});  // w = 0.5: 1.1 > 1, spills
  ASSERT_TRUE(b.admitted);
  EXPECT_EQ(b.machine, 1u);

  const AdmitDecision d = c.admit({4, 10});  // w = 0.4 fits back on 0
  ASSERT_TRUE(d.admitted);
  EXPECT_EQ(d.machine, 0u);

  EXPECT_EQ(c.resident_count(), 3u);
  EXPECT_DOUBLE_EQ(c.machine_utilization(0), 1.0);
  EXPECT_DOUBLE_EQ(c.machine_utilization(1), 0.5);
  EXPECT_DOUBLE_EQ(c.total_utilization(), 1.5);
}

TEST(OnlinePartitioner, RejectLeavesStateUntouched) {
  OnlinePartitioner c(Platform::identical(1), AdmissionKind::kEdf, 1.0);
  ASSERT_TRUE(c.admit({7, 10}).admitted);
  const AdmitDecision d = c.admit({5, 10});
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.id, kInvalidOnlineTaskId);
  EXPECT_DOUBLE_EQ(d.utilization, 0.5);
  EXPECT_EQ(c.resident_count(), 1u);
  EXPECT_DOUBLE_EQ(c.machine_utilization(0), 0.7);
}

TEST(OnlinePartitioner, DepartReleasesSlack) {
  OnlinePartitioner c(Platform::identical(1), AdmissionKind::kEdf, 1.0);
  const AdmitDecision a = c.admit({7, 10});
  ASSERT_TRUE(a.admitted);
  EXPECT_FALSE(c.admit({5, 10}).admitted);

  ASSERT_TRUE(c.depart(a.id));
  EXPECT_EQ(c.resident_count(), 0u);
  EXPECT_DOUBLE_EQ(c.machine_utilization(0), 0.0);
  EXPECT_TRUE(c.admit({5, 10}).admitted);
}

TEST(OnlinePartitioner, StaleAndBogusIdsAreRejected) {
  OnlinePartitioner c(two_unit_machines(), AdmissionKind::kEdf, 1.0);
  const AdmitDecision a = c.admit({1, 10});
  ASSERT_TRUE(a.admitted);
  ASSERT_TRUE(c.depart(a.id));
  EXPECT_FALSE(c.depart(a.id));  // double depart
  EXPECT_FALSE(c.depart(kInvalidOnlineTaskId));
  EXPECT_FALSE(c.depart(12345));  // never-issued slot

  // The freed slot is reused by the next admit under a new generation, and
  // the old id still does not resolve to it.
  const AdmitDecision b = c.admit({2, 10});
  ASSERT_TRUE(b.admitted);
  EXPECT_NE(a.id, b.id);
  EXPECT_FALSE(c.machine_of(a.id).has_value());
  EXPECT_TRUE(c.machine_of(b.id).has_value());
}

TEST(OnlinePartitioner, ObserversTrackResidents) {
  OnlinePartitioner c(two_unit_machines(), AdmissionKind::kEdf, 1.0);
  const AdmitDecision a = c.admit({6, 10});
  const AdmitDecision b = c.admit({5, 10});
  ASSERT_TRUE(a.admitted && b.admitted);
  EXPECT_EQ(c.machine_of(a.id), std::optional<std::size_t>(0));
  EXPECT_EQ(c.machine_of(b.id), std::optional<std::size_t>(1));
  const auto ta = c.task_of(a.id);
  ASSERT_TRUE(ta.has_value());
  EXPECT_EQ(ta->exec, 6);
  EXPECT_EQ(ta->period, 10);
  EXPECT_EQ(c.machine_task_count(0), 1u);
  const std::vector<Task> on0 = c.machine_tasks(0);
  ASSERT_EQ(on0.size(), 1u);
  EXPECT_EQ(on0[0].exec, 6);
}

TEST(OnlinePartitioner, RebalanceRepacksAfterDepartures) {
  // Fill machine 0 with small tasks, spill a large one to machine 1, then
  // depart the small ones: the canonical repack pulls the large task back
  // to machine 0 (first fit in utilization-descending order).
  OnlinePartitioner c(two_unit_machines(), AdmissionKind::kEdf, 1.0);
  const AdmitDecision s1 = c.admit({4, 10});
  const AdmitDecision s2 = c.admit({4, 10});
  const AdmitDecision big = c.admit({8, 10});
  ASSERT_TRUE(s1.admitted && s2.admitted && big.admitted);
  ASSERT_EQ(big.machine, 1u);
  ASSERT_TRUE(c.depart(s1.id));
  ASSERT_TRUE(c.depart(s2.id));

  const RebalanceReport r = c.rebalance();
  EXPECT_TRUE(r.applied);
  EXPECT_EQ(r.resident, 1u);
  EXPECT_EQ(r.migrations, 1u);
  EXPECT_EQ(c.machine_of(big.id), std::optional<std::size_t>(0));
  EXPECT_DOUBLE_EQ(c.machine_utilization(0), 0.8);
  EXPECT_DOUBLE_EQ(c.machine_utilization(1), 0.0);
}

TEST(OnlinePartitioner, RebalanceNoOpWhenAlreadyCanonical) {
  OnlinePartitioner c(two_unit_machines(), AdmissionKind::kEdf, 1.0);
  ASSERT_TRUE(c.admit({6, 10}).admitted);
  ASSERT_TRUE(c.admit({5, 10}).admitted);
  const RebalanceReport r = c.rebalance();
  EXPECT_TRUE(r.applied);
  EXPECT_EQ(r.resident, 2u);
  EXPECT_EQ(r.migrations, 0u);
}

TEST(OnlinePartitioner, RebalanceFailureLeavesStateIntact) {
  // Online admission reaches {0.4,0.3,0.3} + {0.4,0.3,0.3} on two unit
  // machines, but first fit in canonical order (0.4 0.4 0.3 0.3 0.3 0.3)
  // packs 0.8 + 0.9 and strands the last 0.3 — the classic FFD miss.  The
  // rebalance must report applied=false and change nothing.
  OnlinePartitioner c(two_unit_machines(), AdmissionKind::kEdf, 1.0);
  std::vector<AdmitDecision> d;
  for (const Task& t : std::vector<Task>{
           {4, 10}, {3, 10}, {3, 10}, {4, 10}, {3, 10}, {3, 10}}) {
    d.push_back(c.admit(t));
    ASSERT_TRUE(d.back().admitted);
  }
  ASSERT_EQ(c.machine_task_count(0), 3u);
  ASSERT_EQ(c.machine_task_count(1), 3u);

  const RebalanceReport r = c.rebalance();
  EXPECT_FALSE(r.applied);
  EXPECT_EQ(r.resident, 6u);
  EXPECT_EQ(r.migrations, 0u);
  // State is untouched: same placements, same loads, ids still live.
  EXPECT_DOUBLE_EQ(c.machine_utilization(0), 1.0);
  EXPECT_DOUBLE_EQ(c.machine_utilization(1), 1.0);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(c.machine_of(d[i].id), std::optional<std::size_t>(i < 3 ? 0 : 1));
  }
}

TEST(OnlinePartitioner, SnapshotRestoreWhatIf) {
  OnlinePartitioner c(two_unit_machines(), AdmissionKind::kEdf, 1.0);
  const AdmitDecision a = c.admit({6, 10});
  ASSERT_TRUE(a.admitted);

  const auto snap = c.snapshot();
  // What-if: admit a batch, then roll back.
  ASSERT_TRUE(c.admit({9, 10}).admitted);  // 0.9 spills to machine 1
  const AdmitDecision probe = c.admit({3, 10});
  ASSERT_TRUE(probe.admitted);
  ASSERT_TRUE(c.depart(a.id));
  c.restore(snap);

  EXPECT_EQ(c.resident_count(), 1u);
  EXPECT_DOUBLE_EQ(c.machine_utilization(0), 0.6);
  EXPECT_DOUBLE_EQ(c.machine_utilization(1), 0.0);
  EXPECT_EQ(c.machine_of(a.id), std::optional<std::size_t>(0));
  EXPECT_FALSE(c.machine_of(probe.id).has_value());
  // The controller keeps working after a restore (tree rebuilt).
  EXPECT_TRUE(c.admit({9, 10}).admitted);
}

TEST(OnlinePartitioner, RtaKindRoundTrips) {
  // kRmsResponseTime has no slack form; the controller must still admit,
  // depart, and rebalance, deciding every admit in its RTA escalation.
  OnlinePartitioner c(two_unit_machines(), AdmissionKind::kRmsResponseTime,
                      1.0);
  const AdmitDecision a = c.admit({5, 10});
  const AdmitDecision b = c.admit({5, 10});
  const AdmitDecision x = c.admit({4, 12});
  ASSERT_TRUE(a.admitted && b.admitted && x.admitted);
  ASSERT_TRUE(c.depart(a.id));
  EXPECT_TRUE(c.rebalance().applied);
  // The controller's verdicts still match the batch wrapper on the
  // remaining residents (same code path via first_fit_partition).
  std::vector<Task> rest;
  for (std::size_t j = 0; j < c.machine_count(); ++j) {
    for (const Task& t : c.machine_tasks(j)) rest.push_back(t);
  }
  EXPECT_TRUE(first_fit_accepts(TaskSet(rest), c.platform(),
                                AdmissionKind::kRmsResponseTime, 1.0));
}

TEST(OnlinePartitioner, ToStringMentionsKindAndResidents) {
  OnlinePartitioner c(two_unit_machines(), AdmissionKind::kEdf, 2.0);
  ASSERT_TRUE(c.admit({5, 10}).admitted);
  const std::string s = c.to_string();
  EXPECT_NE(s.find("EDF"), std::string::npos);
  EXPECT_NE(s.find("resident=1"), std::string::npos);
}

}  // namespace
}  // namespace hetsched
