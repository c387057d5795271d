// Unit tests for per-machine admission (partition/admission.h).
#include "partition/admission.h"

#include <gtest/gtest.h>

#include "core/uniproc.h"

namespace hetsched {
namespace {

TEST(Admission, EdfAdmitsUpToCapacity) {
  MachineLoad load(AdmissionKind::kEdf, Rational(1), 2.0);  // capacity 2
  EXPECT_TRUE(load.can_admit({1, 1}));   // w = 1
  load.admit({1, 1});
  EXPECT_TRUE(load.can_admit({1, 1}));   // total would be 2 == capacity
  load.admit({1, 1});
  EXPECT_FALSE(load.can_admit({1, 100}));  // any extra load overflows
}

TEST(Admission, EdfCapacityIsAlphaTimesSpeed) {
  MachineLoad load(AdmissionKind::kEdf, Rational(1, 2), 3.0);
  EXPECT_DOUBLE_EQ(load.capacity(), 1.5);
  EXPECT_TRUE(load.can_admit({3, 2}));    // w = 1.5 fits exactly
  EXPECT_FALSE(load.can_admit({8, 5}));   // w = 1.6
}

TEST(Admission, RmsLlUsesCountAwareBound) {
  MachineLoad load(AdmissionKind::kRmsLiuLayland, Rational(1), 1.0);
  // One task of w = 0.9 passes (bound 1.0)...
  EXPECT_TRUE(load.can_admit({9, 10}));
  load.admit({9, 10});
  // ...but even a tiny second task fails: 0.9 + eps > 2(sqrt2-1) ~ 0.828.
  EXPECT_FALSE(load.can_admit({1, 100}));
}

TEST(Admission, RmsLlAdmitsWithinLn2ManyTasks) {
  MachineLoad load(AdmissionKind::kRmsLiuLayland, Rational(1), 1.0);
  // 6 tasks of w = 0.1: 0.6 <= LL(6) ~ 0.735.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(load.can_admit({1, 10})) << i;
    load.admit({1, 10});
  }
  EXPECT_EQ(load.task_count(), 6u);
  EXPECT_NEAR(load.utilization(), 0.6, 1e-12);
}

TEST(Admission, RmsHyperbolicAdmitsMoreThanLl) {
  // Skewed set accepted by hyperbolic but not LL (see uniproc tests).
  MachineLoad hb(AdmissionKind::kRmsHyperbolic, Rational(1), 1.0);
  MachineLoad ll(AdmissionKind::kRmsLiuLayland, Rational(1), 1.0);
  const Task big{6, 10}, small{1, 10};
  ASSERT_TRUE(hb.can_admit(big));
  hb.admit(big);
  ASSERT_TRUE(ll.can_admit(big));
  ll.admit(big);
  ASSERT_TRUE(hb.can_admit(small));
  hb.admit(small);
  ASSERT_TRUE(ll.can_admit(small));
  ll.admit(small);
  // Third task: hyperbolic 1.6*1.1*1.1 = 1.936 <= 2 passes; LL 0.8 > 0.78.
  EXPECT_TRUE(hb.can_admit(small));
  EXPECT_FALSE(ll.can_admit(small));
}

TEST(Admission, RtaIsExactOnHarmonicSet) {
  // (1,2),(1,4),(1,8): U = 0.875; LL rejects at the third task, exact RTA
  // accepts all three.
  MachineLoad rta(AdmissionKind::kRmsResponseTime, Rational(1), 1.0);
  MachineLoad ll(AdmissionKind::kRmsLiuLayland, Rational(1), 1.0);
  const Task t1{1, 2}, t2{1, 4}, t3{1, 8};
  ASSERT_TRUE(rta.can_admit(t1));
  rta.admit(t1);
  ASSERT_TRUE(rta.can_admit(t2));
  rta.admit(t2);
  EXPECT_TRUE(rta.can_admit(t3));

  ASSERT_TRUE(ll.can_admit(t1));
  ll.admit(t1);
  ASSERT_TRUE(ll.can_admit(t2));
  ll.admit(t2);
  EXPECT_FALSE(ll.can_admit(t3));
}

TEST(Admission, RtaRespectsAugmentedSpeed) {
  // (3,5),(3,7) needs speedup (see rta tests); alpha = 2 on speed 1.
  MachineLoad fast(AdmissionKind::kRmsResponseTime, Rational(1), 2.0);
  const Task t1{3, 5}, t2{3, 7};
  ASSERT_TRUE(fast.can_admit(t1));
  fast.admit(t1);
  EXPECT_TRUE(fast.can_admit(t2));

  MachineLoad slow(AdmissionKind::kRmsResponseTime, Rational(1), 1.0);
  ASSERT_TRUE(slow.can_admit(t1));
  slow.admit(t1);
  EXPECT_FALSE(slow.can_admit(t2));
}

TEST(Admission, TracksTasksAndUtilization) {
  MachineLoad load(AdmissionKind::kEdf, Rational(2), 1.0);
  load.admit({1, 2});
  load.admit({1, 4});
  EXPECT_EQ(load.task_count(), 2u);
  EXPECT_DOUBLE_EQ(load.utilization(), 0.75);
  ASSERT_EQ(load.tasks().size(), 2u);
  EXPECT_EQ(load.tasks()[0], (Task{1, 2}));
}

TEST(Admission, KindNames) {
  EXPECT_EQ(to_string(AdmissionKind::kEdf), "EDF");
  EXPECT_EQ(to_string(AdmissionKind::kRmsLiuLayland), "RMS-LL");
  EXPECT_EQ(to_string(AdmissionKind::kRmsHyperbolic), "RMS-HB");
  EXPECT_EQ(to_string(AdmissionKind::kRmsResponseTime), "RMS-RTA");
  EXPECT_FALSE(admission_row(AdmissionKind::kEdf).fixed_priority);
  EXPECT_TRUE(admission_row(AdmissionKind::kRmsLiuLayland).fixed_priority);
  EXPECT_TRUE(admission_row(AdmissionKind::kRmsResponseTime).fixed_priority);
  EXPECT_EQ(find_admission("rms-hb"), AdmissionKind::kRmsHyperbolic);
  EXPECT_FALSE(find_admission("RMS-HB").has_value());
}

}  // namespace
}  // namespace hetsched
