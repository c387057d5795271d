// Differential oracle for the tiered admission tests (`ctest -L sim`):
// replay the E14 sweep's constrained-deadline streams through tiered
// controllers and hand every admitted machine set to the exact
// discrete-event simulator.  Every tier is *sufficient*, so the invariant
// is unconditional: an admitted set NEVER misses a deadline at the
// machine's augmented speed — for the EDF family under EDF, for the RTA
// kind under deadline-monotonic fixed priorities.  E14 periods divide
// 2520, so each per-machine simulation covers an exact hyperperiod.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "admit/admission_test.h"
#include "admit/sweep.h"
#include "core/platform.h"
#include "core/task.h"
#include "online/online_partitioner.h"
#include "sim/event_sim.h"
#include "task_literals.h"

namespace hetsched {
namespace {

using admit::AdmitConfig;

void replay_and_simulate(AdmissionKind kind) {
  const Platform platform = admit::e14_platform();
  AdmitConfig cfg;
  cfg.test = kind;
  const SchedPolicy policy = admission_row(kind).fixed_priority
                                 ? SchedPolicy::kFixedPriorityRm
                                 : SchedPolicy::kEdf;

  std::size_t streams = 0, admitted_total = 0, simulated_machines = 0;
  for (const admit::E14Point& point : admit::e14_points(/*quick=*/true)) {
    OnlinePartitioner ctl(platform, AdmissionKind::kEdf, 1.0,
                          PartitionEngine::kAuto, cfg);
    for (const Task& t : point.tasks) {
      const AdmitDecision d = ctl.admit(t);
      if (d.admitted) ++admitted_total;
    }
    ++streams;

    for (std::size_t j = 0; j < platform.size(); ++j) {
      std::vector<Task> cts;
      for (const Task& t : ctl.machine_tasks(j)) {
        cts.push_back(*admit::inflate(cfg, t));
      }
      if (cts.empty()) continue;
      ++simulated_machines;
      const SimOutcome out = simulate_uniproc(
          cts, platform.speed_exact(j), policy);
      EXPECT_TRUE(out.schedulable)
          << admission_row(kind).name << " seed " << point.seed << " density "
          << point.target_density << " machine " << j << ": missed task "
          << (out.miss ? out.miss->task_index : 0u) << " at t="
          << (out.miss ? out.miss->deadline : 0);
      EXPECT_FALSE(out.horizon_exhausted)
          << admission_row(kind).name << " seed " << point.seed;
    }
  }
  EXPECT_GT(streams, 0u);
  // The sweep must actually admit work, or the oracle proves nothing.
  EXPECT_GT(admitted_total, 0u) << admission_row(kind).name;
  EXPECT_GT(simulated_machines, 0u) << admission_row(kind).name;
}

TEST(AdmitSimDifferential, BoundAdmitsSimulateMissFree) {
  replay_and_simulate(AdmissionKind::kBound);
}

TEST(AdmitSimDifferential, DbfApproxAdmitsSimulateMissFree) {
  replay_and_simulate(AdmissionKind::kDbfApprox);
}

TEST(AdmitSimDifferential, QpaAdmitsSimulateMissFree) {
  replay_and_simulate(AdmissionKind::kQpa);
}

TEST(AdmitSimDifferential, RtaAdmitsSimulateMissFree) {
  replay_and_simulate(AdmissionKind::kRta);
}

TEST(AdmitSimDifferential, AutoAdmitsSimulateMissFree) {
  replay_and_simulate(AdmissionKind::kAuto);
}

// The overhead model inflates before testing, so admitted sets stay
// miss-free even when the simulator charges the inflated cost.
TEST(AdmitSimDifferential, OverheadInflatedAdmitsSimulateMissFree) {
  const Platform platform = admit::e14_platform();
  AdmitConfig cfg;
  cfg.test = AdmissionKind::kQpa;
  cfg.release_overhead = 1;
  cfg.preempt_overhead = 1;
  const auto points = admit::e14_points(/*quick=*/true);
  ASSERT_FALSE(points.empty());
  const admit::E14Point& point = points.front();

  OnlinePartitioner ctl(platform, AdmissionKind::kEdf, 1.0,
                        PartitionEngine::kAuto, cfg);
  for (const Task& t : point.tasks) ctl.admit(t);
  for (std::size_t j = 0; j < platform.size(); ++j) {
    std::vector<Task> cts;
    for (const Task& t : ctl.machine_tasks(j)) {
      cts.push_back(*admit::inflate(cfg, t));
    }
    if (cts.empty()) continue;
    const SimOutcome out = simulate_uniproc(
        cts, platform.speed_exact(j), SchedPolicy::kEdf);
    EXPECT_TRUE(out.schedulable) << "machine " << j;
  }
}

}  // namespace
}  // namespace hetsched
