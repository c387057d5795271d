// Exact discrete-event simulation of preemptive uniprocessor scheduling.
//
// The simulator is the ground-truth referee for every schedulability claim in
// this library: when the partitioner accepts a task set at augmentation
// alpha, property tests replay the schedule on each machine at speed
// alpha * s_j and assert zero deadline misses.
//
// Task model: constrained-deadline sporadic tasks (deadline <= period); an
// implicit-deadline Task (deadline 0) runs with deadline == period.  Two
// arrival models:
//   * synchronous periodic — all first jobs at time 0, then strictly
//     periodic.  This is the worst case (for fixed priorities time 0 is a
//     critical instant; for EDF the demand-bound analysis assumes it), so
//     "no miss in [0, horizon)" certifies sporadic feasibility.
//   * jittered sporadic — seeded random inter-arrival slack above the
//     period.  Never *harder* than synchronous; used by property tests to
//     confirm the worst-case claim and by examples for realistic traces.
//
// Time is exact: releases and deadlines are 64-bit integers; execution on a
// machine of rational speed s advances remaining work by s per time unit, so
// completion instants are 64-bit rationals and a deadline is met or missed
// with no epsilon.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/task.h"
#include "util/rational.h"

namespace hetsched {

enum class SchedPolicy {
  kEdf,  // earliest absolute deadline first; ties by task index
  // Deadline-monotonic static priorities (== rate-monotonic for
  // implicit-deadline tasks); ties by task index.
  kFixedPriorityRm,
  // Non-preemptive EDF: jobs are picked by earliest deadline but run to
  // completion once started.  Subject to the classic blocking anomaly (a
  // long job can starve a short-deadline release), so none of the paper's
  // utilization-based certificates apply; included as a simulation-level
  // ablation of what preemption buys.
  kEdfNonPreemptive,
};

std::string to_string(SchedPolicy p);

struct ArrivalModel {
  enum class Kind {
    kSynchronousPeriodic,  // the worst case; default
    kJitteredSporadic,     // release_{k+1} = release_k + p + U[0, jitter*p]
  };
  Kind kind = Kind::kSynchronousPeriodic;
  std::uint64_t seed = 1;     // jittered: RNG seed (deterministic per run)
  double max_jitter = 0.25;   // jittered: slack cap as a fraction of p

  static ArrivalModel synchronous() { return ArrivalModel{}; }
  static ArrivalModel jittered(std::uint64_t seed, double max_jitter = 0.25);
};

// A deadline miss observed by the simulator.
struct DeadlineMiss {
  std::size_t task_index = 0;  // index into the simulated task span
  std::int64_t deadline = 0;   // absolute time of the missed deadline
  Rational remaining;          // work still pending at the deadline
};

// A maximal interval during which one task ran uninterrupted.
struct TraceSegment {
  std::size_t task_index = 0;
  Rational start;
  Rational end;
};

struct SimOutcome {
  bool schedulable = false;          // no miss within the simulated horizon
  bool horizon_exhausted = false;    // hit max_jobs before horizon; verdict
                                     // is "no miss observed", not a proof
  std::optional<DeadlineMiss> miss;  // set iff schedulable == false
  std::int64_t jobs_released = 0;
  std::int64_t jobs_completed = 0;
  std::int64_t preemptions = 0;
  Rational busy_time;                // total time the processor was running
  std::int64_t horizon = 0;          // the horizon actually simulated to
  std::vector<TraceSegment> trace;   // filled iff SimLimits::record_trace
};

struct SimLimits {
  // Hard cap on simulated job releases; guards pathological hyperperiods.
  std::int64_t max_jobs = 2'000'000;
  // Optional explicit horizon; if 0, the task-set hyperperiod is used
  // (falling back to max_jobs if the hyperperiod overflows int64).
  std::int64_t horizon_override = 0;
  // Record execution segments into SimOutcome::trace.
  bool record_trace = false;
};

// Simulates `tasks` on one machine of speed `speed`; each job's deadline is
// its task's effective deadline (the period when implicit).
SimOutcome simulate_uniproc(std::span<const Task> tasks, const Rational& speed,
                            SchedPolicy policy, const SimLimits& limits = {},
                            const ArrivalModel& arrivals = {});

// Replays a partitioned assignment: tasks_per_machine[j] holds the tasks
// assigned to machine j, simulated independently at speeds[j].
struct PartitionSimOutcome {
  bool schedulable = false;
  std::optional<std::size_t> failing_machine;
  std::vector<SimOutcome> per_machine;
};

PartitionSimOutcome simulate_partition(
    std::span<const std::vector<Task>> tasks_per_machine,
    std::span<const Rational> speeds, SchedPolicy policy,
    const SimLimits& limits = {});

// Renders a recorded trace as text: one "task N: [a, b) [c, d) ..." line
// per task, plus a character Gantt chart when the horizon is small enough
// to draw one column per time unit (<= max_columns).
std::string render_trace(const SimOutcome& outcome, std::size_t num_tasks,
                         std::size_t max_columns = 120);

}  // namespace hetsched
