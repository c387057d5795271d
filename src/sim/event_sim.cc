#include "sim/event_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/check.h"
#include "util/int_math.h"
#include "util/rng.h"

namespace hetsched {

std::string to_string(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::kEdf:
      return "EDF";
    case SchedPolicy::kFixedPriorityRm:
      return "RM";
    case SchedPolicy::kEdfNonPreemptive:
      return "EDF-NP";
  }
  return "?";
}

ArrivalModel ArrivalModel::jittered(std::uint64_t seed, double max_jitter) {
  HETSCHED_CHECK(max_jitter >= 0);
  ArrivalModel m;
  m.kind = Kind::kJitteredSporadic;
  m.seed = seed;
  m.max_jitter = max_jitter;
  return m;
}

namespace {

// Per-task runtime state.  With constrained deadlines at most one job per
// task is ever active: the next release is no earlier than the current
// job's deadline, and the simulator reports a miss before processing that
// release.
struct TaskState {
  Rational remaining;            // pending work of the active job (0 = none)
  std::int64_t deadline = 0;     // absolute deadline of the active job
  std::int64_t next_release = 0; // absolute time of the next job release
};

// True if the active job of task `a` has higher priority than that of `b`.
bool higher_priority(SchedPolicy policy, std::span<const Task> tasks,
                     std::span<const TaskState> st, std::size_t a,
                     std::size_t b) {
  if (policy == SchedPolicy::kFixedPriorityRm) {
    // Deadline-monotonic == rate-monotonic for implicit deadlines.
    const std::int64_t da = tasks[a].effective_deadline();
    const std::int64_t db = tasks[b].effective_deadline();
    if (da != db) return da < db;
  } else {  // both EDF variants pick by absolute deadline
    if (st[a].deadline != st[b].deadline) return st[a].deadline < st[b].deadline;
  }
  return a < b;
}

void append_trace(std::vector<TraceSegment>& trace, std::size_t task,
                  const Rational& start, const Rational& end) {
  if (!(start < end)) return;
  if (!trace.empty() && trace.back().task_index == task &&
      trace.back().end == start) {
    trace.back().end = end;  // merge contiguous run of the same task
    return;
  }
  trace.push_back(TraceSegment{task, start, end});
}

}  // namespace

SimOutcome simulate_uniproc(std::span<const Task> tasks, const Rational& speed,
                            SchedPolicy policy, const SimLimits& limits,
                            const ArrivalModel& arrivals) {
  HETSCHED_CHECK(speed > Rational(0));
  SimOutcome out;

  // Determine the simulation horizon: the hyperperiod unless overridden.
  std::int64_t horizon;
  if (limits.horizon_override > 0) {
    horizon = limits.horizon_override;
  } else {
    std::vector<std::int64_t> periods;
    periods.reserve(tasks.size());
    for (const Task& t : tasks) {
      HETSCHED_CHECK(t.valid());
      periods.push_back(t.period);
    }
    const auto h = hyperperiod(periods);
    // An overflowing hyperperiod falls back to an effectively unbounded
    // horizon; the max_jobs cap then bounds the run (verdict is flagged
    // horizon_exhausted).
    horizon = h.value_or(std::numeric_limits<std::int64_t>::max());
  }
  out.horizon = horizon;
  if (tasks.empty() || horizon == 0) {
    out.schedulable = true;
    return out;
  }

  const bool jittered =
      arrivals.kind == ArrivalModel::Kind::kJitteredSporadic;
  Rng jitter_rng(arrivals.seed);
  auto draw_jitter = [&](std::int64_t period) -> std::int64_t {
    if (!jittered) return 0;
    const auto cap = static_cast<std::int64_t>(
        std::llround(arrivals.max_jitter * static_cast<double>(period)));
    return cap <= 0 ? 0 : jitter_rng.uniform_int(0, cap);
  };

  std::vector<TaskState> st(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    st[i].next_release = draw_jitter(tasks[i].period);
  }

  Rational now(0);

  // Index of the job that ran in the previous segment, for preemption
  // accounting; npos when the processor was idle or the job completed.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::size_t last_running = kNone;

  for (;;) {
    // Release every job whose release time has arrived (releases are
    // integers; `now` only ever lands exactly on them or beyond on idle).
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (st[i].remaining.is_zero() && st[i].next_release < horizon &&
          Rational(st[i].next_release) <= now) {
        st[i].remaining = Rational(tasks[i].exec);
        st[i].deadline = st[i].next_release + tasks[i].effective_deadline();
        st[i].next_release += tasks[i].period + draw_jitter(tasks[i].period);
        ++out.jobs_released;
      }
    }

    if (out.jobs_released > limits.max_jobs) {
      out.schedulable = true;
      out.horizon_exhausted = true;
      return out;
    }

    // Pick the highest-priority ready job — except under non-preemptive
    // EDF, where a started job keeps the processor until it completes.
    std::size_t run = kNone;
    if (policy == SchedPolicy::kEdfNonPreemptive && last_running != kNone &&
        !st[last_running].remaining.is_zero()) {
      run = last_running;
    } else {
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (st[i].remaining.is_zero()) continue;
        if (run == kNone || higher_priority(policy, tasks, st, i, run)) run = i;
      }
    }

    // Earliest future release strictly before the horizon.
    std::int64_t next_rel = std::numeric_limits<std::int64_t>::max();
    for (const TaskState& s : st) {
      if (s.next_release < horizon) next_rel = std::min(next_rel, s.next_release);
    }

    if (run == kNone) {
      if (next_rel == std::numeric_limits<std::int64_t>::max()) {
        out.schedulable = true;  // all released work done, nothing left
        return out;
      }
      now = Rational(next_rel);  // idle until the next release
      continue;
    }

    if (last_running != kNone && last_running != run &&
        !st[last_running].remaining.is_zero()) {
      ++out.preemptions;
    }

    // Earliest pending deadline; the segment must not silently cross it.
    std::int64_t d_min = std::numeric_limits<std::int64_t>::max();
    for (const TaskState& s : st) {
      if (!s.remaining.is_zero()) d_min = std::min(d_min, s.deadline);
    }

    const Rational finish = now + st[run].remaining / speed;
    Rational segment_end = finish;
    if (next_rel != std::numeric_limits<std::int64_t>::max()) {
      segment_end = rational_min(segment_end, Rational(next_rel));
    }
    segment_end = rational_min(segment_end, Rational(d_min));

    const Rational delta = segment_end - now;
    st[run].remaining -= delta * speed;
    out.busy_time += delta;
    if (limits.record_trace) append_trace(out.trace, run, now, segment_end);
    now = segment_end;

    if (st[run].remaining.is_zero()) {
      ++out.jobs_completed;
      last_running = kNone;
    } else {
      last_running = run;
    }

    // Deadline check: any pending job whose deadline is <= now has missed.
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (!st[i].remaining.is_zero() && Rational(st[i].deadline) <= now) {
        out.schedulable = false;
        out.miss = DeadlineMiss{i, st[i].deadline, st[i].remaining};
        return out;
      }
    }
  }
}

PartitionSimOutcome simulate_partition(
    std::span<const std::vector<Task>> tasks_per_machine,
    std::span<const Rational> speeds, SchedPolicy policy,
    const SimLimits& limits) {
  HETSCHED_CHECK(tasks_per_machine.size() == speeds.size());
  PartitionSimOutcome out;
  out.schedulable = true;
  out.per_machine.reserve(tasks_per_machine.size());
  for (std::size_t j = 0; j < tasks_per_machine.size(); ++j) {
    SimOutcome mo =
        simulate_uniproc(tasks_per_machine[j], speeds[j], policy, limits);
    if (!mo.schedulable && out.schedulable) {
      out.schedulable = false;
      out.failing_machine = j;
    }
    out.per_machine.push_back(std::move(mo));
  }
  return out;
}

std::string render_trace(const SimOutcome& outcome, std::size_t num_tasks,
                         std::size_t max_columns) {
  std::ostringstream os;
  // Segment listing per task.
  for (std::size_t i = 0; i < num_tasks; ++i) {
    os << "task " << i << ":";
    for (const TraceSegment& seg : outcome.trace) {
      if (seg.task_index == i) {
        os << " [" << seg.start.to_string() << ", " << seg.end.to_string()
           << ")";
      }
    }
    os << "\n";
  }
  // Character Gantt, one column per time unit, when it fits.
  if (outcome.horizon > 0 &&
      static_cast<std::size_t>(outcome.horizon) <= max_columns &&
      num_tasks <= 36) {
    auto glyph = [](std::size_t i) -> char {
      return i < 10 ? static_cast<char>('0' + i)
                    : static_cast<char>('a' + (i - 10));
    };
    for (std::size_t i = 0; i < num_tasks; ++i) {
      std::string row(static_cast<std::size_t>(outcome.horizon), '.');
      for (const TraceSegment& seg : outcome.trace) {
        if (seg.task_index != i) continue;
        // A column is marked if the task runs for a majority of that unit.
        const std::int64_t lo = seg.start.floor();
        const std::int64_t hi = seg.end.ceil();
        for (std::int64_t t = lo; t < hi && t < outcome.horizon; ++t) {
          const Rational overlap =
              rational_min(seg.end, Rational(t + 1)) -
              rational_max(seg.start, Rational(t));
          if (overlap * Rational(2) >= Rational(1)) {
            row[static_cast<std::size_t>(t)] = glyph(i);
          }
        }
      }
      os << glyph(i) << " |" << row << "|\n";
    }
  }
  return os.str();
}

}  // namespace hetsched
