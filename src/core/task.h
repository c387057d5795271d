// Sporadic task model (implicit deadlines).
//
// A task tau_i = (c_i, p_i) releases a job of c_i work units at most once
// every p_i time units; each job must finish within p_i of its release
// (deadline == period).  Parameters are kept as exact 64-bit integers so the
// simulator and the response-time analysis are exact; utilization is exposed
// both as a double (used by the feasibility bounds) and as an exact Rational.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/rational.h"

namespace hetsched {

struct Task {
  std::int64_t exec = 1;    // c_i: worst-case execution on a unit-speed machine
  std::int64_t period = 1;  // p_i: minimum inter-arrival time
  // d_i: relative deadline.  0 means "implicit" (deadline == period), which
  // keeps every existing Task{exec, period} aggregate-init site — and every
  // persisted byte that predates the field — meaning exactly what it always
  // did.  A nonzero value must satisfy 0 < d_i <= p_i (constrained model).
  std::int64_t deadline = 0;

  // w_i = c_i / p_i on a unit-speed machine.
  double utilization() const {
    return static_cast<double>(exec) / static_cast<double>(period);
  }
  Rational utilization_exact() const { return Rational(exec, period); }

  // The deadline the schedulability tests see: period when implicit.
  std::int64_t effective_deadline() const {
    return deadline == 0 ? period : deadline;
  }
  bool implicit_deadline() const {
    return deadline == 0 || deadline == period;
  }

  // Density c_i / d_i — equals utilization for implicit deadlines.
  double density() const {
    return static_cast<double>(exec) / static_cast<double>(effective_deadline());
  }
  Rational density_exact() const { return Rational(exec, effective_deadline()); }

  bool valid() const {
    return exec > 0 && period > 0 && deadline >= 0 && deadline <= period;
  }

  friend bool operator==(const Task&, const Task&) = default;
};

// An immutable, validated collection of tasks.
class TaskSet {
 public:
  TaskSet() = default;
  // Aborts if any task has non-positive parameters.
  explicit TaskSet(std::vector<Task> tasks);

  std::size_t size() const { return tasks_.size(); }
  bool empty() const { return tasks_.empty(); }
  const Task& operator[](std::size_t i) const { return tasks_[i]; }
  std::span<const Task> tasks() const { return tasks_; }
  auto begin() const { return tasks_.begin(); }
  auto end() const { return tasks_.end(); }

  // Sum of w_i (double; exact variant below).
  double total_utilization() const;
  Rational total_utilization_exact() const;

  // Largest single-task utilization; 0 for an empty set.
  double max_utilization() const;

  // Indices of tasks ordered by non-increasing utilization, ties broken by
  // index (the order the paper's first-fit algorithm consumes tasks in).
  std::vector<std::size_t> order_by_utilization_desc() const;

  // Same permutation written into `out`, and each ordered task's
  // utilization() into `utils` (utils[k] is the double of task out[k], bit
  // for bit), both reusing their capacity — for callers (the partition
  // fast path) that must stay allocation-free when warm.
  void order_by_utilization_desc(std::vector<std::size_t>& out,
                                 std::vector<double>& utils) const;

  // Appends a task (used by generators and the exact search).
  void push_back(const Task& t);

  // "n=3 U=1.25 {(1,4),(2,3),...}" — for logs and failure certificates.
  std::string to_string() const;

 private:
  std::vector<Task> tasks_;
};

}  // namespace hetsched
