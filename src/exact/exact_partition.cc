#include "exact/exact_partition.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace hetsched {

namespace {

class Searcher {
 public:
  Searcher(const TaskSet& tasks, const Platform& platform, AdmissionKind kind,
           double alpha, const ExactOptions& opts)
      : tasks_(tasks),
        platform_(platform),
        kind_(kind),
        alpha_(alpha),
        opts_(opts),
        order_(tasks.order_by_utilization_desc()) {
    loads_.reserve(platform.size());
    for (std::size_t j = 0; j < platform.size(); ++j) {
      loads_.emplace_back(kind, platform.speed_exact(j), alpha);
    }
    // Suffix sums of utilization in branching order, for the EDF bound.
    suffix_util_.assign(order_.size() + 1, 0.0);
    for (std::size_t k = order_.size(); k-- > 0;) {
      suffix_util_[k] = suffix_util_[k + 1] + tasks_[order_[k]].utilization();
    }
    assignment_.assign(tasks.size(), platform.size());
  }

  ExactResult run() {
    ExactResult res;
    const bool found = dfs(0);
    res.nodes_visited = nodes_;
    if (hit_limit_) {
      res.verdict = ExactVerdict::kNodeLimit;
    } else if (found) {
      res.verdict = ExactVerdict::kFeasible;
      res.assignment = assignment_;
    } else {
      res.verdict = ExactVerdict::kInfeasible;
    }
    return res;
  }

 private:
  // Prefix-sum relaxation for EDF admission: the k largest remaining tasks
  // must fit within the k largest residual capacities.  (Valid because every
  // task consumes capacity on exactly one machine.)
  bool edf_bound_cuts(std::size_t depth) const {
    if (admission_row(kind_).fold != AdmissionFold::kEdf) return false;
    std::vector<double> residual(loads_.size());
    for (std::size_t j = 0; j < loads_.size(); ++j) {
      residual[j] = loads_[j].capacity() - loads_[j].utilization();
    }
    std::sort(residual.begin(), residual.end(), std::greater<>());
    double wsum = 0, rsum = 0;
    const std::size_t remaining = order_.size() - depth;
    const std::size_t kmax = std::min(remaining, residual.size());
    for (std::size_t k = 0; k < kmax; ++k) {
      // order_ is sorted non-increasing, so depth+k is the k-th largest left.
      wsum += tasks_[order_[depth + k]].utilization();
      rsum += residual[k];
      if (wsum > rsum + 1e-12) return true;
    }
    // All remaining utilization must fit in the total residual capacity.
    return suffix_util_[depth] > rsum + 1e-12;
  }

  bool dfs(std::size_t depth) {
    if (hit_limit_) return false;
    if (++nodes_ > opts_.max_nodes) {
      hit_limit_ = true;
      return false;
    }
    if (depth == order_.size()) return true;
    if (edf_bound_cuts(depth)) return false;

    const Task& t = tasks_[order_[depth]];
    double tried_empty_speed = -1.0;
    for (std::size_t j = 0; j < loads_.size(); ++j) {
      // Symmetry: identical empty machines are interchangeable.
      if (loads_[j].task_count() == 0) {
        const double s = loads_[j].capacity();
        // Exact: equal capacities mean interchangeable machines.
        // hetsched-lint: allow(float-compare)
        if (s == tried_empty_speed) continue;
        tried_empty_speed = s;
      }
      if (!loads_[j].can_admit(t)) continue;
      MachineLoad saved = loads_[j];
      loads_[j].admit(t);
      assignment_[order_[depth]] = j;
      if (dfs(depth + 1)) return true;
      loads_[j] = std::move(saved);
      assignment_[order_[depth]] = loads_.size();
      if (hit_limit_) return false;
    }
    return false;
  }

  const TaskSet& tasks_;
  const Platform& platform_;
  AdmissionKind kind_;
  double alpha_;
  ExactOptions opts_;
  std::vector<std::size_t> order_;
  std::vector<double> suffix_util_;
  std::vector<MachineLoad> loads_;
  std::vector<std::size_t> assignment_;
  std::int64_t nodes_ = 0;
  bool hit_limit_ = false;
};

}  // namespace

ExactResult exact_partition(const TaskSet& tasks, const Platform& platform,
                            AdmissionKind kind, double alpha,
                            const ExactOptions& opts) {
  HETSCHED_CHECK(platform.size() >= 1);
  HETSCHED_CHECK(alpha >= 1.0);
  if (tasks.empty()) {
    ExactResult r;
    r.verdict = ExactVerdict::kFeasible;
    return r;
  }
  return Searcher(tasks, platform, kind, alpha, opts).run();
}

ExactResult brute_force_partition(const TaskSet& tasks,
                                  const Platform& platform, AdmissionKind kind,
                                  double alpha) {
  HETSCHED_CHECK_MSG(tasks.size() <= 10, "brute force limited to n <= 10");
  const std::size_t n = tasks.size();
  const std::size_t m = platform.size();
  ExactResult res;
  res.verdict = ExactVerdict::kInfeasible;

  std::vector<std::size_t> assign(n, 0);
  for (;;) {
    ++res.nodes_visited;
    // Check the current assignment.
    std::vector<MachineLoad> loads;
    loads.reserve(m);
    for (std::size_t j = 0; j < m; ++j) {
      loads.emplace_back(kind, platform.speed_exact(j), alpha);
    }
    bool ok = true;
    for (std::size_t i = 0; i < n && ok; ++i) {
      if (loads[assign[i]].can_admit(tasks[i])) {
        loads[assign[i]].admit(tasks[i]);
      } else {
        ok = false;
      }
    }
    if (ok) {
      res.verdict = ExactVerdict::kFeasible;
      res.assignment = assign;
      return res;
    }
    // Next assignment in base-m counting order.
    std::size_t pos = 0;
    while (pos < n && ++assign[pos] == m) {
      assign[pos] = 0;
      ++pos;
    }
    if (pos == n) return res;
  }
}

}  // namespace hetsched
