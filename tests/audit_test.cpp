// Drives the surfaces the shadow-oracle audit build instruments
// (src/partition/audit.h): controller churn, batch and decision-only
// partitioning, alpha bisection, and direct SlackTree operations.
//
// In a normal build this is an ordinary (fast) property suite.  Under
// -DHETSCHED_AUDIT=ON every admit/depart/rebalance/restore below
// additionally recomputes its reference answer inside the library and
// aborts on the first divergence, so `ctest -L audit` turns these tests
// into an end-to-end cross-check of the fold arithmetic, the segment-tree
// descent, the batch/online bit-identity bridge, and the bisection's
// monotonicity assumption.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "gen/platform_gen.h"
#include "gen/taskset_gen.h"
#include "online/online_partitioner.h"
#include "partition/engine.h"
#include "partition/first_fit.h"
#include "util/rng.h"

namespace hetsched {
namespace {

Platform random_platform(Rng& rng) {
  const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 8));
  switch (rng.uniform_int(0, 2)) {
    case 0:
      return Platform::identical(m);
    case 1:
      return geometric_platform(m, rng.uniform(1.0, 2.0));
    default:
      return big_little_platform((m + 1) / 2, m / 2 + 1, 1.0,
                                 rng.uniform(1.5, 3.0));
  }
}

TaskSet random_taskset(Rng& rng, const Platform& platform, std::size_t n_max) {
  TasksetSpec spec;
  spec.n = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(n_max)));
  spec.max_task_utilization = platform.max_speed();
  const double norm = rng.uniform(0.4, 1.15);
  spec.total_utilization =
      std::min(norm * platform.total_speed(),
               0.35 * static_cast<double>(spec.n) * spec.max_task_utilization);
  spec.periods = PeriodSpec::log_uniform(10, 1000);
  return generate_taskset(rng, spec);
}

constexpr AdmissionKind kSlackKinds[] = {AdmissionKind::kEdf,
                                         AdmissionKind::kRmsLiuLayland,
                                         AdmissionKind::kRmsHyperbolic};
constexpr PartitionEngine kEngines[] = {PartitionEngine::kNaive,
                                        PartitionEngine::kSegmentTree};

// Random admit/depart/rebalance/snapshot churn: every mutation below runs
// under the controller's audit hooks in an audit build.
TEST(Audit, ControllerChurnAcrossKindsAndEngines) {
  for (const AdmissionKind kind : kSlackKinds) {
    for (const PartitionEngine engine : kEngines) {
      Rng rng(0x5eed0 + static_cast<std::uint64_t>(kind) * 7 +
              static_cast<std::uint64_t>(engine));
      for (int trial = 0; trial < 8; ++trial) {
        const Platform platform = random_platform(rng);
        OnlinePartitioner c(platform, kind, rng.uniform(1.0, 2.5), engine);
        std::vector<OnlineTaskId> live;
        for (int step = 0; step < 120; ++step) {
          const int op = static_cast<int>(rng.uniform_int(0, 9));
          if (op < 6 || live.empty()) {
            const Task t{rng.uniform_int(1, 40), rng.uniform_int(40, 400)};
            const AdmitDecision d = c.admit(t);
            if (d.admitted) live.push_back(d.id);
          } else if (op < 9) {
            const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(live.size()) - 1));
            EXPECT_TRUE(c.depart(live[pick]));
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
          } else {
            const RebalanceReport rep = c.rebalance();
            EXPECT_EQ(rep.resident, c.resident_count());
          }
        }
        // Snapshot / what-if / restore round trip.
        const auto snap = c.snapshot();
        const std::size_t resident = c.resident_count();
        for (int k = 0; k < 5; ++k) {
          c.admit({1, static_cast<std::int64_t>(10 + k)});
        }
        c.restore(snap);
        EXPECT_EQ(c.resident_count(), resident);
      }
    }
  }
}

// kRmsResponseTime has no slack form: tier 0 never admits and the RTA
// escalation decides, so its audit replays the escalation on every machine
// first fit skipped and checks the demand mirrors against the resident
// lists.  Small sizes: RTA is expensive.
TEST(Audit, ControllerChurnResponseTimeFallback) {
  Rng rng(0xa0d17);
  for (int trial = 0; trial < 3; ++trial) {
    const Platform platform = Platform::identical(2);
    OnlinePartitioner c(platform, AdmissionKind::kRmsResponseTime, 2.0);
    std::vector<OnlineTaskId> live;
    for (int step = 0; step < 30; ++step) {
      if (rng.uniform_int(0, 2) < 2 || live.empty()) {
        const AdmitDecision d =
            c.admit({rng.uniform_int(1, 20), rng.uniform_int(40, 200)});
        if (d.admitted) live.push_back(d.id);
      } else {
        EXPECT_TRUE(c.depart(live.back()));
        live.pop_back();
      }
    }
  }
}

// Batch partition, decision-only accept, and the alpha bisection: under
// audit every accepts probe re-runs the full batch oracle and the opposite
// engine, and the bisection checks its sampled verdicts for monotonicity.
TEST(Audit, BatchScratchAndBisectionAgree) {
  for (const AdmissionKind kind : kSlackKinds) {
    for (const PartitionEngine engine : kEngines) {
      Rng rng(0xbeef + static_cast<std::uint64_t>(kind) * 11 +
              static_cast<std::uint64_t>(engine));
      PartitionScratch scratch;
      for (int trial = 0; trial < 12; ++trial) {
        const Platform platform = random_platform(rng);
        const TaskSet tasks = random_taskset(rng, platform, 24);
        const double alpha = rng.uniform(1.0, 3.5);
        const PartitionResult full =
            first_fit_partition(tasks, platform, kind, alpha, engine);
        EXPECT_EQ(full.feasible, first_fit_accepts(tasks, platform, kind,
                                                   alpha, scratch, engine));
        const std::optional<double> a_min =
            min_feasible_alpha(tasks, platform, kind, 4.0, scratch, engine);
        if (a_min) {
          EXPECT_TRUE(
              first_fit_accepts(tasks, platform, kind, *a_min, scratch,
                                engine));
        }
      }
    }
  }
}

// Exact-fit boundary instances: the packings where a 1-ulp slack error
// would flip a verdict, i.e. where the bit-space threshold search and the
// audit's bitwise cross-checks earn their keep.
TEST(Audit, ExactBoundaryPackingsSurviveChurn) {
  const Platform platform = Platform::identical(1);
  OnlinePartitioner c(platform, AdmissionKind::kEdf, 1.0);
  // {0.44, 0.40, 0.16} sums to exactly 1.0 on a unit machine.
  const AdmitDecision a = c.admit({44, 100});
  const AdmitDecision b = c.admit({40, 100});
  const AdmitDecision d = c.admit({16, 100});
  ASSERT_TRUE(a.admitted && b.admitted && d.admitted);
  EXPECT_FALSE(c.admit({1, 1000000}).admitted);
  ASSERT_TRUE(c.depart(b.id));
  EXPECT_TRUE(c.admit({40, 100}).admitted);
  EXPECT_TRUE(c.rebalance().applied);
}

// Direct SlackTree ops at adversarial values; the audit build verifies the
// heap invariant and replays every descent, and its left maximum, against
// the naive scan.
TEST(Audit, SlackTreeDirectOperations) {
  SlackTree tree;
  Rng rng(0x7ee5);
  for (int round = 0; round < 20; ++round) {
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 17));
    std::vector<double> slack(m);
    for (auto& s : slack) s = rng.uniform(-1.0, 2.0);
    tree.build(slack);
    for (int q = 0; q < 50; ++q) {
      const double w = rng.uniform(-1.5, 2.5);
      const std::size_t j = tree.find_first_at_least(w);
      double left_max = 0.0;
      EXPECT_EQ(tree.find_first_at_least(w, left_max), j);
      if (j != SlackTree::npos) {
        EXPECT_GE(tree.slack_at(j), w);
        double scanned = -std::numeric_limits<double>::infinity();
        for (std::size_t k = 0; k < j; ++k) {
          EXPECT_LT(tree.slack_at(k), w);
          scanned = std::max(scanned, tree.slack_at(k));
        }
        EXPECT_EQ(left_max, scanned);
      } else {
        for (std::size_t k = 0; k < m; ++k) EXPECT_LT(tree.slack_at(k), w);
      }
      tree.update(static_cast<std::size_t>(
                      rng.uniform_int(0, static_cast<std::int64_t>(m) - 1)),
                  rng.uniform(-1.0, 2.0));
    }
  }
}

}  // namespace
}  // namespace hetsched
