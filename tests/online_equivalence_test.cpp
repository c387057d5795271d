// Randomized property test: replaying a task set through the online
// controller in canonical utilization-descending order is bit-identical to
// first_fit_partition, under both engines and every admission kind, across
// 500 seeded instances.  This is the contract the batch wrapper rests on —
// the two paths must never drift apart, or every theorem-level certificate
// the batch test emits would silently stop covering the online service.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "gen/platform_gen.h"
#include "gen/taskset_gen.h"
#include "online/online_partitioner.h"
#include "partition/admission.h"
#include "partition/first_fit.h"
#include "util/rng.h"

namespace hetsched {
namespace {

Platform random_platform(Rng& rng) {
  const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 12));
  switch (rng.uniform_int(0, 2)) {
    case 0:
      return Platform::identical(m);
    case 1:
      return geometric_platform(m, rng.uniform(1.0, 2.5));
    default:
      return big_little_platform((m + 1) / 2, m / 2 + 1, 1.0,
                                 rng.uniform(1.5, 4.0));
  }
}

TaskSet random_taskset(Rng& rng, const Platform& platform) {
  TasksetSpec spec;
  spec.n = static_cast<std::size_t>(rng.uniform_int(1, 40));
  spec.max_task_utilization = platform.max_speed();
  // Straddle the acceptance boundary so the sample is rich in rejections.
  const double norm = rng.uniform(0.4, 1.15);
  spec.total_utilization =
      std::min(norm * platform.total_speed(),
               0.35 * static_cast<double>(spec.n) * spec.max_task_utilization);
  spec.periods = PeriodSpec::log_uniform(10, 1000);
  return generate_taskset(rng, spec);
}

// Replays `tasks` through a fresh controller in canonical order, stopping
// at the first rejection exactly as the batch algorithm does, and asserts
// the replay reproduces `batch` bit for bit.
void expect_replay_matches(const TaskSet& tasks, const Platform& platform,
                           AdmissionKind kind, double alpha,
                           PartitionEngine engine,
                           const PartitionResult& batch) {
  OnlinePartitioner c(platform, kind, alpha, engine);
  c.reserve(tasks.size());
  bool feasible = true;
  std::vector<std::size_t> assignment(tasks.size(), 0);
  for (const std::size_t i : tasks.order_by_utilization_desc()) {
    const AdmitDecision d = c.admit(tasks[i]);
    if (!d.admitted) {
      feasible = false;
      ASSERT_TRUE(batch.failed_task.has_value());
      EXPECT_EQ(*batch.failed_task, i);
      EXPECT_EQ(batch.failed_utilization, d.utilization);
      break;
    }
    assignment[i] = d.machine;
  }
  ASSERT_EQ(feasible, batch.feasible);
  if (!feasible) return;
  ASSERT_EQ(batch.assignment.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(assignment[i], batch.assignment[i]) << "task " << i;
  }
  for (std::size_t j = 0; j < platform.size(); ++j) {
    EXPECT_EQ(c.machine_utilization(j), batch.machine_utilization[j])
        << "machine " << j;
    ASSERT_EQ(c.machine_task_count(j), batch.tasks_per_machine[j].size());
    const std::vector<Task> online = c.machine_tasks(j);
    for (std::size_t k = 0; k < online.size(); ++k) {
      EXPECT_EQ(online[k], batch.tasks_per_machine[j][k]);
    }
  }
}

TEST(OnlineEquivalence, ReplayMatchesBatchOver500Instances) {
  const AdmissionKind kinds[] = {
      AdmissionKind::kEdf, AdmissionKind::kRmsLiuLayland,
      AdmissionKind::kRmsHyperbolic, AdmissionKind::kRmsResponseTime};
  const double alphas[] = {1.0, 1.3, 2.0, 2.98};
  Rng rng(0x0511E);
  for (int iter = 0; iter < 500; ++iter) {
    const Platform platform = random_platform(rng);
    const TaskSet tasks = random_taskset(rng, platform);
    const AdmissionKind kind = kinds[iter % 4];
    const double alpha = alphas[static_cast<std::size_t>(
        rng.uniform_int(0, 3))];
    SCOPED_TRACE("iter " + std::to_string(iter) + " kind " + to_string(kind) +
                 " alpha " + std::to_string(alpha));
    for (const PartitionEngine engine :
         {PartitionEngine::kNaive, PartitionEngine::kSegmentTree}) {
      const PartitionResult batch =
          first_fit_partition(tasks, platform, kind, alpha, engine);
      expect_replay_matches(tasks, platform, kind, alpha, engine, batch);
      // The decision-only scratch path agrees too.
      PartitionScratch scratch;
      EXPECT_EQ(
          first_fit_accepts(tasks, platform, kind, alpha, scratch, engine),
          batch.feasible);
    }
  }
}

TEST(OnlineEquivalence, ReplayAfterChurnStillMatchesBatchOnResidents) {
  // Admit, depart a pseudo-random subset, then check the survivors: a fresh
  // batch run over exactly the resident multiset must be accepted (every
  // resident passed its own admission test), and re-admitting the residents
  // into a fresh controller in canonical order must succeed as well.
  Rng rng(0xC0FFEE);
  for (int iter = 0; iter < 60; ++iter) {
    const Platform platform = random_platform(rng);
    const TaskSet tasks = random_taskset(rng, platform);
    OnlinePartitioner c(platform, AdmissionKind::kEdf, 1.0);
    std::vector<OnlineTaskId> admitted;
    for (const Task& t : tasks) {
      const AdmitDecision d = c.admit(t);
      if (d.admitted) admitted.push_back(d.id);
    }
    for (const OnlineTaskId id : admitted) {
      if (rng.uniform(0.0, 1.0) < 0.5) {
        ASSERT_TRUE(c.depart(id));
      }
    }
    std::vector<Task> residents;
    for (std::size_t j = 0; j < platform.size(); ++j) {
      for (const Task& t : c.machine_tasks(j)) residents.push_back(t);
    }
    if (residents.empty()) continue;
    // Survivors need not pack under the canonical order (first fit is not
    // optimal), but per-machine admission invariants must hold: replaying
    // each machine's residents onto that machine alone must be accepted.
    for (std::size_t j = 0; j < platform.size(); ++j) {
      const std::vector<Task> on_j = c.machine_tasks(j);
      if (on_j.empty()) continue;
      const std::vector<Rational> solo_speed{platform.speed_exact(j)};
      const Platform solo = Platform::from_speeds_exact(solo_speed);
      EXPECT_TRUE(first_fit_accepts(TaskSet(on_j), solo, AdmissionKind::kEdf,
                                    1.0))
          << "machine " << j << " iter " << iter;
    }
  }
}

// Differential churn for kRmsResponseTime: the test keeps its own
// per-machine MachineLoad reference — first fit over can_admit, the
// canonical re-pack, snapshot copies — and checks the controller against
// it after every admit, depart, rebalance and restore: same machine, same
// machine_utilization bits, same resident order.
class RtaReference {
 public:
  RtaReference(const Platform& platform, double alpha)
      : platform_(platform), alpha_(alpha), machines_(platform.size()) {}

  // First fit; the machine chosen, or nullopt when none admits.
  std::optional<std::size_t> admit(OnlineTaskId id, const Task& t) {
    for (std::size_t j = 0; j < machines_.size(); ++j) {
      if (load(j).can_admit(t)) {
        machines_[j].push_back({id, t, next_seq_++});
        return j;
      }
    }
    return std::nullopt;
  }

  void depart(OnlineTaskId id) {
    const auto is_id = [&](const Resident& r) { return r.id == id; };
    std::size_t erased = 0;
    for (std::vector<Resident>& res : machines_) {
      erased += std::erase_if(res, is_id);
    }
    EXPECT_EQ(erased, 1u) << "reference lost id " << id;
  }

  // The canonical re-pack: utilization descending, ties by admission
  // sequence, first fit onto empty machines.  Returns the migration count,
  // or nullopt (state untouched) when some resident fits nowhere.
  std::optional<std::size_t> rebalance() {
    std::vector<std::pair<Resident, std::size_t>> all;  // (resident, machine)
    for (std::size_t j = 0; j < machines_.size(); ++j) {
      for (const Resident& r : machines_[j]) all.emplace_back(r, j);
    }
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      const double ua = a.first.task.utilization();
      const double ub = b.first.task.utilization();
      // Exact double tie-break, as the controller orders.
      if (ua != ub) return ua > ub;  // hetsched-lint: allow(float-compare)
      return a.first.seq < b.first.seq;
    });
    std::vector<std::vector<Resident>> packed(machines_.size());
    std::vector<MachineLoad> loads;
    for (std::size_t j = 0; j < machines_.size(); ++j) {
      loads.emplace_back(AdmissionKind::kRmsResponseTime,
                         platform_.speed_exact(j), alpha_);
    }
    std::size_t migrations = 0;
    for (const auto& [r, from] : all) {
      std::size_t to = machines_.size();
      for (std::size_t j = 0; j < loads.size() && to == loads.size(); ++j) {
        if (loads[j].can_admit(r.task)) to = j;
      }
      if (to == loads.size()) return std::nullopt;
      loads[to].admit(r.task);
      packed[to].push_back(r);
      if (to != from) ++migrations;
    }
    machines_ = std::move(packed);
    return migrations;
  }

  // Machine j's admission state, rebuilt from its residents in order.
  MachineLoad load(std::size_t j) const {
    MachineLoad l(AdmissionKind::kRmsResponseTime, platform_.speed_exact(j),
                  alpha_);
    for (const Resident& r : machines_[j]) l.admit(r.task);
    return l;
  }

  void expect_matches(const OnlinePartitioner& c) const {
    for (std::size_t j = 0; j < machines_.size(); ++j) {
      const MachineLoad l = load(j);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(c.machine_utilization(j)),
                std::bit_cast<std::uint64_t>(l.utilization()))
          << "machine " << j;
      EXPECT_EQ(c.machine_tasks(j), l.tasks()) << "machine " << j;
    }
  }

  std::size_t resident() const {
    std::size_t n = 0;
    for (const auto& res : machines_) n += res.size();
    return n;
  }

 private:
  struct Resident {
    OnlineTaskId id;
    Task task;
    std::uint64_t seq;
  };
  Platform platform_;
  double alpha_;
  std::vector<std::vector<Resident>> machines_;
  std::uint64_t next_seq_ = 0;
};

TEST(OnlineEquivalence, RtaChurnMatchesMachineLoadReference) {
  const double alphas[] = {1.0, 1.3, 2.0};
  Rng rng(0x127A);
  for (int iter = 0; iter < 12; ++iter) {
    const Platform platform = random_platform(rng);
    const TaskSet pool = random_taskset(rng, platform);
    const double alpha =
        alphas[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    const std::uint64_t op_seed = rng.next_u64();
    for (const PartitionEngine engine :
         {PartitionEngine::kNaive, PartitionEngine::kSegmentTree}) {
      SCOPED_TRACE("iter " + std::to_string(iter) + " alpha " +
                   std::to_string(alpha) + " engine " + to_string(engine));
      OnlinePartitioner c(platform, AdmissionKind::kRmsResponseTime, alpha,
                          engine);
      RtaReference ref(platform, alpha);
      std::vector<OnlineTaskId> live;
      std::optional<OnlinePartitioner::Snapshot> snap;
      std::optional<RtaReference> ref_snap;
      std::vector<OnlineTaskId> live_snap;
      Rng ops(op_seed);
      for (int step = 0; step < 120; ++step) {
        const std::uint64_t op = ops.next_u64() % 20;
        if (op < 11) {
          const Task& t = pool[ops.next_u64() % pool.size()];
          const AdmitDecision d = c.admit(t);
          const std::optional<std::size_t> want =
              ref.admit(d.admitted ? d.id : kInvalidOnlineTaskId, t);
          ASSERT_EQ(d.admitted, want.has_value()) << "step " << step;
          EXPECT_EQ(d.tier, 0);
          if (d.admitted) {
            ASSERT_EQ(d.machine, *want) << "step " << step;
            live.push_back(d.id);
          }
        } else if (op < 16) {
          if (live.empty()) continue;
          const std::size_t k = ops.next_u64() % live.size();
          ASSERT_TRUE(c.depart(live[k]));
          ref.depart(live[k]);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        } else if (op < 18) {
          const RebalanceReport rep = c.rebalance();
          const std::optional<std::size_t> want = ref.rebalance();
          ASSERT_EQ(rep.applied, want.has_value()) << "step " << step;
          if (want) {
            EXPECT_EQ(rep.migrations, *want) << "step " << step;
          }
        } else if (op == 18) {
          snap = c.snapshot();
          ref_snap = ref;
          live_snap = live;
          // The byte round trip lands on the same state.
          OnlinePartitioner twin(platform, AdmissionKind::kRmsResponseTime,
                                 alpha, engine);
          ASSERT_TRUE(twin.restore_bytes(c.serialize_snapshot().data(),
                                         c.serialize_snapshot().size()));
          ref.expect_matches(twin);
        } else if (snap) {
          ASSERT_TRUE(c.restore(*snap));
          ref = *ref_snap;
          live = live_snap;
        }
        ASSERT_EQ(c.resident_count(), ref.resident());
        ref.expect_matches(c);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace hetsched
