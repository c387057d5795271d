// Proves that after warm-up admit() performs no heap allocation for any
// admission kind or admission test — the slack-form kinds, kRmsResponseTime
// and every tiered test, whose escalations run inline on the server's
// owner loops — and that depart() stays clean too once the free list has
// grown.  The batch accept path and the alpha search through a warm
// PartitionScratch are held to the same bar.  This lives in its own test
// binary because it replaces global operator new — instrumenting every
// other suite with the counter would be noise.
//
// Methodology: admit a full wave (warm-up grows the slot arena, the
// per-machine resident lists, and the free list via the departures), depart
// everything, then admit the same wave again and assert the allocation
// counter did not move.  The second wave reuses freed slots LIFO and lands
// on the same machines (same canonical state), so no vector regrows.  The
// escalating cases repeat that admit-then-depart cycle 16 times (~1,000
// warm admits), so every escalation tier runs against warm demand mirrors.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "gen/platform_gen.h"
#include "gen/taskset_gen.h"
#include "online/online_partitioner.h"
#include "partition/first_fit.h"
#include "util/rng.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_nothrow(std::size_t size) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// The nothrow forms are replaced too (std::stable_sort's temporary buffer
// uses them): every form must pair with the free() below, or sanitizer
// builds report an allocation/deallocation mismatch.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hetsched {
namespace {

std::vector<Task> wave() {
  // Mixed utilizations so the wave spreads over several machines.
  std::vector<Task> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back(Task{1 + (i * 7) % 9, 10 + (i * 13) % 90});
  }
  return tasks;
}

class AllocTest : public ::testing::TestWithParam<AdmissionKind> {};

TEST_P(AllocTest, WarmAdmitAndDepartAreAllocationFree) {
  const AdmissionKind kind = GetParam();
  for (const PartitionEngine engine :
       {PartitionEngine::kNaive, PartitionEngine::kSegmentTree}) {
    OnlinePartitioner c(Platform::identical(8), kind, 2.0, engine);
    const std::vector<Task> tasks = wave();
    c.reserve(tasks.size());

    // Warm-up: admit everything, then depart everything (grows free list).
    std::vector<OnlineTaskId> ids;
    ids.reserve(tasks.size());
    for (const Task& t : tasks) {
      const AdmitDecision d = c.admit(t);
      ASSERT_TRUE(d.admitted);
      ids.push_back(d.id);
    }
    for (const OnlineTaskId id : ids) ASSERT_TRUE(c.depart(id));

    // Measured wave: same tasks, warm controller.
    std::size_t k = 0;
    const std::size_t before = g_allocations.load();
    for (const Task& t : tasks) {
      const AdmitDecision d = c.admit(t);
      if (d.admitted) ids[k++] = d.id;
    }
    const std::size_t admit_allocs = g_allocations.load() - before;
    EXPECT_EQ(admit_allocs, 0u)
        << "engine " << (engine == PartitionEngine::kNaive ? "naive" : "tree");

    // Warm departs are allocation-free as well (free list has capacity).
    const std::size_t before_depart = g_allocations.load();
    for (std::size_t i = 0; i < k; ++i) ASSERT_TRUE(c.depart(ids[i]));
    EXPECT_EQ(g_allocations.load() - before_depart, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(SlackFormKinds, AllocTest,
                         ::testing::Values(AdmissionKind::kEdf,
                                           AdmissionKind::kRmsLiuLayland,
                                           AdmissionKind::kRmsHyperbolic));

// Kinds and tests whose tier 0 rejects escalate: kRmsResponseTime (a fold
// that never admits, then response-time analysis) and every tiered test.
struct EscalationCase {
  std::string name;
  AdmissionKind test;
};

class EscalationAllocTest : public ::testing::TestWithParam<EscalationCase> {};

// Dense enough for four unit machines that most arrivals fail tier 0 and
// many are rejected outright; constrained deadlines for the tiered tests.
std::vector<Task> dense_wave(bool constrained) {
  std::vector<Task> tasks;
  for (int i = 0; i < 64; ++i) {
    Task t{1 + (i * 7) % 9, 10 + (i * 13) % 90};
    if (constrained && i % 4 != 0) {
      t.deadline = std::max<std::int64_t>(t.exec, t.period * (4 + i % 6) / 10);
    }
    tasks.push_back(t);
  }
  return tasks;
}

TEST_P(EscalationAllocTest, WarmAdmitAndDepartAreAllocationFree) {
  const EscalationCase& tc = GetParam();
  for (const PartitionEngine engine :
       {PartitionEngine::kNaive, PartitionEngine::kSegmentTree}) {
    OnlinePartitioner c(Platform::identical(4), tc.test, 1.5, engine);
    const std::vector<Task> tasks = dense_wave(c.tiered());
    c.reserve(tasks.size());
    std::vector<OnlineTaskId> ids(tasks.size());

    // One cycle: admit the wave, then depart whatever was admitted.  The
    // first cycle warms every vector up; later cycles replay identical
    // decisions from the same empty state.
    std::size_t escalated = 0;
    const auto cycle = [&] {
      std::size_t k = 0;
      for (const Task& t : tasks) {
        const AdmitDecision d = c.admit(t);
        if (d.tier != admit::kTierBound) ++escalated;
        if (d.admitted) ids[k++] = d.id;
      }
      for (std::size_t i = 0; i < k; ++i) ASSERT_TRUE(c.depart(ids[i]));
    };
    cycle();
    const std::size_t before = g_allocations.load();
    for (int rep = 0; rep < 16; ++rep) cycle();  // ~1,000 warm admits
    EXPECT_EQ(g_allocations.load() - before, 0u)
        << tc.name << " engine "
        << (engine == PartitionEngine::kNaive ? "naive" : "tree");
    if (c.tiered() && tc.test != AdmissionKind::kBound) {
      EXPECT_GT(escalated, 0u) << "the wave never reached an escalation tier";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EscalatingTests, EscalationAllocTest,
    ::testing::Values(
        EscalationCase{"rms_rta", AdmissionKind::kRmsResponseTime},
        EscalationCase{"bound", AdmissionKind::kBound},
        EscalationCase{"dbf_approx", AdmissionKind::kDbfApprox},
        EscalationCase{"qpa", AdmissionKind::kQpa},
        EscalationCase{"rta", AdmissionKind::kRta},
        EscalationCase{"auto", AdmissionKind::kAuto}),
    [](const ::testing::TestParamInfo<EscalationCase>& p) {
      return p.param.name;
    });

// The batch path: 2048 tasks with log-uniform periods 10-1000 repeat many
// utilizations, so the ordering's radix path meets long double-equal runs;
// the load sits above capacity at alpha = 1, so the search bisects.
class BatchAllocTest : public ::testing::TestWithParam<AdmissionKind> {};

TEST_P(BatchAllocTest, WarmAcceptsAndAlphaSearchAreAllocationFree) {
  const AdmissionKind kind = GetParam();
  const Platform platform = geometric_platform(32, 1.0625, 0.05 * 2048);
  Rng rng(0xBA7C);
  TasksetSpec spec;
  spec.n = 2048;
  spec.total_utilization = 1.1 * platform.total_speed();
  spec.periods = PeriodSpec::log_uniform(10, 1000);
  const TaskSet tasks = generate_taskset(rng, spec);
  const std::vector<std::size_t> order = tasks.order_by_utilization_desc();
  std::size_t repeats = 0;
  for (std::size_t k = 1; k < order.size(); ++k) {
    // hetsched-lint: allow(float-compare) counting exact repeats
    if (tasks[order[k]].utilization() == tasks[order[k - 1]].utilization()) {
      ++repeats;
    }
  }
  ASSERT_GT(repeats, 100u) << "the taskset has too few repeated utilizations";

  for (const PartitionEngine engine :
       {PartitionEngine::kNaive, PartitionEngine::kSegmentTree}) {
    const char* name = engine == PartitionEngine::kNaive ? "naive" : "tree";
    PartitionScratch scratch;
    const bool warm_accept =
        first_fit_accepts(tasks, platform, kind, 1.5, scratch, engine);
    const auto warm_alpha =
        min_feasible_alpha(tasks, platform, kind, 4.0, scratch, engine);
    ASSERT_TRUE(warm_alpha.has_value()) << name;
    EXPECT_GT(*warm_alpha, 1.0) << name;

    std::size_t before = g_allocations.load();
    EXPECT_EQ(first_fit_accepts(tasks, platform, kind, 1.5, scratch, engine),
              warm_accept);
    EXPECT_EQ(g_allocations.load() - before, 0u)
        << "first_fit_accepts, engine " << name;

    before = g_allocations.load();
    const auto alpha =
        min_feasible_alpha(tasks, platform, kind, 4.0, scratch, engine);
    EXPECT_EQ(g_allocations.load() - before, 0u)
        << "min_feasible_alpha, engine " << name;
    EXPECT_EQ(alpha, warm_alpha) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(SlackFormKinds, BatchAllocTest,
                         ::testing::Values(AdmissionKind::kEdf,
                                           AdmissionKind::kRmsLiuLayland,
                                           AdmissionKind::kRmsHyperbolic));

TEST(AllocCounter, CountsAtAll) {
  // Sanity-check the instrumentation itself: a vector growth must count.
  const std::size_t before = g_allocations.load();
  std::vector<int>* v = new std::vector<int>(100);
  delete v;
  EXPECT_GT(g_allocations.load(), before);
}

}  // namespace
}  // namespace hetsched
