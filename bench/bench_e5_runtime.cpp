// E5 — Runtime scaling of the feasibility test (google-benchmark).
//
// The paper claims O(n log n + n m).  We time:
//   * the first-fit partitioner over an (n, m) grid — expect ~linear in n*m,
//   * the closed-form LP augmentation bound — expect ~n log n,
//   * the explicit simplex on the paper's LP — the expensive analysis-only
//     path the feasibility test avoids (the point of the paper's "one need
//     not solve the LP" remark).
// google-benchmark reports ns/op; the per-item column (n*m) exposes the
// claimed linearity directly.
#include <benchmark/benchmark.h>

#include "gen/platform_gen.h"
#include "gen/taskset_gen.h"
#include "dbf/demand_bound.h"
#include "lp/feasibility_lp.h"
#include "partition/first_fit.h"
#include "util/rng.h"

namespace hetsched {
namespace {

struct Workload {
  TaskSet tasks;
  Platform platform;
};

Workload make_workload(std::size_t n, std::size_t m) {
  Rng rng(0xE5 + n * 31 + m);
  Workload w;
  w.platform = geometric_platform(m, std::min(1.2, 1.0 + 8.0 / static_cast<double>(m)));
  TasksetSpec spec;
  spec.n = n;
  spec.max_task_utilization = w.platform.max_speed();
  // ~70% load keeps the partitioner exercising most machines without
  // failing instantly.
  spec.total_utilization =
      std::min(0.7 * w.platform.total_speed(),
               0.3 * static_cast<double>(n) * spec.max_task_utilization);
  spec.periods = PeriodSpec::log_uniform(10, 1000);
  w.tasks = generate_taskset(rng, spec);
  return w;
}

void BM_FirstFitEdf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const Workload w = make_workload(n, m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        first_fit_partition(w.tasks, w.platform, AdmissionKind::kEdf, 2.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * m));
  state.counters["n*m"] = static_cast<double>(n * m);
}
BENCHMARK(BM_FirstFitEdf)
    ->ArgsProduct({{64, 256, 1024, 4096, 16384}, {2, 8, 32, 128}})
    ->Unit(benchmark::kMicrosecond);

// Engine head-to-head on the full partitioner: the naive scan is the paper's
// O(n m) loop, the segment tree the O(n log m) replacement.  Same inputs,
// bit-identical outputs (tests/engine_equivalence_test.cpp).
void BM_FirstFitEdfNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const Workload w = make_workload(n, m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(first_fit_partition(
        w.tasks, w.platform, AdmissionKind::kEdf, 2.0, PartitionEngine::kNaive));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * m));
}
BENCHMARK(BM_FirstFitEdfNaive)
    ->ArgsProduct({{1024, 16384}, {32, 128}})
    ->Unit(benchmark::kMicrosecond);

void BM_FirstFitEdfTree(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const Workload w = make_workload(n, m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        first_fit_partition(w.tasks, w.platform, AdmissionKind::kEdf, 2.0,
                            PartitionEngine::kSegmentTree));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * m));
}
BENCHMARK(BM_FirstFitEdfTree)
    ->ArgsProduct({{1024, 16384}, {32, 128}})
    ->Unit(benchmark::kMicrosecond);

// Decision-only accept path with a warm scratch: what the sweeps actually
// run.  No PartitionResult, no Task copies, no allocation after the first
// call.
void BM_FirstFitAcceptsScratch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const Workload w = make_workload(n, m);
  PartitionScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(first_fit_accepts(
        w.tasks, w.platform, AdmissionKind::kEdf, 2.0, scratch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * m));
}
BENCHMARK(BM_FirstFitAcceptsScratch)
    ->ArgsProduct({{1024, 16384}, {32, 128}})
    ->Unit(benchmark::kMicrosecond);

void BM_FirstFitRmsLiuLayland(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const Workload w = make_workload(n, m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(first_fit_partition(
        w.tasks, w.platform, AdmissionKind::kRmsLiuLayland, 2.41));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * m));
}
BENCHMARK(BM_FirstFitRmsLiuLayland)
    ->ArgsProduct({{256, 4096}, {8, 64}})
    ->Unit(benchmark::kMicrosecond);

void BM_MinLpAugmentation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Workload w = make_workload(n, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(min_lp_augmentation(w.tasks, w.platform));
  }
}
BENCHMARK(BM_MinLpAugmentation)
    ->Arg(256)
    ->Arg(4096)
    ->Arg(65536)
    ->Unit(benchmark::kMicrosecond);

void BM_LpOracle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Workload w = make_workload(n, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp_feasible_oracle(w.tasks, w.platform));
  }
}
BENCHMARK(BM_LpOracle)->Arg(256)->Arg(4096)->Unit(benchmark::kMicrosecond);

// The analysis-only path: building and solving the explicit LP.  Orders of
// magnitude slower than the combinatorial test — the reason the paper notes
// the feasibility test never needs to solve it.
void BM_SimplexFeasibility(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Workload w = make_workload(n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp_feasible_simplex(w.tasks, w.platform));
  }
}
BENCHMARK(BM_SimplexFeasibility)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

// Exact-RTA admission: the pseudo-polynomial upgrade of the RMS bound.
void BM_FirstFitRtaAdmission(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Workload w = make_workload(n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(first_fit_partition(
        w.tasks, w.platform, AdmissionKind::kRmsResponseTime, 2.0));
  }
}
BENCHMARK(BM_FirstFitRtaAdmission)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

// Constrained-deadline QPA test on one machine.
void BM_DbfQpa(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(0xE5D + n);
  std::vector<Task> tasks;
  double util = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t period = rng.uniform_int(20, 2000);
    const std::int64_t deadline = rng.uniform_int(period / 2, period);
    const std::int64_t exec = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(0.6 / static_cast<double>(n) *
                                     static_cast<double>(period)));
    tasks.push_back(Task{exec, period, deadline});
    util += tasks.back().utilization();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(edf_dbf_feasible_qpa(tasks, Rational(1)));
  }
}
BENCHMARK(BM_DbfQpa)->Arg(8)->Arg(32)->Arg(128)->Unit(
    benchmark::kMicrosecond);

// Augmentation bisection: ~20 first-fit runs.
void BM_MinFeasibleAlpha(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Workload w = make_workload(n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        min_feasible_alpha(w.tasks, w.platform, AdmissionKind::kEdf, 4.0));
  }
}
BENCHMARK(BM_MinFeasibleAlpha)
    ->Arg(64)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace hetsched

BENCHMARK_MAIN();
