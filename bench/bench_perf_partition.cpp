// Machine-readable engine benchmark: naive scan vs. segment tree.
//
// Emits BENCH_partition.json (working directory) with one record per
// (n, m, kind) cell: median ns per full partition for both engines, the
// tree/naive speedup, and the decision-only first_fit_accepts call with
// the first-fit passes it ran per call.  At these cells' loads (alpha 2 or
// 2.41, U/S 0.7) the tree engine's accept load bound decides every call,
// so `accepts_ns` times the task ordering plus an O(m) bound, not a
// first-fit pass, and `accepts_passes_per_call` reads 0.  A second list,
// "alpha_cells", times whole min_feasible_alpha searches on the loads the
// batch experiments search (U/S about 1.06-1.35): median ns per search on
// each engine and how many of a search's probes ran a first-fit pass
// rather than being decided by the tree engine's load bounds.  CI
// smoke-runs this binary; the committed BENCH_partition.json in the repo
// root is the reference result (target: tree >= 3x naive at n=16384,
// m=128, EDF), and CI requires the alpha_cells' passes per search, exact
// counts that do not depend on the reps, to equal it.  Exit 1 if the
// engines disagree on any verdict or alpha.
//
// Methodology: per cell we build one deterministic workload (same generator
// as bench_e5_runtime), warm up once, then run `reps` timed repetitions of
// the full partitioner and report the median — medians are robust to the
// occasional scheduler hiccup without needing google-benchmark's adaptive
// iteration machinery, and the JSON stays trivially parseable.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gen/platform_gen.h"
#include "gen/taskset_gen.h"
#include "partition/first_fit.h"
#include "util/rng.h"

namespace hetsched {
namespace {

struct Workload {
  TaskSet tasks;
  Platform platform;
};

// Mirrors bench_e5_runtime's make_workload so the two benchmarks describe
// the same distribution.
Workload make_workload(std::size_t n, std::size_t m) {
  Rng rng(0xE5 + n * 31 + m);
  Workload w;
  w.platform =
      geometric_platform(m, std::min(1.2, 1.0 + 8.0 / static_cast<double>(m)));
  TasksetSpec spec;
  spec.n = n;
  spec.max_task_utilization = w.platform.max_speed();
  spec.total_utilization =
      std::min(0.7 * w.platform.total_speed(),
               0.3 * static_cast<double>(n) * spec.max_task_utilization);
  spec.periods = PeriodSpec::log_uniform(10, 1000);
  w.tasks = generate_taskset(rng, spec);
  return w;
}

// The shared kernel's interpolated p50 reproduces the classic midpoint
// median exactly (odd n: the middle sample; even n: the mean of the two
// middle samples), so routing through it changes no reference numbers.
template <typename Fn>
double time_ns(Fn&& fn, int reps) {
  return bench::time_summary_ns(fn, reps).p50;
}

struct Cell {
  std::size_t n = 0;
  std::size_t m = 0;
  AdmissionKind kind = AdmissionKind::kEdf;
  double alpha = 2.0;
  double naive_ns = 0;
  double tree_ns = 0;
  double accepts_ns = 0;
  double accepts_passes = 0;  // first-fit passes per accepts call
  bool feasible = false;
  double speedup() const { return naive_ns / tree_ns; }
};

Cell run_cell(std::size_t n, std::size_t m, AdmissionKind kind, double alpha,
              int reps) {
  const Workload w = make_workload(n, m);
  Cell cell;
  cell.n = n;
  cell.m = m;
  cell.kind = kind;
  cell.alpha = alpha;

  const PartitionResult naive_res =
      first_fit_partition(w.tasks, w.platform, kind, alpha,
                          PartitionEngine::kNaive);
  const PartitionResult tree_res =
      first_fit_partition(w.tasks, w.platform, kind, alpha,
                          PartitionEngine::kSegmentTree);
  if (naive_res.feasible != tree_res.feasible) {
    std::fprintf(stderr, "ENGINE MISMATCH at n=%zu m=%zu\n", n, m);
    std::exit(1);
  }
  cell.feasible = tree_res.feasible;

  cell.naive_ns = time_ns(
      [&] {
        const PartitionResult r = first_fit_partition(
            w.tasks, w.platform, kind, alpha, PartitionEngine::kNaive);
        if (r.feasible != cell.feasible) std::exit(2);
      },
      reps);
  cell.tree_ns = time_ns(
      [&] {
        const PartitionResult r = first_fit_partition(
            w.tasks, w.platform, kind, alpha, PartitionEngine::kSegmentTree);
        if (r.feasible != cell.feasible) std::exit(2);
      },
      reps);
  PartitionScratch scratch;
  std::size_t accepts_calls = 0;
  cell.accepts_ns = time_ns(
      [&] {
        ++accepts_calls;
        if (first_fit_accepts(w.tasks, w.platform, kind, alpha, scratch) !=
            cell.feasible) {
          std::exit(2);
        }
      },
      reps);
  cell.accepts_passes = static_cast<double>(scratch.first_fit_passes) /
                        static_cast<double>(accepts_calls);
  return cell;
}

// min_feasible_alpha searches over `instances` tasksets shaped like the
// batch experiments' inputs: a geometric platform of total speed n / 20,
// total utilization r * S with r stratified over [0.89, 1.21), which
// rounding each exec up to at least 1 inflates to U/S in about
// [1.06, 1.35] — overloaded at alpha = 1, so every search bisects.
struct AlphaCell {
  std::size_t n = 0;
  std::size_t m = 0;
  AdmissionKind kind = AdmissionKind::kEdf;
  std::size_t instances = 0;
  double naive_ns = 0;  // median per search
  double tree_ns = 0;
  double naive_passes = 0;  // first-fit passes per search
  double tree_passes = 0;
  double speedup() const { return naive_ns / tree_ns; }
};

constexpr double kAlphaHi = 4.0;

AlphaCell run_alpha_cell(std::size_t n, std::size_t m, AdmissionKind kind,
                         int reps) {
  constexpr std::size_t kInstances = 16;
  const Platform platform =
      geometric_platform(m, 1.0625, 0.05 * static_cast<double>(n));
  Rng rng(0xBA7C + n * 31 + m);
  std::vector<TaskSet> sets;
  for (std::size_t i = 0; i < kInstances; ++i) {
    const double stratum = static_cast<double>(i) + rng.next_double();
    TasksetSpec spec;
    spec.n = n;
    spec.total_utilization =
        (0.89 + 0.32 * stratum / static_cast<double>(kInstances)) *
        platform.total_speed();
    spec.max_task_utilization = 1.0;
    spec.periods = PeriodSpec::log_uniform(10, 1000);
    sets.push_back(generate_taskset(rng, spec));
  }

  AlphaCell cell;
  cell.n = n;
  cell.m = m;
  cell.kind = kind;
  cell.instances = kInstances;
  std::vector<std::optional<double>> alpha(kInstances);
  const auto time_engine = [&](PartitionEngine engine, double& ns,
                               double& passes) {
    // One search per instance: checks alpha and counts the passes.
    PartitionScratch scratch;
    for (std::size_t i = 0; i < kInstances; ++i) {
      const auto a = min_feasible_alpha(sets[i], platform, kind, kAlphaHi,
                                        scratch, engine);
      if (engine == PartitionEngine::kNaive) {
        alpha[i] = a;
      } else if (a != alpha[i]) {
        std::fprintf(stderr, "ALPHA MISMATCH at n=%zu m=%zu %s instance %zu\n",
                     n, m, to_string(kind).c_str(), i);
        std::exit(1);
      }
    }
    passes = static_cast<double>(scratch.first_fit_passes) /
             static_cast<double>(kInstances);
    std::size_t next = 0;
    ns = time_ns(
        [&] {
          const std::size_t i = next++ % kInstances;
          if (min_feasible_alpha(sets[i], platform, kind, kAlphaHi, scratch,
                                 engine) != alpha[i]) {
            std::exit(2);
          }
        },
        reps);
  };
  time_engine(PartitionEngine::kNaive, cell.naive_ns, cell.naive_passes);
  time_engine(PartitionEngine::kSegmentTree, cell.tree_ns, cell.tree_passes);
  return cell;
}

void append_json(std::string& out, const AlphaCell& c) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"n\": %zu, \"m\": %zu, \"kind\": \"%s\", \"instances\": %zu, "
      "\"naive_ns\": %.0f, \"tree_ns\": %.0f, "
      "\"naive_passes_per_search\": %.2f, \"tree_passes_per_search\": %.2f, "
      "\"speedup_tree_vs_naive\": %.2f}",
      c.n, c.m, to_string(c.kind).c_str(), c.instances, c.naive_ns,
      c.tree_ns, c.naive_passes, c.tree_passes, c.speedup());
  out += buf;
}

void append_json(std::string& out, const Cell& c) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"n\": %zu, \"m\": %zu, \"kind\": \"%s\", \"alpha\": %.3f, "
      "\"feasible\": %s, \"naive_ns\": %.0f, \"tree_ns\": %.0f, "
      "\"accepts_ns\": %.0f, \"accepts_passes_per_call\": %.2f, "
      "\"speedup_tree_vs_naive\": %.2f}",
      c.n, c.m, to_string(c.kind).c_str(), c.alpha,
      c.feasible ? "true" : "false",
      c.naive_ns, c.tree_ns, c.accepts_ns, c.accepts_passes, c.speedup());
  out += buf;
}

}  // namespace
}  // namespace hetsched

int main(int argc, char** argv) {
  using namespace hetsched;
  // --quick: CI smoke mode; fewer reps, same grid.
  // --no-target-gate: report the speedup but exit 0 even if the 3x target
  // is missed — for noisy shared runners where timings aren't trustworthy.
  int reps = 21;
  bool gate = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") reps = 5;
    if (arg == "--no-target-gate") gate = false;
  }

  struct Spec {
    std::size_t n, m;
    AdmissionKind kind;
    double alpha;
  };
  const std::vector<Spec> grid = {
      {1024, 32, AdmissionKind::kEdf, 2.0},
      {4096, 64, AdmissionKind::kEdf, 2.0},
      {16384, 128, AdmissionKind::kEdf, 2.0},
      {16384, 512, AdmissionKind::kEdf, 2.0},
      {16384, 128, AdmissionKind::kRmsLiuLayland, 2.41},
      {16384, 128, AdmissionKind::kRmsHyperbolic, 2.41},
  };

  std::printf("engine benchmark: naive scan vs segment tree (%d reps/cell)\n",
              reps);
  std::printf("%8s %6s %18s %12s %12s %12s %13s %9s\n", "n", "m", "kind",
              "naive(us)", "tree(us)", "accepts(us)", "accepts pass",
              "speedup");

  std::string json = "{\n  \"benchmark\": \"partition_engines\",\n"
                     "  \"reps_per_cell\": " + std::to_string(reps) +
                     ",\n  \"cells\": [\n";
  bool first = true;
  bool target_met = true;
  for (const Spec& s : grid) {
    const Cell c = run_cell(s.n, s.m, s.kind, s.alpha, reps);
    std::printf("%8zu %6zu %18s %12.1f %12.1f %12.1f %13.2f %8.2fx\n", c.n,
                c.m, to_string(c.kind).c_str(), c.naive_ns / 1e3,
                c.tree_ns / 1e3, c.accepts_ns / 1e3, c.accepts_passes,
                c.speedup());
    if (!first) json += ",\n";
    first = false;
    append_json(json, c);
    if (c.n == 16384 && c.m == 128 && c.kind == AdmissionKind::kEdf &&
        c.speedup() < 3.0) {
      target_met = false;
    }
  }
  json += "\n  ],\n  \"alpha_cells\": [\n";
  std::printf("\nmin_feasible_alpha searches, U/S ~1.06-1.35 (%d reps/cell)\n",
              reps);
  std::printf("%8s %6s %18s %12s %12s %12s %12s %9s\n", "n", "m", "kind",
              "naive(us)", "tree(us)", "naive pass", "tree pass", "speedup");
  first = true;
  for (const AdmissionKind kind :
       {AdmissionKind::kEdf, AdmissionKind::kRmsLiuLayland,
        AdmissionKind::kRmsHyperbolic}) {
    const AlphaCell c = run_alpha_cell(16384, 128, kind, reps);
    std::printf("%8zu %6zu %18s %12.1f %12.1f %12.2f %12.2f %8.2fx\n", c.n,
                c.m, to_string(c.kind).c_str(), c.naive_ns / 1e3,
                c.tree_ns / 1e3, c.naive_passes, c.tree_passes, c.speedup());
    if (!first) json += ",\n";
    first = false;
    append_json(json, c);
  }
  json += "\n  ],\n  \"target\": \"tree >= 3x naive at n=16384 m=128 EDF\",\n";
  json += std::string("  \"target_met\": ") + (target_met ? "true" : "false") +
          "\n}\n";

  const char* path = "BENCH_partition.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("[json: %s]\n", path);
  }
  if (!target_met) {
    std::fprintf(stderr, "speedup target NOT met at n=16384 m=128 EDF\n");
    if (gate) return 1;
  }
  return 0;
}
