// E11 — Constrained-deadline extension (beyond the paper).
//
// The paper's model is implicit-deadline; this experiment runs the same
// first-fit shape on constrained-deadline task sets with DBF-based
// admission and measures
//   * acceptance of exact-QPA vs. linear-approximate admission as the
//     deadline tightness d/p shrinks, and
//   * the cost of tight deadlines: acceptance at fixed utilization as the
//     deadline fraction sweeps from 1.0 (implicit) down to 0.3.
// Expected shape: both testers degrade as deadlines tighten (dbf grows at
// fixed utilization), the approximate test tracking the exact one from
// below; at d/p = 1 the numbers reproduce the implicit-deadline EDF curve.
#include <algorithm>
#include <cmath>

#include "bench_common.h"
#include "gen/platform_gen.h"
#include "gen/taskset_gen.h"
#include "partition/first_fit.h"
#include "util/rng.h"

namespace hetsched {
namespace {

std::vector<Task> constrain(const TaskSet& tasks, double frac, Rng& rng) {
  std::vector<Task> out;
  out.reserve(tasks.size());
  for (const Task& t : tasks) {
    // Deadline uniformly in [frac * p, p], at least exec (else trivially
    // infeasible on a unit machine regardless of partitioning).
    const auto lo = static_cast<std::int64_t>(
        std::llround(frac * static_cast<double>(t.period)));
    const std::int64_t d =
        std::clamp<std::int64_t>(rng.uniform_int(lo, t.period), 1, t.period);
    out.push_back(Task{t.exec, t.period, d});
  }
  return out;
}

void run_tightness(Table& table, double norm_util, std::size_t trials) {
  const Platform platform = geometric_platform(4, 1.5, 6.0);
  for (const double frac : {1.0, 0.9, 0.7, 0.5, 0.3}) {
    std::size_t qpa_ok = 0, approx_ok = 0, approx3_ok = 0;
    Rng rng(0x11E);
    for (std::size_t trial = 0; trial < trials; ++trial) {
      TasksetSpec spec;
      spec.n = 12;
      spec.max_task_utilization = platform.max_speed();
      spec.total_utilization =
          std::min(norm_util * platform.total_speed(),
                   0.35 * 12 * spec.max_task_utilization);
      spec.periods = PeriodSpec::uniform(20, 400);
      const TaskSet base = generate_taskset(rng, spec);
      const auto tasks = constrain(base, frac, rng);

      qpa_ok += first_fit_partition_constrained(
                    tasks, platform, AdmissionKind::kDbfQpa, 1.0)
                    .feasible;
      approx3_ok += first_fit_partition_constrained(
                        tasks, platform, AdmissionKind::kDbfThreePoint, 1.0)
                        .feasible;
      approx_ok += first_fit_partition_constrained(
                       tasks, platform, AdmissionKind::kDbfLinear, 1.0)
                       .feasible;
    }
    table.add_row({Table::fmt(norm_util, 2), Table::fmt(frac, 1),
                   Table::fmt(static_cast<double>(qpa_ok) /
                                  static_cast<double>(trials),
                              4),
                   Table::fmt(static_cast<double>(approx3_ok) /
                                  static_cast<double>(trials),
                              4),
                   Table::fmt(static_cast<double>(approx_ok) /
                                  static_cast<double>(trials),
                              4)});
  }
}

}  // namespace
}  // namespace hetsched

int main() {
  using namespace hetsched;
  bench::print_header(
      "E11", "constrained-deadline extension: DBF admission vs tightness");
  bench::WallTimer timer;
  Table table({"U/S", "d/p floor", "ff-dbf-qpa", "ff-dbf-approx3",
               "ff-dbf-approx1"});
  run_tightness(table, 0.60, 200);
  run_tightness(table, 0.80, 200);
  bench::print_section("n=12 tasks, m=4 geometric (total speed 6)");
  bench::emit(table, "e11_constrained");
  std::printf("\n[E11 done in %.1fs]\n", timer.seconds());
  return 0;
}
