// E14: tiered constrained-deadline admission — acceptance vs latency.
//
// Replays the deterministic E14 streams (src/admit/sweep.h — the same
// generator `ctest -L sim` simulates) through a warm tiered controller on
// the two-machine unit platform, once per admission test, and reports per
// test:
//   * acceptance ratio over every arrival in the sweep;
//   * per-admit latency (median, p99, p999 ns over every admit() call);
//   * the tier histogram (how many verdicts each tier produced).
//
// Emits BENCH_admit.json (working directory) and enforces the subsystem's
// headline gate:
//   * acceptance: kAuto within 1 percentage point of kQpa (deterministic,
//     enforced in every mode including --quick);
//   * latency: kAuto median admit <= 3x the kBound median (an in-process
//     relative comparison, so it holds on shared runners; skippable with
//     --no-latency-gate for pathological hosts).
// Exit status is nonzero when an enforced gate fails, which is what the CI
// bench-smoke lane asserts.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "admit/admission_test.h"
#include "admit/sweep.h"
#include "online/online_partitioner.h"
#include "util/stats.h"

namespace hetsched {
namespace {

struct TestResult {
  AdmissionKind test = AdmissionKind::kBound;
  std::size_t arrivals = 0;
  std::size_t admitted = 0;
  std::size_t tier_counts[3] = {0, 0, 0};
  double admit_median_ns = 0;
  double admit_p99_ns = 0;
  double admit_p999_ns = 0;
  double acceptance() const {
    return arrivals == 0 ? 0.0
                         : static_cast<double>(admitted) /
                               static_cast<double>(arrivals);
  }
};

TestResult run_test(const std::vector<admit::E14Point>& points,
                    AdmissionKind test, int reps) {
  const Platform platform = admit::e14_platform();

  TestResult result;
  result.test = test;
  std::vector<double> admit_ns;

  // Counting pass (once): acceptance and the tier histogram are
  // deterministic, so they come from a single replay.  Timing reps rerun
  // the identical stream and only contribute latency samples.
  for (int rep = 0; rep < reps + 1; ++rep) {
    const bool counting = rep == 0;
    for (const admit::E14Point& pt : points) {
      OnlinePartitioner controller(platform, test, 1.0);
      controller.reserve(pt.tasks.size());
      for (const Task& t : pt.tasks) {
        const auto t0 = std::chrono::steady_clock::now();
        const AdmitDecision d = controller.admit(t);
        const auto t1 = std::chrono::steady_clock::now();
        if (!counting) {
          admit_ns.push_back(
              std::chrono::duration<double, std::nano>(t1 - t0).count());
        } else {
          ++result.arrivals;
          if (d.admitted) ++result.admitted;
          ++result.tier_counts[d.tier <= 2 ? d.tier : 2];
        }
      }
    }
  }

  const Summary lat = summarize(admit_ns);
  result.admit_median_ns = lat.p50;
  result.admit_p99_ns = lat.p99;
  result.admit_p999_ns = lat.p999;
  return result;
}

void append_json(std::string& out, const TestResult& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"test\": \"%s\", \"arrivals\": %zu, \"admitted\": %zu, "
      "\"acceptance\": %.4f, "
      "\"tier0_verdicts\": %zu, \"tier1_verdicts\": %zu, "
      "\"tier2_verdicts\": %zu, "
      "\"admit_median_ns\": %.0f, \"admit_p99_ns\": %.0f, "
      "\"admit_p999_ns\": %.0f}",
      admission_row(r.test).name, r.arrivals, r.admitted,
      r.acceptance(), r.tier_counts[0], r.tier_counts[1], r.tier_counts[2],
      r.admit_median_ns, r.admit_p99_ns, r.admit_p999_ns);
  out += buf;
}

}  // namespace
}  // namespace hetsched

int main(int argc, char** argv) {
  using namespace hetsched;
  bool quick = false;
  bool latency_gate = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--no-latency-gate") == 0) latency_gate = false;
  }
  const int reps = quick ? 2 : 8;

  const std::vector<admit::E14Point> points = admit::e14_points(quick);
  std::size_t arrivals = 0;
  for (const admit::E14Point& pt : points) arrivals += pt.tasks.size();
  std::printf("E14: tiered constrained-deadline admission "
              "(%zu streams, %zu arrivals, %d timing reps, 2 unit machines)\n",
              points.size(), arrivals, reps);
  std::printf("%-10s %8s %8s %6s %6s %6s %12s %12s %13s\n", "test",
              "arrive", "admit", "tier0", "tier1", "tier2", "admit50(ns)",
              "admit99(ns)", "admit999(ns)");

  const std::vector<AdmissionKind> tests = {
      AdmissionKind::kBound, AdmissionKind::kDbfApprox, AdmissionKind::kQpa,
      AdmissionKind::kRta, AdmissionKind::kAuto,
  };
  std::vector<TestResult> results;
  std::string json = "{\n  \"benchmark\": \"e14_admit\",\n  \"quick\": " +
                     std::string(quick ? "true" : "false") +
                     ",\n  \"tests\": [\n";
  for (std::size_t i = 0; i < tests.size(); ++i) {
    const TestResult r = run_test(points, tests[i], reps);
    std::printf("%-10s %8zu %8zu %6zu %6zu %6zu %12.0f %12.0f %13.0f\n",
                admission_row(r.test).name, r.arrivals, r.admitted,
                r.tier_counts[0], r.tier_counts[1], r.tier_counts[2],
                r.admit_median_ns, r.admit_p99_ns, r.admit_p999_ns);
    if (i != 0) json += ",\n";
    append_json(json, r);
    results.push_back(r);
  }

  const TestResult* bound = nullptr;
  const TestResult* qpa = nullptr;
  const TestResult* autor = nullptr;
  for (const TestResult& r : results) {
    if (r.test == AdmissionKind::kBound) bound = &r;
    if (r.test == AdmissionKind::kQpa) qpa = &r;
    if (r.test == AdmissionKind::kAuto) autor = &r;
  }
  const double acceptance_gap = qpa->acceptance() - autor->acceptance();
  const double latency_ratio =
      bound->admit_median_ns <= 0.0
          ? 0.0
          : autor->admit_median_ns / bound->admit_median_ns;
  const bool acceptance_ok = acceptance_gap <= 0.01;
  const bool latency_ok = latency_ratio <= 3.0;

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\n  ],\n  \"gate\": {\"acceptance_gap_vs_qpa\": %.4f, "
                "\"acceptance_ok\": %s, \"latency_ratio_vs_bound\": %.2f, "
                "\"latency_ok\": %s}\n}\n",
                acceptance_gap, acceptance_ok ? "true" : "false",
                latency_ratio, latency_ok ? "true" : "false");
  json += buf;

  const char* path = "BENCH_admit.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("[json: %s]\n", path);
  }

  std::printf("gate: auto acceptance gap vs qpa = %.4f (<= 0.0100), "
              "auto/bound median latency = %.2fx (<= 3.00x%s)\n",
              acceptance_gap, latency_ratio,
              latency_gate ? "" : ", not enforced");
  int rc = 0;
  if (!acceptance_ok) {
    std::printf("GATE FAILED: auto acceptance more than 1pp below qpa\n");
    rc = 1;
  }
  if (latency_gate && !latency_ok) {
    std::printf("GATE FAILED: auto median admit latency above 3x bound\n");
    rc = 1;
  }
  return rc;
}
