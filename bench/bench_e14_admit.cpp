// E14: tiered constrained-deadline admission — acceptance vs latency.
//
// Replays the deterministic E14 streams (src/admit/sweep.h — the same
// generator `ctest -L sim` simulates) through a warm tiered controller on
// the two-machine unit platform, once per admission test, and reports per
// test:
//   * acceptance ratio over every arrival in the sweep;
//   * per-admit latency (median, p99, p999 ns over every admit() call);
//   * the tier histogram (how many verdicts each tier produced);
//   * for the QPA tests, the QPA work of each call (visits plus
//     busy-period steps, each O(n): total, p99, p999, max).  It is a
//     count, so it repeats exactly where the ns percentiles swing with
//     the host.
// The timing reps interleave the five tests (rep 1 of each, then rep 2 of
// each, ...), so host noise lands on all of them alike.
//
// The tier-1 cells time single tier-1 calls on one unit machine holding
// 32, 128 and 256 residents with periods near 1e6 (ROADMAP item 1's
// shapes): the escalation's linear tier 1 against the O(n^2) approximate
// DBF it replaced, which must agree.
//
// Emits BENCH_admit.json (working directory) and enforces the subsystem's
// headline gate:
//   * acceptance: kAuto within 1 percentage point of kQpa (deterministic,
//     enforced in every mode including --quick);
//   * latency: the median over timing reps of the per-rep ratio kAuto
//     median admit / kBound median admit is <= 3 (an in-process relative
//     comparison, so it holds on shared runners; skippable with
//     --no-latency-gate for pathological hosts);
//   * the tier-1 cells' two paths agree on every verdict;
//   * the first fit replayed for the QPA work places every task where the
//     controller does.
// Exit status is nonzero when an enforced gate fails, which is what the CI
// bench-smoke lane asserts.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "admit/admission_test.h"
#include "admit/sweep.h"
#include "dbf/demand_bound.h"
#include "online/online_partitioner.h"
#include "util/rng.h"
#include "util/stats.h"

namespace hetsched {
namespace {

struct TestResult {
  AdmissionKind test = AdmissionKind::kBound;
  std::size_t arrivals = 0;
  std::size_t admitted = 0;
  std::size_t tier_counts[3] = {0, 0, 0};
  std::vector<double> admit_ns;  // every timed admit, all reps
  double admit_median_ns = 0;
  double admit_p99_ns = 0;
  double admit_p999_ns = 0;
  std::vector<std::int64_t> qpa_work;  // per QPA call, sorted
  double acceptance() const {
    return arrivals == 0 ? 0.0
                         : static_cast<double>(admitted) /
                               static_cast<double>(arrivals);
  }
};

// Appends the QPA work of each QPA call the controller makes for `t`.
// First fit offers t to the machines in index order until one accepts,
// and machine_admits decides each offer as the controller's escalation
// does; an offer decided at the exact tier ran QPA, and QPA on the same
// set repeats the same work.  Returns the machine that accepts, or
// kNoMachine.
std::size_t record_qpa_work(const OnlinePartitioner& controller,
                            const admit::AdmitConfig& cfg, const Task& t,
                            std::vector<std::int64_t>& work) {
  const Platform& platform = controller.platform();
  const Task ct = *admit::inflate(cfg, t);
  for (std::size_t j = 0; j < platform.size(); ++j) {
    std::vector<Task> with = controller.machine_tasks(j);
    const admit::TierVerdict v = admit::machine_admits(
        cfg, with, ct, platform.speed(j), platform.speed_exact(j));
    if (v.tier == admit::kTierExact) {
      with.push_back(ct);
      const QpaVerdict q = edf_dbf_qpa_verdict(with, platform.speed_exact(j));
      work.push_back(q.visits + q.steps);
    }
    if (v.accept) return j;
  }
  return OnlinePartitioner::kNoMachine;
}

// Counting pass: acceptance, the tier histogram and the QPA work are
// deterministic, so they come from a single replay.  False when the
// first fit replayed for the QPA work places a task where the
// controller did not.
bool count_test(const std::vector<admit::E14Point>& points, AdmissionKind test,
                TestResult& result) {
  const Platform platform = admit::e14_platform();
  const bool qpa = admission_row(test).exact == ExactTest::kQpa;
  admit::AdmitConfig cfg;
  cfg.test = test;
  result.test = test;
  bool same = true;
  for (const admit::E14Point& pt : points) {
    OnlinePartitioner controller(platform, test, 1.0);
    controller.reserve(pt.tasks.size());
    for (const Task& t : pt.tasks) {
      const std::size_t j =
          qpa ? record_qpa_work(controller, cfg, t, result.qpa_work) : 0;
      const AdmitDecision d = controller.admit(t);
      const std::size_t placed =
          d.admitted ? d.machine : OnlinePartitioner::kNoMachine;
      same = same && (!qpa || j == placed);
      ++result.arrivals;
      if (d.admitted) ++result.admitted;
      ++result.tier_counts[d.tier <= 2 ? d.tier : 2];
    }
  }
  std::sort(result.qpa_work.begin(), result.qpa_work.end());
  return same;
}

// The q-quantile of a sorted sample by nearest rank, a value it holds;
// 0 when empty.
std::int64_t nearest_rank(const std::vector<std::int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

struct QpaWork {
  std::size_t calls;
  std::int64_t total, p99, p999, max;
};

QpaWork qpa_work_of(const TestResult& r) {
  const std::vector<std::int64_t>& w = r.qpa_work;
  std::int64_t total = 0;
  for (const std::int64_t x : w) total += x;
  return {w.size(), total, nearest_rank(w, 0.99), nearest_rank(w, 0.999),
          w.empty() ? 0 : w.back()};
}

// One timing rep: replays the identical streams and returns the latency
// of every admit() call.
std::vector<double> time_test(const std::vector<admit::E14Point>& points,
                              AdmissionKind test) {
  const Platform platform = admit::e14_platform();
  std::vector<double> admit_ns;
  for (const admit::E14Point& pt : points) {
    OnlinePartitioner controller(platform, test, 1.0);
    controller.reserve(pt.tasks.size());
    for (const Task& t : pt.tasks) {
      const auto t0 = std::chrono::steady_clock::now();
      controller.admit(t);
      const auto t1 = std::chrono::steady_clock::now();
      admit_ns.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
    }
  }
  return admit_ns;
}

struct Tier1Cell {
  std::size_t residents = 0;
  bool accept = false;
  bool agree = false;
  double linear_ns = 0;
  double quadratic_ns = 0;
};

// ns per call of `call`, the median over `reps` batches of `batch` calls.
template <class Call>
double ns_per_call(int reps, int batch, Call call) {
  std::vector<double> per_call;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < batch; ++i) call();
    const auto t1 = std::chrono::steady_clock::now();
    per_call.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count() / batch);
  }
  return summarize(per_call).p50;
}

// One unit machine holding `n` residents with periods in 1e6 +- 5e4 and
// deadlines in [0.6 p, p], at U ~ 0.7, and a candidate of the same shape:
// tier 1 accepts, so both paths visit every probe.  Times the
// escalation's tier 1 (dbf-approx: tier 1 alone) and the O(n^2)
// approximate DBF over the same set.
Tier1Cell time_tier1(std::size_t n, int reps) {
  Rng rng(20261019 + n);
  const Rational speed(1);
  std::vector<Task> with;
  for (std::size_t i = 0; i <= n; ++i) {
    const std::int64_t p = rng.uniform_int(950000, 1050000);
    const double u = 0.7 / static_cast<double>(n + 1) * rng.uniform(0.5, 1.5);
    const std::int64_t c =
        std::max<std::int64_t>(1, std::llround(u * static_cast<double>(p)));
    const std::int64_t d = std::max<std::int64_t>(
        c, std::llround(rng.uniform(0.6, 1.0) * static_cast<double>(p)));
    with.push_back(Task{c, p, d});
  }
  const Task candidate = with.back();
  admit::MachineDemand demand;
  demand.reserve(n + 1);
  for (std::size_t i = 0; i < n; ++i) demand.push(with[i]);

  Tier1Cell cell;
  cell.residents = n;
  const auto linear = [&] {
    return admit::escalate(AdmissionKind::kDbfApprox, 0.5, demand, candidate,
                           speed, 0.0)
        .accept;
  };
  const auto quadratic = [&] {
    return edf_dbf_feasible_approx_k(with, speed, 1);
  };
  cell.accept = linear();
  cell.agree = cell.accept == quadratic();
  const int batch = static_cast<int>(std::max<std::size_t>(1, 20000 / n));
  bool sink = false;
  cell.linear_ns = ns_per_call(reps, batch, [&] { sink ^= linear(); });
  cell.quadratic_ns = ns_per_call(reps, batch, [&] { sink ^= quadratic(); });
  if (sink) std::fflush(stdout);  // keeps the calls observable
  return cell;
}

void append_json(std::string& out, const TestResult& r) {
  const QpaWork w = qpa_work_of(r);
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"test\": \"%s\", \"arrivals\": %zu, \"admitted\": %zu, "
      "\"acceptance\": %.4f, "
      "\"tier0_verdicts\": %zu, \"tier1_verdicts\": %zu, "
      "\"tier2_verdicts\": %zu, "
      "\"admit_median_ns\": %.0f, \"admit_p99_ns\": %.0f, "
      "\"admit_p999_ns\": %.0f, \"qpa_calls\": %zu, \"qpa_work\": %lld, "
      "\"qpa_work_p99\": %lld, \"qpa_work_p999\": %lld, "
      "\"qpa_work_max\": %lld}",
      admission_row(r.test).name, r.arrivals, r.admitted,
      r.acceptance(), r.tier_counts[0], r.tier_counts[1], r.tier_counts[2],
      r.admit_median_ns, r.admit_p99_ns, r.admit_p999_ns, w.calls,
      static_cast<long long>(w.total), static_cast<long long>(w.p99),
      static_cast<long long>(w.p999), static_cast<long long>(w.max));
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
  std::vector<TestResult> results(tests.size());
  bool replay_ok = true;
  for (std::size_t i = 0; i < tests.size(); ++i) {
    replay_ok = count_test(points, tests[i], results[i]) && replay_ok;
  }
  const std::size_t bound = 0;
  const std::size_t qpa = 2;
  const std::size_t autor = 4;
  std::vector<double> ratios;
  for (int rep = 0; rep < reps; ++rep) {
    double median[5] = {};
    for (std::size_t i = 0; i < tests.size(); ++i) {
      const std::vector<double> ns = time_test(points, tests[i]);
      median[i] = summarize(ns).p50;
      results[i].admit_ns.insert(results[i].admit_ns.end(), ns.begin(),
                                 ns.end());
    }
    ratios.push_back(median[bound] <= 0.0 ? 0.0
                                          : median[autor] / median[bound]);
  }

  std::string json = "{\n  \"benchmark\": \"e14_admit\",\n  \"quick\": " +
                     std::string(quick ? "true" : "false") +
                     ",\n  \"tests\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    TestResult& r = results[i];
    const Summary lat = summarize(r.admit_ns);
    r.admit_median_ns = lat.p50;
    r.admit_p99_ns = lat.p99;
    r.admit_p999_ns = lat.p999;
    std::printf("%-10s %8zu %8zu %6zu %6zu %6zu %12.0f %12.0f %13.0f\n",
                admission_row(r.test).name, r.arrivals, r.admitted,
                r.tier_counts[0], r.tier_counts[1], r.tier_counts[2],
                r.admit_median_ns, r.admit_p99_ns, r.admit_p999_ns);
    if (i != 0) json += ",\n";
    append_json(json, r);
  }

  std::printf("\nQPA work per call: visits plus busy-period steps\n");
  std::printf("%-10s %6s %8s %6s %6s %6s\n", "test", "calls", "total", "p99",
              "p999", "max");
  for (const TestResult& r : results) {
    const QpaWork w = qpa_work_of(r);
    std::printf("%-10s %6zu %8lld %6lld %6lld %6lld\n",
                admission_row(r.test).name, w.calls,
                static_cast<long long>(w.total), static_cast<long long>(w.p99),
                static_cast<long long>(w.p999), static_cast<long long>(w.max));
  }

  std::printf("\ntier 1, one unit machine, periods near 1e6\n");
  std::printf("%9s %7s %12s %15s\n", "residents", "verdict", "linear(ns)",
              "quadratic(ns)");
  json += "\n  ],\n  \"tier1_cells\": [\n";
  bool tier1_ok = true;
  const std::size_t sizes[] = {32, 128, 256};
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    const Tier1Cell cell = time_tier1(sizes[i], reps);
    tier1_ok = tier1_ok && cell.agree;
    std::printf("%9zu %7s %12.0f %15.0f%s\n", cell.residents,
                cell.accept ? "accept" : "reject", cell.linear_ns,
                cell.quadratic_ns, cell.agree ? "" : "  DISAGREE");
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s    {\"residents\": %zu, \"accept\": %s, "
                  "\"agree\": %s, \"linear_ns\": %.0f, "
                  "\"quadratic_ns\": %.0f}",
                  i == 0 ? "" : ",\n", cell.residents,
                  cell.accept ? "true" : "false",
                  cell.agree ? "true" : "false", cell.linear_ns,
                  cell.quadratic_ns);
    json += buf;
  }

  const double acceptance_gap =
      results[qpa].acceptance() - results[autor].acceptance();
  const Summary ratio = summarize(ratios);
  const double latency_ratio = ratio.p50;
  const bool acceptance_ok = acceptance_gap <= 0.01;
  const bool latency_ok = latency_ratio <= 3.0;

  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\n  ],\n  \"gate\": {\"acceptance_gap_vs_qpa\": %.4f, "
                "\"acceptance_ok\": %s, \"latency_ratio_vs_bound\": %.2f, "
                "\"latency_ratio_min\": %.2f, \"latency_ratio_max\": %.2f, "
                "\"latency_ok\": %s, \"tier1_agree\": %s}\n}\n",
                acceptance_gap, acceptance_ok ? "true" : "false",
                latency_ratio, ratio.min, ratio.max,
                latency_ok ? "true" : "false", tier1_ok ? "true" : "false");
  json += buf;

  const char* path = "BENCH_admit.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("[json: %s]\n", path);
  }

  std::printf("gate: auto acceptance gap vs qpa = %.4f (<= 0.0100), "
              "auto/bound median latency = %.2fx over %d reps "
              "(%.2f-%.2f; <= 3.00x%s)\n",
              acceptance_gap, latency_ratio, reps, ratio.min, ratio.max,
              latency_gate ? "" : ", not enforced");
  int rc = 0;
  if (!replay_ok) {
    std::printf("FAILED: the first fit replayed for the QPA work disagrees "
                "with the controller\n");
    rc = 1;
  }
  if (!tier1_ok) {
    std::printf("GATE FAILED: linear tier 1 disagrees with the O(n^2) test\n");
    rc = 1;
  }
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
