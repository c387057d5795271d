// Observability overhead benchmark: proves the three cells of the obs
// acceptance criterion.
//
//   1. Cost when ON: with -DHETSCHED_METRICS=ON, the warm-admit p50 must
//      be within 5% of the OFF build's p50 beyond one clock read per
//      admit — the trace ring's timestamp, a deliberate cost that ranges
//      from a few ns (bare metal) to ~30 ns (virtualized vDSO), so the
//      bench measures the clock and discounts exactly one read (sampled
//      timers + relaxed thread-local counters are cheap, but "cheap"
//      gets measured, not asserted).
//   2. Cost when ON with tracing armed: spans enabled and 1 admit in 64
//      traced (the server's per-request pattern — a clock pair plus one
//      span-ring write, paid only by traced requests), p50 within 8% of
//      the plain ON cell's.
//   3. Zero cost / bit-identity when OFF: all cells must make exactly
//      the same admission decisions — machine choices, utilization bits,
//      resident counts — summarized in one FNV-1a checksum that the two
//      builds' JSON outputs must agree on (the instrumentation may
//      observe, never steer).
//
// Two-build workflow (scripts drive this; CI smoke-runs one build):
//
//   off-build$ bench_obs_overhead                  # writes BENCH_obs.off.json
//   on-build$  bench_obs_overhead --baseline BENCH_obs.off.json
//              # writes BENCH_obs.on.json + merged BENCH_obs.json with
//              # overhead_pct and checksum_match, exit 1 on gate failure
//
// Methodology: one deterministic controller is warmed until every admit
// reuses a freed slot (the HETSCHED_NOALLOC warm path).  Each timed rep
// admits a batch of kBatch tasks (one clock read per batch, so the clock
// does not dilute a ~40 ns admit), then departs them untimed to restore
// the freelist.  The per-admit sample is batch_ns / kBatch; reps reduce
// through stats::summarize like every other bench.  Because the two
// builds run as separate processes, transient machine noise (frequency
// scaling, co-tenants) would otherwise dominate a few-ns effect, so the
// measurement runs several independent rounds and reports the round with
// the smallest p50 — min-of-medians, the usual estimator for "the cost
// when the machine is quiet".
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gen/platform_gen.h"
#include "gen/taskset_gen.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "online/online_partitioner.h"
#include "util/fnv.h"
#include "util/rng.h"
#include "util/stats.h"

namespace hetsched {
namespace {

constexpr std::size_t kMachines = 64;
constexpr std::size_t kBatch = 4096;
// 1 admit in 64 traced in the span cell — the sampling rate a tracing
// client would realistically stamp, and a power of two so the modulo in
// the timed loop is a mask.
constexpr std::size_t kTracePeriod = 64;

TaskSet make_tasks(std::size_t n) {
  Rng rng(0x0B5);
  const Platform p = geometric_platform(
      kMachines, std::min(1.2, 1.0 + 8.0 / static_cast<double>(kMachines)));
  TasksetSpec spec;
  spec.n = n;
  spec.max_task_utilization = p.max_speed();
  // Light total load: the point is warm-path latency, not rejection.
  spec.total_utilization = 0.2 * p.total_speed();
  spec.periods = PeriodSpec::log_uniform(10, 1000);
  return generate_taskset(rng, spec);
}

// Deterministic decision replay over admit / depart / rebalance; the
// resulting checksum must be identical across ON and OFF builds (the
// instrumentation may observe, never steer).
std::uint64_t decision_checksum(const TaskSet& tasks, const Platform& pf) {
  OnlinePartitioner ctl(pf, AdmissionKind::kEdf, 2.0);
  ctl.reserve(tasks.size());
  std::uint64_t h = kFnv1aOffsetBasis;
  std::vector<OnlineTaskId> ids;
  std::vector<Task> admitted;
  for (const Task& t : tasks) {
    const AdmitDecision d = ctl.admit(t);
    h = fnv1a_u64(h, d.admitted ? 1 : 0);
    h = fnv1a_u64(h, d.admitted ? d.machine : 0);
    h = fnv1a_u64(h, std::bit_cast<std::uint64_t>(d.utilization));
    if (d.admitted) {
      ids.push_back(d.id);
      admitted.push_back(t);
    }
  }
  // Depart every other resident, rebalance, re-admit them (warm slots),
  // then fold the final state into the checksum.
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    h = fnv1a_u64(h, ctl.depart(ids[i]) ? 1 : 0);
  }
  const RebalanceReport r1 = ctl.rebalance();
  h = fnv1a_u64(h, (std::uint64_t{r1.applied} << 32) | r1.migrations);
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    const AdmitDecision d = ctl.admit(admitted[i]);
    h = fnv1a_u64(h, d.admitted ? 1 : 0);
    h = fnv1a_u64(h, d.admitted ? d.machine : 0);
  }
  h = fnv1a_u64(h, ctl.resident_count());
  for (std::size_t j = 0; j < ctl.machine_count(); ++j) {
    h = fnv1a_u64(h, ctl.machine_task_count(j));
    h = fnv1a_u64(h, std::bit_cast<std::uint64_t>(ctl.machine_utilization(j)));
  }
  return h;
}

// Warm-admit latency: admit kBatch tasks into freed slots, one clock pair
// per batch; depart untimed between reps.  Returns the summary of the
// round with the smallest p50 (see the header comment).
Summary warm_admit_summary(const TaskSet& tasks, const Platform& pf,
                           int reps, int rounds) {
  OnlinePartitioner ctl(pf, AdmissionKind::kEdf, 2.0);
  ctl.reserve(kBatch);
  std::vector<OnlineTaskId> ids;
  ids.reserve(kBatch);
  // Warm-up: reach the slot high-water mark, then free everything so all
  // subsequent admits reuse slots.
  for (std::size_t i = 0; i < kBatch; ++i) {
    const AdmitDecision d = ctl.admit(tasks[i % tasks.size()]);
    if (d.admitted) ids.push_back(d.id);
  }
  for (const OnlineTaskId id : ids) ctl.depart(id);
  ids.clear();

  Summary best;
  std::vector<double> samples;
  for (int round = 0; round < rounds; ++round) {
    samples.clear();
    samples.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps + 1; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < kBatch; ++i) {
        const AdmitDecision d = ctl.admit(tasks[i % tasks.size()]);
        if (d.admitted) ids.push_back(d.id);
      }
      const auto t1 = std::chrono::steady_clock::now();
      for (const OnlineTaskId id : ids) ctl.depart(id);
      ids.clear();
      if (r == 0) continue;  // rep 0 re-warms after the round gap
      samples.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count() /
          static_cast<double>(kBatch));
    }
    const Summary s = summarize(samples);
    if (round == 0 || s.p50 < best.p50) best = s;
  }
  return best;
}

// Same measurement with spans armed and every kTracePeriod-th admit
// traced, mirroring the server's warm path: the clock pair and the
// span-ring write are paid only by traced requests, untraced ones run
// the identical branch the plain ON cell runs.  Only meaningful with
// -DHETSCHED_METRICS=ON (the caller gates on kMetricsCompiled).
Summary warm_admit_traced_summary(const TaskSet& tasks, const Platform& pf,
                                  int reps, int rounds) {
  OnlinePartitioner ctl(pf, AdmissionKind::kEdf, 2.0);
  ctl.reserve(kBatch);
  std::vector<OnlineTaskId> ids;
  ids.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    const AdmitDecision d = ctl.admit(tasks[i % tasks.size()]);
    if (d.admitted) ids.push_back(d.id);
  }
  for (const OnlineTaskId id : ids) ctl.depart(id);
  ids.clear();

  Summary best;
  std::vector<double> samples;
  for (int round = 0; round < rounds; ++round) {
    samples.clear();
    samples.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps + 1; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < kBatch; ++i) {
#if HETSCHED_METRICS_ENABLED
        std::uint64_t sp_trace = 0;
        std::uint64_t sp_t0 = 0;
        if ((i & (kTracePeriod - 1)) == 0 && obs::span_enabled()) {
          sp_trace = i + 1;
          sp_t0 = obs::now_ns();
        }
#endif
        const AdmitDecision d = ctl.admit(tasks[i % tasks.size()]);
        if (d.admitted) ids.push_back(d.id);
#if HETSCHED_METRICS_ENABLED
        HETSCHED_SPAN_RECORD(sp_trace, obs::span_next_id(), 0,
                             obs::SpanStage::kWarmAdmit, sp_t0,
                             obs::now_ns());
#endif
      }
      const auto t1 = std::chrono::steady_clock::now();
      for (const OnlineTaskId id : ids) ctl.depart(id);
      ids.clear();
      if (r == 0) continue;
      samples.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count() /
          static_cast<double>(kBatch));
    }
    const Summary s = summarize(samples);
    if (round == 0 || s.p50 < best.p50) best = s;
  }
  return best;
}

// Median cost of one steady_clock read.  The ON build stamps one
// timestamp per admit (the trace ring), so on hosts with a slow clock
// source (virtualized vDSO: tens of ns) the clock dominates the measured
// ON overhead — report it so the overhead numbers are interpretable
// across machines.
double clock_read_cost_ns() {
  double best = 0;
  for (int round = 0; round < 5; ++round) {
    constexpr int kReads = 200000;
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t acc = 0;
    for (int i = 0; i < kReads; ++i) acc += obs::now_ns();
    const auto t1 = std::chrono::steady_clock::now();
    if (acc == 0) return 0;  // defeat dead-code elimination
    const double per =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / kReads;
    if (round == 0 || per < best) best = per;
  }
  return best;
}

// Pulls `"key": <number>` or `"key": "<string>"` out of our own JSON.
bool json_find_number(const std::string& text, const std::string& key,
                      double* out) {
  const auto pos = text.find("\"" + key + "\":");
  if (pos == std::string::npos) return false;
  *out = std::strtod(text.c_str() + pos + key.size() + 3, nullptr);
  return true;
}

bool json_find_string(const std::string& text, const std::string& key,
                      std::string* out) {
  const auto pos = text.find("\"" + key + "\": \"");
  if (pos == std::string::npos) return false;
  const auto start = pos + key.size() + 5;
  const auto end = text.find('"', start);
  if (end == std::string::npos) return false;
  *out = text.substr(start, end - start);
  return true;
}

}  // namespace
}  // namespace hetsched

int main(int argc, char** argv) {
  using namespace hetsched;
  int reps = 31;
  int rounds = 51;  // ~250 ms: wide enough to catch a quiet window
  bool gate = true;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      reps = 9;
      rounds = 3;
    }
    if (arg == "--no-target-gate") gate = false;
    if (arg == "--baseline" && i + 1 < argc) baseline_path = argv[++i];
  }

  const char* mode = obs::kMetricsCompiled ? "on" : "off";
  std::printf("obs overhead benchmark: metrics %s, best of %d rounds x %d "
              "reps of %zu warm admits\n",
              mode, rounds, reps, kBatch);

  const TaskSet tasks = make_tasks(kBatch);
  const Platform pf = geometric_platform(
      kMachines, std::min(1.2, 1.0 + 8.0 / static_cast<double>(kMachines)));

  const double clock_ns = clock_read_cost_ns();
  std::printf("steady_clock read: %.1f ns (one per admit in ON builds)\n",
              clock_ns);

  const std::uint64_t checksum = decision_checksum(tasks, pf);
  const Summary s = warm_admit_summary(tasks, pf, reps, rounds);
  std::printf("warm admit ns/op: %s\n", s.to_string().c_str());

  // Third cell (ON builds only): spans armed, 1 admit in 64 traced.  The
  // decision checksum is recomputed under tracing — instrumentation must
  // observe, never steer, so it has to match the untraced run bit for
  // bit.
  Summary traced;
  bool traced_match = true;
  if (obs::kMetricsCompiled) {
    obs::set_span_enabled(true);
    traced = warm_admit_traced_summary(tasks, pf, reps, rounds);
    traced_match = decision_checksum(tasks, pf) == checksum;
    obs::set_span_enabled(false);
    std::printf("warm admit ns/op (tracing 1/%zu): %s, checksum %s\n",
                kTracePeriod, traced.to_string().c_str(),
                traced_match ? "match" : "MISMATCH");
  }
  std::printf("decision checksum: %016llx\n",
              static_cast<unsigned long long>(checksum));

  char csbuf[32];
  std::snprintf(csbuf, sizeof(csbuf), "%016llx",
                static_cast<unsigned long long>(checksum));

  std::ostringstream json;
  json << "{\n  \"benchmark\": \"obs_overhead\",\n"
       << "  \"metrics\": \"" << mode << "\",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"batch\": " << kBatch << ",\n"
       << "  \"clock_read_ns\": " << clock_ns << ",\n"
       << "  \"warm_admit_p50_ns\": " << s.p50 << ",\n"
       << "  \"warm_admit_p95_ns\": " << s.p95 << ",\n"
       << "  \"warm_admit_p99_ns\": " << s.p99 << ",\n";
  if (obs::kMetricsCompiled) {
    json << "  \"warm_admit_traced_p50_ns\": " << traced.p50 << ",\n"
         << "  \"trace_period\": " << kTracePeriod << ",\n"
         << "  \"traced_checksum_match\": "
         << (traced_match ? "true" : "false") << ",\n";
  }
  json << "  \"decision_checksum\": \"" << csbuf << "\"\n}\n";

  const std::string own_path =
      std::string("BENCH_obs.") + mode + ".json";
  if (std::ofstream f{own_path}) {
    f << json.str();
    std::printf("[json: %s]\n", own_path.c_str());
  }

  // The tracing bound is an in-process comparison (both cells measured
  // back to back on the same warm controller), so it gates even without
  // a cross-build baseline — this is what CI's span-armed smoke checks.
  if (obs::kMetricsCompiled) {
    const double tracing_pct =
        s.p50 > 0 ? (traced.p50 - s.p50) / s.p50 * 100.0 : 0.0;
    if (!traced_match) {
      std::fprintf(stderr, "tracing cell changed the decision checksum\n");
      return 1;
    }
    if (tracing_pct >= 8.0) {
      std::fprintf(stderr,
                   "tracing-mode warm-admit p50 overhead %.2f%% >= 8%% over "
                   "plain ON\n",
                   tracing_pct);
      if (gate) return 1;
    }
  }

  if (baseline_path.empty()) return 0;

  std::ifstream bf(baseline_path);
  if (!bf) {
    std::fprintf(stderr, "error: cannot read baseline %s\n",
                 baseline_path.c_str());
    return 1;
  }
  std::stringstream bss;
  bss << bf.rdbuf();
  const std::string baseline = bss.str();
  double base_p50 = 0;
  std::string base_mode, base_checksum;
  if (!json_find_number(baseline, "warm_admit_p50_ns", &base_p50) ||
      !json_find_string(baseline, "metrics", &base_mode) ||
      !json_find_string(baseline, "decision_checksum", &base_checksum)) {
    std::fprintf(stderr, "error: %s is not a bench_obs_overhead result\n",
                 baseline_path.c_str());
    return 1;
  }

  const bool checksum_match = base_checksum == csbuf && traced_match;
  const double off_p50 = base_mode == "off" ? base_p50 : s.p50;
  const double on_p50 = base_mode == "off" ? s.p50 : base_p50;
  const double overhead_pct =
      off_p50 > 0 ? (on_p50 - off_p50) / off_p50 * 100.0 : 0.0;
  // The gated quantity discounts one clock read per admit — the trace
  // ring's deliberate, documented cost.  On bare metal the clock is a
  // few ns and this matches the raw overhead; on virtualized hosts a
  // ~30 ns vDSO read would otherwise swamp the counters being gated.
  const double beyond_clock_pct =
      off_p50 > 0 ? (on_p50 - off_p50 - clock_ns) / off_p50 * 100.0 : 0.0;
  std::printf("baseline (%s): p50=%.1f ns -> overhead %.2f%% raw, %.2f%% "
              "beyond one clock read, checksums %s\n",
              base_mode.c_str(), base_p50, overhead_pct, beyond_clock_pct,
              checksum_match ? "match" : "MISMATCH");

  // The traced cell runs in whichever of the two processes is the ON
  // build; when this process is the OFF one, pull it from the baseline.
  double traced_p50 = obs::kMetricsCompiled ? traced.p50 : 0.0;
  if (!obs::kMetricsCompiled) {
    (void)json_find_number(baseline, "warm_admit_traced_p50_ns",
                           &traced_p50);
  }
  // The span layer's own cost: traced cell vs the plain ON cell.  Both
  // run in the same process on the same warm controller, so this delta
  // isolates what arming tracing adds (a 1-in-64 clock pair + span-ring
  // write) on top of the always-on counters.
  const double traced_overhead_pct =
      on_p50 > 0 && traced_p50 > 0
          ? (traced_p50 - on_p50) / on_p50 * 100.0
          : 0.0;
  if (traced_p50 > 0) {
    std::printf("tracing cell: p50=%.1f ns -> overhead %.2f%% vs plain ON\n",
                traced_p50, traced_overhead_pct);
  }

  const bool target_met = checksum_match && beyond_clock_pct < 5.0 &&
                          traced_overhead_pct < 8.0;
  std::ostringstream merged;
  merged << "{\n  \"benchmark\": \"obs_overhead\",\n"
         << "  \"off_p50_ns\": " << off_p50 << ",\n"
         << "  \"on_p50_ns\": " << on_p50 << ",\n"
         << "  \"overhead_pct\": " << overhead_pct << ",\n"
         << "  \"clock_read_ns\": " << clock_ns << ",\n"
         << "  \"overhead_beyond_clock_pct\": " << beyond_clock_pct
         << ",\n"
         << "  \"span_overhead\": {\n"
         << "    \"on_traced_p50_ns\": " << traced_p50 << ",\n"
         << "    \"trace_period\": " << kTracePeriod << ",\n"
         << "    \"traced_overhead_pct\": " << traced_overhead_pct << ",\n"
         << "    \"checksum_match\": "
         << (traced_match ? "true" : "false") << "\n  },\n"
         << "  \"checksum_match\": " << (checksum_match ? "true" : "false")
         << ",\n  \"decision_checksum\": \"" << csbuf << "\",\n"
         << "  \"target\": \"ON warm-admit p50 overhead < 5% of OFF "
            "beyond one clock read per admit (the trace ring's timestamp; "
            "see clock_read_ns), tracing armed (1/" << kTracePeriod
         << " traced) < 8% over plain ON; identical decisions\",\n"
         << "  \"target_met\": " << (target_met ? "true" : "false")
         << "\n}\n";
  if (std::ofstream f{"BENCH_obs.json"}) {
    f << merged.str();
    std::printf("[json: BENCH_obs.json]\n");
  }

  if (!checksum_match) {
    std::fprintf(stderr, "decision checksum differs from baseline\n");
    return 1;
  }
  if (beyond_clock_pct >= 5.0) {
    std::fprintf(stderr,
                 "ON-mode warm-admit p50 overhead %.2f%% >= 5%% beyond one "
                 "clock read (%.1f ns)\n",
                 beyond_clock_pct, clock_ns);
    if (gate) return 1;
  }
  if (traced_overhead_pct >= 8.0) {
    std::fprintf(stderr,
                 "tracing-mode warm-admit p50 overhead %.2f%% >= 8%%\n",
                 traced_overhead_pct);
    if (gate) return 1;
  }
  return 0;
}
