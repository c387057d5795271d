// batch-alpha: the paper's first-fit test as the E1-E9 experiments use it,
// run in-process on one pinned thread.  Each operation is one
// min_feasible_alpha search (EDF, alpha_hi = 4) over a generated taskset
// with n = 16384 tasks on m = 128 machines; every instance is loaded above
// first-fit capacity at alpha = 1, so every search bisects the whole range
// and the time per instance stays unimodal.
#include <cmath>
#include <cstring>

#include "common.h"
#include "gen/platform_gen.h"
#include "gen/taskset_gen.h"
#include "partition/first_fit.h"
#include "util/rng.h"

namespace perfbench {

namespace {

constexpr double kAlphaHi = 4.0;
constexpr double kAcceptAlpha = 1.2;  // the acceptance metric's speed-up
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kNaiveEvery = 16;  // instances re-checked on kNaive

struct BatchShape {
  std::size_t n = 16384;
  std::size_t m = 128;
  std::size_t instances = 96;
};

struct Inputs {
  hetsched::Platform platform;
  std::vector<hetsched::TaskSet> tasksets;
};

// Instance i draws total utilization r_i * S (S = total speed) with r_i
// stratified over [0.89, 1.21): one uniform draw in each of K equal
// strata, so the acceptance share moves by at most a few instances from
// seed to seed.  Rounding
// c_i = round(u_i * p_i) up to at least 1 inflates the realized load to
// about U/S in [1.06, 1.35]: above capacity at alpha = 1, straddling
// alpha = 1.2.
Inputs generate_inputs(std::uint64_t seed, const BatchShape& shape,
                       SpanLog* spans) {
  Inputs in;
  in.platform = hetsched::geometric_platform(
      shape.m, 1.0625, 0.05 * static_cast<double>(shape.n));
  const double total_speed = in.platform.total_speed();
  hetsched::Rng rng(derive_seed(seed, 0xBA7C));
  for (std::size_t i = 0; i < shape.instances; ++i) {
    const std::uint64_t t0 = now_ns();
    const double stratum = static_cast<double>(i) + rng.next_double();
    const double r =
        0.89 + 0.32 * stratum / static_cast<double>(shape.instances);
    hetsched::TasksetSpec spec;
    spec.n = shape.n;
    spec.total_utilization = r * total_speed;
    spec.max_task_utilization = 1.0;
    spec.periods = hetsched::PeriodSpec::log_uniform(10, 1000);
    in.tasksets.push_back(hetsched::generate_taskset(rng, spec));
    if (spans != nullptr) spans->record(SpanName::kGenerate, 0, t0, now_ns());
  }
  return in;
}

// The host runs in regimes of seconds: a steady slower floor with faster
// stretches whose share of a run varies from run to run (README, "Noise
// causes").  Every round does the same work, so its speed is the host's;
// the rate and latency are read in the slower rounds, which every run has:
// the 10th percentile of per-round rates, the 90th of per-round medians.
double slow_rounds_rate(std::vector<double> per_round) {
  return quantile(per_round, 0.1);
}
double slow_rounds_latency(std::vector<double> per_round) {
  return quantile(per_round, 0.9);
}

struct Search {
  std::vector<double> alpha;  // per instance, from the first search of it
  std::vector<double> call_ns;
  std::uint64_t calls = 0;
  std::uint64_t mismatches = 0;  // a repeat search returned another alpha
  std::vector<double> round_rates;  // instances searched per second
  std::vector<double> round_p50s;   // median search time per round (ns)
};

// Cycles min_feasible_alpha over the instances for `seconds`.
void search_for(const Inputs& in, hetsched::PartitionScratch& scratch,
                double seconds, std::size_t rounds, SpanLog* spans,
                Search* out) {
  const std::size_t k = in.tasksets.size();
  if (out->alpha.empty()) out->alpha.assign(k, std::nan(""));
  const std::uint64_t start = now_ns();
  const auto round_ns = static_cast<std::uint64_t>(seconds * 1e9 / rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::uint64_t r_start = now_ns();
    const std::uint64_t r_end = start + (r + 1) * round_ns;
    std::uint64_t r_calls = 0;
    const std::size_t first_call = out->call_ns.size();
    std::uint64_t t = r_start;
    while (t < r_end) {
      const std::size_t i = out->calls % k;
      const auto a = hetsched::min_feasible_alpha(
          in.tasksets[i], in.platform, hetsched::AdmissionKind::kEdf, kAlphaHi,
          scratch);
      const std::uint64_t t1 = now_ns();
      if (spans != nullptr) spans->record(SpanName::kMinAlpha, 0, t, t1);
      out->call_ns.push_back(static_cast<double>(t1 - t));
      const double got = a ? *a : -1.0;
      if (std::isnan(out->alpha[i])) {
        out->alpha[i] = got;
      } else if (std::memcmp(&out->alpha[i], &got, sizeof got) != 0) {
        ++out->mismatches;
      }
      ++out->calls;
      ++r_calls;
      t = t1;
    }
    out->round_rates.push_back(static_cast<double>(r_calls) /
                               (static_cast<double>(t - r_start) * 1e-9));
    out->round_p50s.push_back(median(std::vector<double>(
        out->call_ns.begin() + static_cast<std::ptrdiff_t>(first_call),
        out->call_ns.end())));
  }
}

}  // namespace

int run_batch(const Options& opt, Report* report) {
  BatchShape shape;
  if (opt.smoke) shape = BatchShape{2048, 32, 8};
  const CpuPlan cpus = plan_cpus(0);
  if (!pin_this_thread(cpus.client)) {
    report->validity.push_back("batch thread not pinned");
  }

  // Set-up (input generation plus one untimed warm-up search), repeated;
  // setup_s is the median and the last inputs are kept.
  std::vector<double> setup_s, gen_s;
  Inputs in;
  hetsched::PartitionScratch scratch;
  SpanLog gen_spans;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const std::uint64_t t0 = now_ns();
    in = generate_inputs(opt.seed, shape,
                         rep + 1 == kSetupReps ? &gen_spans : nullptr);
    const std::uint64_t t1 = now_ns();
    scratch = hetsched::PartitionScratch{};
    (void)hetsched::min_feasible_alpha(in.tasksets[0], in.platform,
                                       hetsched::AdmissionKind::kEdf,
                                       kAlphaHi, scratch);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    gen_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
  }

  Values v;
  Search plain;
  Search traced;
  SpanLog spans;
  const std::size_t rounds = opt.smoke ? 2 : 20;
  const std::vector<int> batch_cpu =
      cpus.client >= 0 ? std::vector<int>{cpus.client} : std::vector<int>{};
  const double steal0 = steal_ms(batch_cpu);
  if (!opt.trace) {
    search_for(in, scratch, opt.seconds, rounds, nullptr, &plain);
  } else {
    // Untraced and traced halves; their difference is the tracing cost.
    search_for(in, scratch, opt.seconds / 2, rounds / 2, nullptr, &plain);
    spans.reserve(1u << 16);
    search_for(in, scratch, opt.seconds / 2, rounds / 2, &spans, &traced);
    for (std::size_t i = 0; i < in.tasksets.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      (void)hetsched::first_fit_accepts(in.tasksets[i], in.platform,
                                        hetsched::AdmissionKind::kEdf,
                                        kAcceptAlpha, scratch);
      spans.record(SpanName::kAccepts, 0, t0, now_ns());
    }
  }

  const double steal = steal_ms(batch_cpu) - steal0;
  if (steal > 0) {
    report->validity.push_back("host steal " +
                               std::to_string(std::lround(steal)) +
                               " ms over the timed phases");
  }

  // Checks: every returned alpha is accepted by first_fit_accepts, repeat
  // searches agree bit for bit, and a fixed subset matches the paper's
  // O(nm) naive engine exactly.
  std::uint64_t accepted_at = 0, bad_alpha = 0, naive_mismatch = 0;
  std::size_t naive_checked = 0;
  for (std::size_t i = 0; i < in.tasksets.size(); ++i) {
    const double a = plain.alpha[i];
    if (std::isnan(a)) continue;  // never searched (short smoke runs)
    if (a < 1.0 || !hetsched::first_fit_accepts(
                       in.tasksets[i], in.platform,
                       hetsched::AdmissionKind::kEdf, a, scratch)) {
      ++bad_alpha;
    }
    if (i % kNaiveEvery == 0) {
      hetsched::PartitionScratch naive_scratch;
      const auto b = hetsched::min_feasible_alpha(
          in.tasksets[i], in.platform, hetsched::AdmissionKind::kEdf, kAlphaHi,
          naive_scratch, hetsched::PartitionEngine::kNaive);
      const double got = b ? *b : -1.0;
      if (std::memcmp(&got, &a, sizeof a) != 0) ++naive_mismatch;
      ++naive_checked;
    }
  }
  for (std::size_t i = 0; i < in.tasksets.size(); ++i) {
    if (hetsched::first_fit_accepts(in.tasksets[i], in.platform,
                                    hetsched::AdmissionKind::kEdf,
                                    kAcceptAlpha, scratch)) {
      ++accepted_at;
    }
  }
  const std::uint64_t mismatches = plain.mismatches + traced.mismatches;
  report->check(bad_alpha == 0,
                "every returned alpha is accepted by first_fit_accepts (" +
                    std::to_string(bad_alpha) + " rejected)");
  report->check(mismatches == 0, "repeat searches return identical alpha (" +
                                     std::to_string(mismatches) +
                                     " differ)");
  report->check(naive_mismatch == 0 && naive_checked > 0,
                "kNaive engine matches on " + std::to_string(naive_checked) +
                    " instances (" + std::to_string(naive_mismatch) +
                    " differ)");
  report->attempted = plain.calls + traced.calls;
  report->failed = bad_alpha + mismatches + naive_mismatch;

  const double acceptance = static_cast<double>(accepted_at) /
                            static_cast<double>(in.tasksets.size());
  if (!opt.trace) {
    v.set("setup_s", median(setup_s));
    v.set("throughput_per_s", slow_rounds_rate(plain.round_rates));
    v.set("lat_p50_us", slow_rounds_latency(plain.round_p50s) * 1e-3);
    v.set("acceptance", acceptance);
    v.set("failed_ratio", static_cast<double>(report->failed) /
                              static_cast<double>(report->attempted));
    v.set("peak_rss_mb", vm_hwm_mb(0));
  } else {
    const std::vector<LayerTimes> layers = fold_layers(spans);
    const std::vector<LayerTimes> gen = fold_layers(gen_spans);
    auto at = [](const std::vector<LayerTimes>& l, SpanName n) {
      return l[static_cast<std::size_t>(n)];
    };
    v.set("partition.accepts_ns", at(layers, SpanName::kAccepts).mean());
    v.set("partition.alpha_ns", at(layers, SpanName::kMinAlpha).mean());
    v.set("gen.inputs_s", at(gen, SpanName::kGenerate).total_ns * 1e-9);
    v.set("loadgen.host_steal_ms", steal);
    const double plain_rate = median(plain.round_rates);
    const double traced_rate = median(traced.round_rates);
    v.set("loadgen.tracing_overhead_pct",
          plain_rate > 0 ? (plain_rate - traced_rate) / plain_rate * 100 : 0);
    const double p50_plain = quantile(plain.call_ns, 0.5);
    const double p50_traced = quantile(traced.call_ns, 0.5);
    v.set("loadgen.tracing_overhead_p50_pct",
          p50_plain > 0 ? (p50_traced - p50_plain) / p50_plain * 100 : 0);
    spans.write_tsv(opt.workdir + "/spans-batch-alpha.tsv");
  }
  v.emit(report, opt.trace);
  std::printf("batch-alpha: instances/s per round:");
  for (double r : plain.round_rates) std::printf(" %.1f", r);
  std::printf("\n");
  std::printf("batch-alpha: median search ms per round:");
  for (double ns : plain.round_p50s) std::printf(" %.2f", ns * 1e-6);
  std::printf("\n");
  std::printf("batch-alpha: n=%zu m=%zu instances=%zu searches=%llu "
              "acceptance@%.1f=%.4f setup=%.3fs gen=%.3fs\n",
              shape.n, shape.m, in.tasksets.size(),
              static_cast<unsigned long long>(report->attempted), kAcceptAlpha,
              acceptance, median(setup_s), median(gen_s));
  return 0;
}

}  // namespace perfbench
