// hetsched_cli — command-line front end for the library.
//
//   hetsched_cli test <file> [--admission KIND] [--alpha X] [--engine E]
//       Run the first-fit feasibility test and print the partition or the
//       failure certificate.
//   hetsched_cli certify <file>
//       Run all the paper's certificates (Theorems I.1-I.4 plus the
//       Andersson-Tovar baselines) and report each verdict.
//   hetsched_cli augment <file> [--admission KIND] [--engine E]
//       Report the minimum speed augmentation for first-fit acceptance and
//       the exact LP lower bound.
//   hetsched_cli simulate <file> [--policy edf|rm] [--alpha X]
//       Partition, then replay the exact schedule and print per-machine
//       statistics.
//   hetsched_cli sensitivity <file> [--admission KIND] [--alpha X]
//       For an accepted system, print each task's execution-budget slack
//       (the largest WCET scale factor that keeps the test accepting).
//   hetsched_cli generate --n N --m M --util U [--seed S] [--ratio R]
//       Emit a random instance in the text format (UUniFast-Discard tasks
//       on a geometric platform).
//   hetsched_cli generate-trace --arrivals N --m M [--rate L] [--seed S]
//       Emit a random churn trace (Poisson arrivals, bounded-Pareto
//       lifetimes) in the trace format.
//   hetsched_cli replay <tracefile> [--admission KIND] [--alpha X]
//       [--engine E] [--rebalance-every N] [--stats] [--trace-out FILE]
//       [--admission-test T] [--admit-band X] [--release-overhead N]
//       [--preempt-overhead N]
//       Replay a churn trace through the online admission controller and
//       report acceptance ratio, regret vs the clairvoyant batch re-pack,
//       and migration counts.  --stats appends the end-of-trace metrics
//       snapshot (see below); --trace-out records per-decision events and
//       writes them as JSONL (requires -DHETSCHED_METRICS=ON).
//   hetsched_cli serve [--admission KIND] [--alpha X] [--engine E]
//       [--stats-interval N] [--trace-out FILE] [--admission-test T]
//       [--admit-band X] [--release-overhead N] [--preempt-overhead N]
//       Stream trace directives from stdin through a live controller and
//       answer each one ("admit <task> -> machine <j>" / "reject <task>").
//       With --stats-interval N, a metrics snapshot is printed after every
//       N processed directives.  SIGINT/SIGTERM stop the stream cleanly:
//       the final snapshot (and --trace-out ring) is flushed and the
//       process exits 0.
//   hetsched_cli serve --listen <host:port> [--shards N] [--loops L]
//       [--admission KIND] [--alpha X] [--engine E] [--queue-depth D]
//       [--machines M] [--ratio R | --platform FILE] [--port-file FILE]
//       [--stats-interval SECONDS] [--trace-out FILE] [--admission-test T]
//       [--admit-band X] [--release-overhead N] [--preempt-overhead N]
//       Network mode: run the sharded TCP admission service (src/net/) on
//       the given address (port 0 picks an ephemeral port, written to
//       --port-file for scripts).  Each shard serves an independent copy
//       of the platform (--platform takes an instance file; otherwise a
//       geometric platform of --machines M and --ratio R).  --loops sets
//       the event-loop thread count; 0 = one per CPU the process may
//       run on (its affinity mask), capped by the shard count.  Loop 0 accepts every connection, and a
//       connection's first shard frame moves it to the loop owning that
//       shard.  --no-reuseport is accepted and has no effect.  In this
//       mode --stats-interval is in seconds, and each snapshot is the
//       server's GET_STATS text (the /metrics body).
//       SIGINT/SIGTERM drain the shard queues, flush responses and the
//       final snapshot, and exit 0.
//       Durability: --wal-dir DIR logs every decision to per-shard WALs
//       before its response is sent and recovers from DIR on start;
//       --wal-sync always|batch|off picks the fsync policy (default
//       batch), --snapshot-every N bounds replay by snapshotting a shard
//       after N logged decisions (default 65536, 0 = never mid-run).
//       Observability: --http HOST:PORT serves GET /metrics and
//       GET /healthz on a side port (port written to --http-port-file);
//       --tracing arms span recording so traced frames (protocol minor
//       2) are sampled into `tracez`; --slo-us N sets the per-shard
//       latency SLO for the net_slo_ok/net_slo_breach burn counters
//       (default 1000), which count one request in 1024 in every build.
//       SIGUSR1 dumps the per-shard flight recorder to --flight-dump
//       PATH (default <wal-dir>/flight.jsonl, or ./flight.jsonl without
//       a WAL dir) and keeps serving; the same dump fires from a
//       fatal-signal handler on SIGSEGV/SIGBUS/SIGABRT before the
//       process dies.
//   hetsched_cli stats <host:port> [--timeout-ms N]
//       Fetch and print the live metrics exposition from a running
//       serve --listen instance over the binary protocol (kGetStats).
//   hetsched_cli tracez <host:port> [--slowest K] [--timeout-ms N]
//       Fetch the K slowest reassembled traces (JSONL, one trace per
//       line) from a running server (kGetTracez; needs --tracing and a
//       -DHETSCHED_METRICS=ON server build to be non-empty).
//   hetsched_cli recover --wal-dir DIR [--shards N] [--admission KIND]
//       [--alpha X] [--engine E] [--machines M] [--ratio R |
//       --platform FILE] [--admission-test T] [--admit-band X]
//       [--release-overhead N] [--preempt-overhead N]
//       Offline crash recovery: rebuild every shard controller found in
//       DIR from its newest valid snapshot plus the WAL tail, verify the
//       decision stream record by record (seq + FNV-1a checksum), rotate
//       the logs (fresh snapshot, truncated WAL), and print a per-shard
//       summary.  The admission configuration must match what the logs
//       were written under — serve's corresponding flags, same defaults.
//       Exits non-zero if any shard's log fails verification.  When DIR
//       holds a flight-recorder dump (flight.jsonl — written by SIGUSR1
//       or the crash handler), its tail is printed with the summary.
//
// Metrics snapshot format (README "Observability"): a line
// "hetsched_metrics_enabled 0|1", then Prometheus-style text — # HELP /
// # TYPE comments, counter and gauge samples, histogram cumulative
// buckets with _sum/_count — plus one "# percentiles <name> p50=...
// p95=... p99=... p999=..." comment per latency histogram.  When the
// binary was built without -DHETSCHED_METRICS=ON the snapshot is just the
// hetsched_metrics_enabled 0 line and a compiled-out notice.
//
// Instance file format: see src/io/text_format.h.
// Trace file format: see src/io/trace_format.h (arrive lines may carry an
// optional trailing <deadline> token for constrained-deadline tasks).
// Admission tests are the named rows of partition/admission.h.
// --admission takes the paper's four: edf (default), rms-ll, rms-hb,
// rms-rta.  --admission-test (replay/serve/recover) takes legacy (default:
// the --admission test, implicit deadlines only) or one of the five that
// take constrained deadlines: bound, dbf-approx, qpa, rta, auto; auto
// escalates density-bound rejects through the approximate DBF to exact QPA
// only inside the --admit-band uncertainty band (default 0.5, auto only).
// --release-overhead / --preempt-overhead (tiered tests only) inflate
// every WCET by the admission-time overhead model before any test runs.
// A tiered test decides tier 0 itself (edf, or rms-ll for rta), so an
// explicit --admission naming another fold is an error (exit 2), as are a
// numeric flag that does not parse whole and finite, a negative count,
// --alpha below 1 or above 1e6, and any flag the subcommand does not read
// ("error: unknown flag --X for <cmd>").
// `replay` refuses, with an error line, each arrival the controller
// cannot take (a deadline under legacy, an overflowing inflated WCET).
// Engines: auto (default), naive, tree — bit-identical results; "naive" is
// the paper's O(n m) scan, "tree" the O(n log m) segment tree.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "hetsched/hetsched.h"
#include "io/obs_jsonl.h"
#include "io/snapshot_format.h"
#include "io/text_format.h"
#include "io/trace_format.h"
#include "io/wal.h"
#include "net/client.h"
#include "net/http_introspect.h"
#include "net/server.h"
#include "net/shard_core.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "util/int_math.h"

namespace hetsched {
namespace {

int usage() {
  std::fprintf(stderr,
               "usage: hetsched_cli <test|certify|augment|simulate|"
               "sensitivity|generate|generate-trace|replay|serve|recover|"
               "stats|tracez> "
               "[args]\n  see the header of tools/hetsched_cli.cpp\n");
  return 2;
}

// A malformed flag value: report it and exit 2, like usage().  Commands
// read their flags before acting, so nothing has happened yet.
[[noreturn]] void flag_error(const std::string& key, const std::string& what) {
  std::fprintf(stderr, "error: --%s %s\n", key.c_str(), what.c_str());
  std::exit(2);
}

// The flags admit_config_flag reads, shared by replay, serve and recover.
constexpr std::string_view kAdmitTestFlags[] = {
    "admission-test", "admit-band", "release-overhead", "preempt-overhead"};

// Minimal --flag value parser; positional args collected separately.
// Boolean flags never consume the next token, so "replay --stats t.trace"
// keeps t.trace positional.  "--flag=value" and "--flag value" are
// equivalent.  Numeric values must parse whole: an integer, or a finite
// real.  Each command names the flags it reads (only()); any other flag
// is a usage error, so a misspelt or retired flag cannot fall back to its
// default unseen.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  static bool boolean_flag(const std::string& key) {
    return key == "stats" || key == "no-reuseport" || key == "tracing";
  }

  static Args parse(int argc, char** argv, int from) {
    Args a;
    for (int i = from; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const std::string key = arg.substr(2);
        const std::size_t eq = key.find('=');
        if (eq != std::string::npos) {
          a.flags[key.substr(0, eq)] = key.substr(eq + 1);
          continue;
        }
        const bool next_is_flag =
            i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) == 0;
        if (!boolean_flag(key) && i + 1 < argc && !next_is_flag) {
          a.flags[key] = argv[++i];
        } else {
          a.flags[key] = "";
        }
      } else {
        a.positional.push_back(arg);
      }
    }
    return a;
  }

  // Exits 2 on the first flag `cmd` does not read: neither in `own` nor in
  // `shared`.
  void only(const char* cmd, std::initializer_list<std::string_view> own,
            std::span<const std::string_view> shared = {}) const {
    for (const auto& [key, value] : flags) {
      const auto named = [&key](std::string_view f) { return f == key; };
      if (std::any_of(own.begin(), own.end(), named) ||
          std::any_of(shared.begin(), shared.end(), named)) {
        continue;
      }
      std::fprintf(stderr, "error: unknown flag --%s for %s\n", key.c_str(),
                   cmd);
      std::exit(2);
    }
  }

  bool has(const std::string& key) const { return flags.count(key) > 0; }

  std::string get(const std::string& key, const std::string& dflt) const {
    const auto it = flags.find(key);
    return it == flags.end() ? dflt : it->second;
  }
  double get_double(const std::string& key, double dflt) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return dflt;
    const char* text = it->second.c_str();
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(v)) {
      flag_error(key, "needs a finite number, not '" + it->second + "'");
    }
    return v;
  }
  long get_long(const std::string& key, long dflt) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return dflt;
    const char* text = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE) {
      flag_error(key, "needs an integer, not '" + it->second + "'");
    }
    return v;
  }
  // A count, size or duration: an integer that is not negative.
  std::size_t get_unsigned(const std::string& key, std::size_t dflt) const {
    const long v = get_long(key, static_cast<long>(dflt));
    if (v < 0) {
      flag_error(key,
                 "needs a non-negative integer, not '" + get(key, "") + "'");
    }
    return static_cast<std::size_t>(v);
  }
  // --alpha: the speed augmentation, in [1, 1e6] (default 1).  The
  // ceiling is far above any augmentation the paper (<= 3.34) or `augment`
  // (<= 32) uses, and keeps the exact augmented speeds the escalating
  // tests build (alpha as a rational times each machine speed) within
  // int64 for ordinary speeds.
  double alpha() const {
    const double a = get_double("alpha", 1.0);
    if (a < 1.0) flag_error("alpha", "must be at least 1");
    if (a > 1e6) flag_error("alpha", "must be at most 1e6");
    return a;
  }
};

// --admission: one of the paper's four tests (default edf).
std::optional<AdmissionKind> admission_flag(const Args& args) {
  const auto kind = find_admission(args.get("admission", "edf"));
  if (kind && admission_row(*kind).tiered) return std::nullopt;
  return kind;
}

std::optional<PartitionEngine> engine_flag(const Args& args) {
  return engine_from_name(args.get("engine", "auto"));
}

// --admission-test=auto|bound|dbf-approx|qpa|rta (default: legacy, the
// paper's --admission kind), plus the tiered-selector knobs --admit-band,
// --release-overhead, --preempt-overhead.  Flags the controller would
// silently rewrite or ignore are errors: an explicit --admission other than
// the test's tier-0 fold, an overhead without a tiered test, --admit-band
// without auto, and overheads whose inflation (release + 2 * preempt)
// overflows int64.  False = error printed.
bool admit_config_flag(const Args& args, AdmissionKind kind,
                       admit::AdmitConfig* out) {
  const auto fail = [](const std::string& what) {
    std::fprintf(stderr, "error: %s\n", what.c_str());
    return false;
  };
  const std::string test = args.get("admission-test", "legacy");
  if (test != "legacy") {
    out->test = admit::test_from_name(test);
    if (!out->test) {
      return fail(
          "--admission-test must be legacy|bound|dbf-approx|qpa|rta|auto");
    }
  }
  out->band = args.get_double("admit-band", out->band);
  out->release_overhead = args.get_long("release-overhead", 0);
  out->preempt_overhead = args.get_long("preempt-overhead", 0);
  if (out->band < 0 || out->release_overhead < 0 || out->preempt_overhead < 0) {
    return fail("admission-test knobs must be non-negative");
  }
  if (out->test && args.has("admission") &&
      admission_row(kind).fold != admission_row(*out->test).fold) {
    return fail("--admission-test " + test + " decides tier 0 with " +
                to_string(*out->test) + ", not " + to_string(kind) +
                "; drop --admission");
  }
  if (!out->test &&
      (args.has("release-overhead") || args.has("preempt-overhead"))) {
    return fail("--release-overhead/--preempt-overhead need a tiered "
                "--admission-test");
  }
  if (!(out->test && admission_row(*out->test).band_gated) &&
      args.has("admit-band")) {
    return fail("--admit-band needs --admission-test auto");
  }
  const auto preempt = checked_mul(std::int64_t{2}, out->preempt_overhead);
  if (!preempt || !checked_add(*preempt, out->release_overhead)) {
    return fail("release + 2 * preempt overhead overflows int64");
  }
  return true;
}

std::optional<Instance> load_or_complain(const std::string& path) {
  auto parsed = load_instance(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.error->to_string().c_str());
    return std::nullopt;
  }
  return std::move(parsed.value);
}

int cmd_test(const Args& args) {
  args.only("test", {"admission", "alpha", "engine"});
  if (args.positional.empty()) return usage();
  const auto inst = load_or_complain(args.positional[0]);
  if (!inst) return 1;
  const auto kind = admission_flag(args);
  if (!kind) return usage();
  const double alpha = args.alpha();
  const auto engine = engine_flag(args);
  if (!engine) return usage();

  const PartitionResult res =
      first_fit_partition(inst->tasks, inst->platform, *kind, alpha, *engine);
  std::printf("%s\n", res.to_string().c_str());
  if (res.feasible) {
    for (std::size_t j = 0; j < inst->platform.size(); ++j) {
      std::printf("machine %zu (speed %s): load %.4f, %zu tasks\n", j,
                  inst->platform.speed_exact(j).to_string().c_str(),
                  res.machine_utilization[j],
                  res.tasks_per_machine[j].size());
    }
  }
  return res.feasible ? 0 : 1;
}

int cmd_certify(const Args& args) {
  args.only("certify", {});
  if (args.positional.empty()) return usage();
  const auto inst = load_or_complain(args.positional[0]);
  if (!inst) return 1;

  struct Cert {
    const char* name;
    AdmissionKind kind;
    double alpha;
    const char* accept_means;
    const char* reject_means;
  };
  const Cert certs[] = {
      {"raw EDF (alpha=1)", AdmissionKind::kEdf, 1.0,
       "partitioned-EDF-schedulable as-is", "greedy test needs augmentation"},
      {"Thm I.1 EDF (alpha=2)", AdmissionKind::kEdf,
       EdfConstants::kAlphaPartitioned, "schedulable on 2x-faster cores",
       "no partitioned scheduler works"},
      {"Thm I.3 EDF (alpha=2.98)", AdmissionKind::kEdf, EdfConstants::kAlphaLp,
       "schedulable on 2.98x-faster cores",
       "even migrating schedulers fail"},
      {"A-T [2] EDF (alpha=3)", AdmissionKind::kEdf, 3.0,
       "schedulable on 3x-faster cores",
       "even migrating schedulers fail (prior art)"},
      {"raw RMS-LL (alpha=1)", AdmissionKind::kRmsLiuLayland, 1.0,
       "RM-partition certified as-is", "LL-certified partition needs speedup"},
      {"Thm I.2 RMS (alpha=2.414)", AdmissionKind::kRmsLiuLayland,
       RmsConstants::kAlphaPartitioned, "RM-schedulable on 2.414x cores",
       "no partitioned scheduler works"},
      {"Thm I.4 RMS (alpha=3.34)", AdmissionKind::kRmsLiuLayland,
       RmsConstants::kAlphaLp, "RM-schedulable on 3.34x cores",
       "even migrating schedulers fail"},
      {"A-T [3] RMS (alpha=3.41)", AdmissionKind::kRmsLiuLayland, 3.41,
       "RM-schedulable on 3.41x cores",
       "even migrating schedulers fail (prior art)"},
  };
  for (const Cert& c : certs) {
    const bool ok =
        first_fit_accepts(inst->tasks, inst->platform, c.kind, c.alpha);
    std::printf("%-28s %-7s (%s)\n", c.name, ok ? "ACCEPT" : "REJECT",
                ok ? c.accept_means : c.reject_means);
  }
  std::printf("LP (migrating) feasible: %s\n",
              lp_feasible_oracle(inst->tasks, inst->platform) ? "yes" : "no");
  return 0;
}

int cmd_augment(const Args& args) {
  args.only("augment", {"admission", "engine"});
  if (args.positional.empty()) return usage();
  const auto inst = load_or_complain(args.positional[0]);
  if (!inst) return 1;
  const auto kind = admission_flag(args);
  if (!kind) return usage();
  const auto engine = engine_flag(args);
  if (!engine) return usage();

  PartitionScratch scratch;
  const auto alpha = min_feasible_alpha(inst->tasks, inst->platform, *kind,
                                        32.0, scratch, *engine, 1e-6);
  const double lp = min_lp_augmentation(inst->tasks, inst->platform);
  if (alpha) {
    std::printf("first-fit %s minimum alpha: %.6f\n",
                to_string(*kind).c_str(), *alpha);
  } else {
    std::printf("first-fit %s: not feasible even at alpha = 32\n",
                to_string(*kind).c_str());
  }
  std::printf("LP lower bound (no scheduler below this): %.6f\n", lp);
  return 0;
}

int cmd_simulate(const Args& args) {
  args.only("simulate", {"policy", "alpha"});
  if (args.positional.empty()) return usage();
  const auto inst = load_or_complain(args.positional[0]);
  if (!inst) return 1;
  const std::string policy_name = args.get("policy", "edf");
  const double alpha = args.alpha();
  const bool rm = policy_name == "rm";
  if (!rm && policy_name != "edf") return usage();

  const AdmissionKind kind =
      rm ? AdmissionKind::kRmsLiuLayland : AdmissionKind::kEdf;
  const PartitionResult res =
      first_fit_partition(inst->tasks, inst->platform, kind, alpha);
  if (!res.feasible) {
    std::printf("partitioning failed (task w=%.4f fits nowhere)\n",
                res.failed_utilization);
    return 1;
  }
  std::vector<Rational> speeds;
  const Rational ar = rational_from_double(alpha, 1'000'000);
  for (std::size_t j = 0; j < inst->platform.size(); ++j) {
    speeds.push_back(inst->platform.speed_exact(j) * ar);
  }
  const PartitionSimOutcome sim = simulate_partition(
      res.tasks_per_machine, speeds,
      rm ? SchedPolicy::kFixedPriorityRm : SchedPolicy::kEdf);
  std::printf("verdict: %s\n",
              sim.schedulable ? "all deadlines met" : "DEADLINE MISS");
  for (std::size_t j = 0; j < sim.per_machine.size(); ++j) {
    const SimOutcome& o = sim.per_machine[j];
    std::printf(
        "machine %zu: horizon %lld, %lld jobs, %lld preempts, busy %s%s\n", j,
        static_cast<long long>(o.horizon),
        static_cast<long long>(o.jobs_released),
        static_cast<long long>(o.preemptions), o.busy_time.to_string().c_str(),
        o.horizon_exhausted ? " [job cap hit: no miss observed, not a proof]"
                            : "");
  }
  return sim.schedulable ? 0 : 1;
}

int cmd_sensitivity(const Args& args) {
  args.only("sensitivity", {"admission", "alpha"});
  if (args.positional.empty()) return usage();
  const auto inst = load_or_complain(args.positional[0]);
  if (!inst) return 1;
  const auto kind = admission_flag(args);
  if (!kind) return usage();
  const double alpha = args.alpha();

  if (!first_fit_accepts(inst->tasks, inst->platform, *kind, alpha)) {
    std::printf("system not accepted at alpha=%.3f: no slack to report\n",
                alpha);
    return 1;
  }
  const auto slack = exec_sensitivity(inst->tasks, inst->platform, *kind,
                                      alpha);
  std::printf("per-task execution-budget slack (max WCET scale keeping the "
              "%s test at alpha=%.3f green):\n",
              to_string(*kind).c_str(), alpha);
  for (const TaskSlack& s : slack) {
    const Task& t = inst->tasks[s.task_index];
    std::printf("  task %zu (c=%lld p=%lld w=%.3f): x%.3f\n", s.task_index,
                static_cast<long long>(t.exec),
                static_cast<long long>(t.period), t.utilization(),
                s.max_exec_scale);
  }
  return 0;
}

int cmd_generate(const Args& args) {
  args.only("generate", {"n", "m", "util", "ratio", "seed"});
  const std::size_t n = args.get_unsigned("n", 16);
  const std::size_t m = args.get_unsigned("m", 4);
  const double norm_util = args.get_double("util", 0.7);
  const double ratio = args.get_double("ratio", 1.5);
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  if (n == 0 || m == 0 || norm_util <= 0 || ratio < 1.0) return usage();

  Rng rng(seed);
  Instance inst;
  inst.platform = geometric_platform(m, ratio);
  TasksetSpec spec;
  spec.n = n;
  spec.max_task_utilization = inst.platform.max_speed();
  spec.total_utilization =
      std::min(norm_util * inst.platform.total_speed(),
               0.35 * static_cast<double>(n) * spec.max_task_utilization);
  spec.periods = PeriodSpec::log_uniform(10, 1000);
  inst.tasks = generate_taskset(rng, spec);
  std::printf("%s", format_instance(inst).c_str());
  return 0;
}

int cmd_generate_trace(const Args& args) {
  args.only("generate-trace", {"arrivals", "m", "rate", "ratio", "seed"});
  const std::size_t arrivals = args.get_unsigned("arrivals", 64);
  const std::size_t m = args.get_unsigned("m", 4);
  const double rate = args.get_double("rate", 1.0);
  const double ratio = args.get_double("ratio", 1.5);
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  if (arrivals == 0 || m == 0 || rate <= 0 || ratio < 1.0) return usage();

  Rng rng(seed);
  ChurnInstance inst;
  inst.platform = geometric_platform(m, ratio);
  ChurnSpec spec;
  spec.arrivals = arrivals;
  spec.arrival_rate = rate;
  inst.trace = generate_churn_trace(rng, spec);
  std::printf("%s", format_trace(inst).c_str());
  return 0;
}

int cmd_replay(const Args& args) {
  args.only("replay",
            {"admission", "alpha", "engine", "rebalance-every", "stats",
             "trace-out"},
            kAdmitTestFlags);
  if (args.positional.empty()) return usage();
  auto parsed = load_trace(args.positional[0]);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.error->to_string().c_str());
    return 1;
  }
  const auto kind = admission_flag(args);
  if (!kind) return usage();
  const auto engine = engine_flag(args);
  if (!engine) return usage();
  const std::string trace_out = args.get("trace-out", "");
  if (!trace_out.empty() && !obs::kMetricsCompiled) {
    std::fprintf(stderr,
                 "warning: --trace-out needs -DHETSCHED_METRICS=ON; the "
                 "event trace will be empty\n");
  }
  if (!trace_out.empty()) obs::set_trace_enabled(true);

  ChurnOptions options;
  options.kind = *kind;
  options.alpha = args.alpha();
  options.rebalance_every = args.get_unsigned("rebalance-every", 0);
  options.engine = *engine;
  if (!admit_config_flag(args, *kind, &options.admit)) return 2;
  // Arrivals the controller cannot take are refused one by one, as stdin
  // serve refuses them; a refused task's departure is then a no-op.
  const OnlinePartitioner probe(parsed.value->platform, options.kind,
                                options.alpha, options.engine, options.admit);
  std::erase_if(parsed.value->trace.events, [&](const ChurnEvent& ev) {
    if (ev.kind != ChurnEvent::Kind::kArrival ||
        probe.accepts_input(ev.params)) {
      return false;
    }
    std::printf("error: task %llu: %s\n",
                static_cast<unsigned long long>(ev.task),
                ev.params.deadline != 0 && !probe.tiered()
                    ? "constrained deadline needs --admission-test != legacy"
                    : "overhead-inflated exec overflows int64");
    return true;
  });
  const ChurnResult res =
      run_churn(parsed.value->platform, parsed.value->trace, options);
  std::printf("replay %s/%s alpha=%.3f: %s\n", to_string(*kind).c_str(),
              admit::test_name(options.admit), options.alpha,
              res.to_string().c_str());
  std::printf("online acceptance %.4f vs clairvoyant %.4f\n",
              res.online_acceptance(), res.clairvoyant_acceptance());

  if (!trace_out.empty()) {
    obs::set_trace_enabled(false);
    const std::vector<obs::TraceEvent> events = obs::trace_drain();
    if (!save_trace_jsonl(events, trace_out)) {
      std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("[trace: %s, %zu events, %llu dropped]\n", trace_out.c_str(),
                events.size(),
                static_cast<unsigned long long>(obs::trace_dropped()));
  }
  if (args.has("stats")) {
    std::printf("--- metrics snapshot (end of trace) ---\n%s",
                obs::registry().expose().c_str());
  }
  return 0;
}

// SIGINT/SIGTERM flag for the stdin serve loop.  The handler is installed
// WITHOUT SA_RESTART so a blocked getline returns with EINTR, the loop
// exits, and the final snapshot still prints — a drain, not a kill.
volatile std::sig_atomic_t g_serve_stop = 0;

void serve_stop_handler(int) { g_serve_stop = 1; }

void install_stop_handlers() {
  struct sigaction sa {};
  sa.sa_handler = serve_stop_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: interrupt the blocking read
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

// Shared tail of both serve modes: flush the obs trace ring to
// --trace-out (when requested) before exiting.
int flush_trace_ring(const std::string& trace_out) {
  if (trace_out.empty()) return 0;
  obs::set_trace_enabled(false);
  const std::vector<obs::TraceEvent> events = obs::trace_drain();
  if (!save_trace_jsonl(events, trace_out)) {
    std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
    return 1;
  }
  std::printf("[trace: %s, %zu events, %llu dropped]\n", trace_out.c_str(),
              events.size(),
              static_cast<unsigned long long>(obs::trace_dropped()));
  return 0;
}

// Live-introspection clients (protocol minor 2): one synchronous info
// call against a running `serve --listen` instance, body to stdout.
int cmd_stats(const Args& args) {
  args.only("stats", {"timeout-ms"});
  if (args.positional.empty()) return usage();
  const int timeout = static_cast<int>(args.get_long("timeout-ms", 5000));
  net::Client client;
  std::string error;
  if (!client.connect(args.positional[0], timeout, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  net::InfoResponse info;
  if (!client.call_info(net::Request::get_stats(1), &info, timeout)) {
    std::fprintf(stderr, "error: %s\n", client.last_error().c_str());
    return 1;
  }
  std::fputs(info.text.c_str(), stdout);
  return 0;
}

int cmd_tracez(const Args& args) {
  args.only("tracez", {"slowest", "timeout-ms"});
  if (args.positional.empty()) return usage();
  const std::uint64_t slowest = args.get_unsigned("slowest", 10);
  const int timeout = static_cast<int>(args.get_long("timeout-ms", 5000));
  net::Client client;
  std::string error;
  if (!client.connect(args.positional[0], timeout, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  net::InfoResponse info;
  if (!client.call_info(net::Request::get_tracez(1, slowest), &info,
                        timeout)) {
    std::fprintf(stderr, "error: %s\n", client.last_error().c_str());
    return 1;
  }
  std::printf("# %llu trace(s), slowest first\n",
              static_cast<unsigned long long>(info.value));
  std::fputs(info.text.c_str(), stdout);
  return 0;
}

// Network serve mode: the sharded TCP admission service of src/net/.
int cmd_serve_net(const Args& args) {
  // --no-reuseport is read by nothing and stays accepted: the end-to-end
  // benchmark passes it.
  args.only("serve --listen",
            {"listen", "shards", "loops", "port-file", "machines", "ratio",
             "platform", "no-reuseport", "wal-dir", "wal-sync",
             "snapshot-every", "queue-depth", "admission", "alpha", "engine",
             "stats-interval", "trace-out", "tracing", "flight-dump", "http",
             "http-port-file", "slo-us"},
            kAdmitTestFlags);
  const auto kind = admission_flag(args);
  if (!kind) return usage();
  const auto engine = engine_flag(args);
  if (!engine) return usage();

  Platform platform;
  const std::string platform_file = args.get("platform", "");
  if (!platform_file.empty()) {
    const auto inst = load_or_complain(platform_file);
    if (!inst) return 1;
    platform = inst->platform;
  } else {
    const std::size_t m = args.get_unsigned("machines", 4);
    const double ratio = args.get_double("ratio", 1.5);
    if (m == 0 || ratio < 1.0) return usage();
    platform = geometric_platform(m, ratio);
  }

  net::ServerOptions options;
  options.listen_addr = args.get("listen", "127.0.0.1:0");
  options.shards = args.get_unsigned("shards", 1);
  options.kind = *kind;
  options.alpha = args.alpha();
  options.engine = *engine;
  options.loops = args.get_unsigned("loops", 0);
  options.queue_depth = args.get_unsigned("queue-depth", 1024);
  options.wal_dir = args.get("wal-dir", "");
  if (!io::parse_wal_sync(args.get("wal-sync", "batch"), &options.wal_sync)) {
    std::fprintf(stderr, "error: --wal-sync must be always|batch|off\n");
    return 2;
  }
  options.snapshot_every = args.get_unsigned("snapshot-every", 65536);
  if (!admit_config_flag(args, *kind, &options.admit)) return 2;
  options.slo_ns = std::uint64_t{args.get_unsigned("slo-us", 1000)} * 1000;
  const std::size_t stats_interval = args.get_unsigned("stats-interval", 0);
  const std::string trace_out = args.get("trace-out", "");
  if ((!trace_out.empty() || args.has("tracing")) && !obs::kMetricsCompiled) {
    std::fprintf(stderr,
                 "warning: this binary was built without "
                 "-DHETSCHED_METRICS=ON; traces and spans are empty\n");
  }
  if (!trace_out.empty()) obs::set_trace_enabled(true);
  if (args.has("tracing")) obs::set_span_enabled(true);

  // Flight recorder: SIGUSR1 dumps here on demand, and the fatal-signal
  // handler writes the same file on the way down so `recover` finds the
  // last decisions next to the WALs they were logged in.
  const std::string flight_dump =
      args.get("flight-dump", options.wal_dir.empty()
                                  ? "flight.jsonl"
                                  : options.wal_dir + "/flight.jsonl");
  obs::flight_install_crash_handler(flight_dump.c_str());

  // Block the stop signals before spawning threads so every server thread
  // inherits the mask and delivery funnels into sigtimedwait below.
  // SIGUSR1 rides the same set: delivery lands in this loop, which dumps
  // the flight recorder and keeps serving.
  sigset_t stop_set;
  sigemptyset(&stop_set);
  sigaddset(&stop_set, SIGINT);
  sigaddset(&stop_set, SIGTERM);
  sigaddset(&stop_set, SIGUSR1);
  pthread_sigmask(SIG_BLOCK, &stop_set, nullptr);

  net::Server server(platform, options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }

  // Optional HTTP side port for Prometheus scrapes and health probes.
  // Declared after `server` (it reads stats_text()) and left up through
  // the drain so /healthz flips to 503 while the server stops.
  net::HttpIntrospect http(server);
  const std::string http_addr = args.get("http", "");
  if (!http_addr.empty()) {
    if (!http.start(http_addr, &error)) {
      std::fprintf(stderr, "error: http: %s\n", error.c_str());
      server.request_stop();
      server.wait();
      return 1;
    }
    std::printf("introspection on http port %u: /metrics /healthz\n",
                http.port());
    const std::string http_port_file = args.get("http-port-file", "");
    if (!http_port_file.empty()) {
      std::ofstream pf(http_port_file);
      pf << http.port() << "\n";
    }
  }
  std::printf("listening on port %u: %zu shard(s) of %s/%s alpha=%.3f on %zu "
              "machines (%zu loop(s), queue %zu)\n",
              server.port(), server.shard_count(), to_string(*kind).c_str(),
              admit::test_name(options.admit), options.alpha, platform.size(),
              server.loop_count(), options.queue_depth);
  if (!options.wal_dir.empty()) {
    const net::ServerStats rs = server.stats();
    std::printf("durability: wal-dir %s, sync %s, snapshot every %zu "
                "(%llu record(s) replayed on start)\n",
                options.wal_dir.c_str(), io::to_string(options.wal_sync),
                options.snapshot_every,
                static_cast<unsigned long long>(rs.recovered));
  }
  std::fflush(stdout);

  const std::string port_file = args.get("port-file", "");
  if (!port_file.empty()) {
    std::ofstream pf(port_file);
    pf << server.port() << "\n";
  }

  // Wait for SIGINT/SIGTERM, waking every --stats-interval seconds for a
  // snapshot.  sigtimedwait keeps this loop signal-race-free: delivery
  // can only happen here, never mid-snapshot.  SIGUSR1 dumps the flight
  // recorder and keeps serving.
  while (server.running()) {
    int sig = 0;
    if (stats_interval > 0) {
      timespec ts{};
      ts.tv_sec = static_cast<time_t>(stats_interval);
      sig = sigtimedwait(&stop_set, nullptr, &ts);
      if (sig < 0 && errno == EAGAIN) {
        std::printf("--- metrics snapshot ---\n%s",
                    server.stats_text().c_str());
        std::fflush(stdout);
        continue;
      }
    } else {
      sig = sigwaitinfo(&stop_set, nullptr);
    }
    if (sig == SIGUSR1) {
      if (obs::flight_dump_path(flight_dump.c_str())) {
        std::printf("[flight recorder dumped to %s]\n", flight_dump.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write %s\n", flight_dump.c_str());
      }
      std::fflush(stdout);
      continue;
    }
    if (sig > 0) break;
  }

  // Graceful drain: stop accepting, answer everything queued, join.
  server.request_stop();
  server.wait();
  const net::ServerStats s = server.stats();
  std::printf("served %llu frames over %llu connections: %llu admitted, "
              "%llu rejected, %llu retried, %llu departed, %llu stale, "
              "%llu rebalances, %llu bad\n",
              static_cast<unsigned long long>(s.frames_rx),
              static_cast<unsigned long long>(s.connections),
              static_cast<unsigned long long>(s.admitted),
              static_cast<unsigned long long>(s.rejected),
              static_cast<unsigned long long>(s.retried),
              static_cast<unsigned long long>(s.departed),
              static_cast<unsigned long long>(s.stale),
              static_cast<unsigned long long>(s.rebalances),
              static_cast<unsigned long long>(s.bad));
  if (!options.wal_dir.empty() || s.resizes > 0 || s.resize_failures > 0) {
    std::printf("durability: %llu wal record(s) in %llu commit(s), "
                "%llu snapshot(s), %llu resize(s) (%llu failed), "
                "%llu forwarded depart(s)\n",
                static_cast<unsigned long long>(s.wal_records),
                static_cast<unsigned long long>(s.wal_commits),
                static_cast<unsigned long long>(s.snapshots),
                static_cast<unsigned long long>(s.resizes),
                static_cast<unsigned long long>(s.resize_failures),
                static_cast<unsigned long long>(s.forwarded));
  }
  if (stats_interval > 0) {
    std::printf("--- metrics snapshot (final) ---\n%s",
                server.stats_text().c_str());
  }
  const int trace_rc = flush_trace_ring(trace_out);
  std::fflush(stdout);
  return trace_rc;
}

// Offline crash recovery (recover-then-exit): rebuild every shard found
// in --wal-dir, verify the decision stream record by record, rotate the
// logs, and summarize.  Shares the recovery engine with serve's startup
// path (net/shard_core.h), so "recover then serve" and "serve with
// --wal-dir" land in bit-identical states.
int cmd_recover(const Args& args) {
  args.only("recover",
            {"wal-dir", "shards", "machines", "ratio", "platform",
             "admission", "alpha", "engine"},
            kAdmitTestFlags);
  const auto kind = admission_flag(args);
  if (!kind) return usage();
  const auto engine = engine_flag(args);
  if (!engine) return usage();
  const std::string dir = args.get("wal-dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "error: recover requires --wal-dir DIR\n");
    return 2;
  }

  Platform platform;
  const std::string platform_file = args.get("platform", "");
  if (!platform_file.empty()) {
    const auto inst = load_or_complain(platform_file);
    if (!inst) return 1;
    platform = inst->platform;
  } else {
    const std::size_t m = args.get_unsigned("machines", 4);
    const double ratio = args.get_double("ratio", 1.5);
    if (m == 0 || ratio < 1.0) return usage();
    platform = geometric_platform(m, ratio);
  }
  net::ServerOptions opts;
  opts.kind = *kind;
  opts.alpha = args.alpha();
  opts.engine = *engine;
  opts.wal_dir = dir;
  if (!admit_config_flag(args, *kind, &opts.admit)) return 2;

  std::size_t shard_count = args.get_unsigned("shards", 0);
  const std::size_t discovered = io::discover_shard_count(dir);
  if (discovered > shard_count) shard_count = discovered;
  if (shard_count == 0) {
    std::printf("recover: %s holds no shard state\n", dir.c_str());
    return 0;
  }

  std::vector<std::unique_ptr<net::ShardCore>> cores;
  std::vector<net::ShardCore*> ptrs;
  for (std::size_t i = 0; i < shard_count; ++i) {
    cores.push_back(std::make_unique<net::ShardCore>(
        platform, opts, static_cast<std::uint32_t>(i)));
    ptrs.push_back(cores.back().get());
  }
  const net::ShardSetRecovery rec =
      net::recover_shard_set(ptrs, /*rotate=*/true);
  if (!rec.ok) {
    std::fprintf(stderr, "recover: FAILED: %s\n", rec.error.c_str());
    return 1;
  }
  std::printf("recover: %zu shard(s) from %s, next epoch %u\n", shard_count,
              dir.c_str(), rec.next_epoch);
  for (std::size_t i = 0; i < rec.shards.size(); ++i) {
    const net::ShardRecoveryInfo& info = rec.shards[i];
    const OnlinePartitioner& c = cores[i]->controller();
    std::printf(
        "  shard %zu: %s, %zu resident, seq %llu, checksum %016llx "
        "(snapshot cut %llu, %llu replayed, %llu reconciled, %llu "
        "forward(s)%s)\n",
        i, cores[i]->active() ? "active" : "merged-away", c.resident_count(),
        static_cast<unsigned long long>(c.decision_seq()),
        static_cast<unsigned long long>(c.decision_checksum()),
        static_cast<unsigned long long>(info.snapshot_seq),
        static_cast<unsigned long long>(info.replayed),
        static_cast<unsigned long long>(info.reconciled),
        static_cast<unsigned long long>(cores[i]->forward_count()),
        info.truncated_bytes > 0 ? ", torn tail truncated" : "");
  }

  // A flight-recorder dump in the WAL directory (SIGUSR1 or the crash
  // handler wrote it) is part of the post-mortem: surface its tail next
  // to the recovery summary instead of making the operator go find it.
  const std::string flight_path = dir + "/flight.jsonl";
  std::ifstream flight(flight_path);
  if (flight) {
    std::vector<std::string> tail;
    std::string fline;
    std::size_t entries = 0;
    while (std::getline(flight, fline)) {
      if (fline.empty()) continue;
      ++entries;
      tail.push_back(fline);
      if (tail.size() > 4) tail.erase(tail.begin());
    }
    std::printf("flight recorder: %zu entr%s in %s%s\n", entries,
                entries == 1 ? "y" : "ies", flight_path.c_str(),
                entries > 0 ? ", newest last:" : "");
    for (const std::string& t : tail) std::printf("  %s\n", t.c_str());
  }
  return 0;
}

// Streams trace directives from stdin through a live controller, answering
// each line immediately — admission control as a service, minus the RPC.
int cmd_serve(const Args& args) {
  if (args.has("listen")) return cmd_serve_net(args);
  args.only("serve",
            {"admission", "alpha", "engine", "stats-interval", "trace-out"},
            kAdmitTestFlags);
  const auto kind = admission_flag(args);
  if (!kind) return usage();
  const auto engine = engine_flag(args);
  if (!engine) return usage();
  const double alpha = args.alpha();
  admit::AdmitConfig admit_cfg;
  if (!admit_config_flag(args, *kind, &admit_cfg)) return 2;
  const std::size_t stats_interval = args.get_unsigned("stats-interval", 0);
  const std::string trace_out = args.get("trace-out", "");
  if ((stats_interval > 0 || !trace_out.empty()) && !obs::kMetricsCompiled) {
    std::fprintf(stderr,
                 "warning: this binary was built without "
                 "-DHETSCHED_METRICS=ON; snapshots and traces are empty\n");
  }
  if (!trace_out.empty()) obs::set_trace_enabled(true);
  install_stop_handlers();

  std::optional<OnlinePartitioner> controller;
  std::map<std::uint64_t, OnlineTaskId> ids;
  std::string line;
  std::size_t lineno = 0;
  std::size_t directives = 0;
  while (!g_serve_stop && std::getline(std::cin, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream is(line);
    std::vector<std::string> tokens;
    std::string tok;
    while (is >> tok) tokens.push_back(tok);
    if (tokens.empty()) continue;

    auto complain = [&](const char* what) {
      std::printf("error line %zu: %s\n", lineno, what);
      std::fflush(stdout);
    };
    if (tokens[0] == "platform") {
      if (controller.has_value()) {
        complain("duplicate platform directive");
        continue;
      }
      std::vector<Rational> speeds;
      bool ok = tokens.size() >= 2;
      for (std::size_t t = 1; ok && t < tokens.size(); ++t) {
        const auto s = parse_speed_token(tokens[t]);
        if (!s || !(*s > Rational(0))) ok = false;
        else speeds.push_back(*s);
      }
      if (!ok) {
        complain("platform needs positive speeds");
        continue;
      }
      controller.emplace(Platform::from_speeds_exact(speeds), *kind, alpha,
                         *engine, admit_cfg);
      std::printf("serving %s/%s alpha=%.3f on %zu machines\n",
                  to_string(*kind).c_str(),
                  admit::test_name(admit_cfg), alpha,
                  speeds.size());
    } else if (tokens[0] == "arrive") {
      if (!controller) {
        complain("arrive before platform");
        continue;
      }
      if (tokens.size() != 5 && tokens.size() != 6) {
        complain("arrive needs <time> <task> <exec> <period> [<deadline>]");
        continue;
      }
      const auto task_no = parse_int_token(tokens[2]);
      const auto exec = parse_int_token(tokens[3]);
      const auto period = parse_int_token(tokens[4]);
      if (!task_no || *task_no < 0 || !exec || !period) {
        complain("bad arrive parameters");
        continue;
      }
      std::int64_t deadline = 0;
      if (tokens.size() == 6) {
        const auto d = parse_int_token(tokens[5]);
        if (!d || *d <= 0 || *d > *period) {
          complain("deadline must be in (0, period]");
          continue;
        }
        if (!controller->tiered()) {
          complain("constrained deadline needs --admission-test != legacy");
          continue;
        }
        deadline = *d;
      }
      const Task t{*exec, *period, deadline};
      if (!t.valid()) {
        complain("task parameters must be positive");
        continue;
      }
      if (!controller->accepts_input(t)) {
        complain("overhead-inflated exec overflows int64");
        continue;
      }
      const AdmitDecision d = controller->admit(t);
      if (d.admitted) {
        ids[static_cast<std::uint64_t>(*task_no)] = d.id;
        std::printf("admit %s -> machine %zu (w=%.4f, resident %zu)\n",
                    tokens[2].c_str(), d.machine, d.utilization,
                    controller->resident_count());
      } else {
        std::printf("reject %s (w=%.4f fits nowhere)\n", tokens[2].c_str(),
                    d.utilization);
      }
    } else if (tokens[0] == "depart") {
      if (!controller) {
        complain("depart before platform");
        continue;
      }
      if (tokens.size() != 3) {
        complain("depart needs <time> <task>");
        continue;
      }
      const auto task_no = parse_int_token(tokens[2]);
      if (!task_no || *task_no < 0) {
        complain("bad task number");
        continue;
      }
      const auto it = ids.find(static_cast<std::uint64_t>(*task_no));
      if (it == ids.end() || !controller->depart(it->second)) {
        std::printf("depart %s: not resident\n", tokens[2].c_str());
      } else {
        ids.erase(it);
        std::printf("depart %s ok (resident %zu)\n", tokens[2].c_str(),
                    controller->resident_count());
      }
    } else if (tokens[0] == "rebalance") {
      if (!controller) {
        complain("rebalance before platform");
        continue;
      }
      const RebalanceReport r = controller->rebalance();
      std::printf("rebalance %s: %zu residents, %zu migrations\n",
                  r.applied ? "applied" : "skipped", r.resident, r.migrations);
    } else if (tokens[0] == "status") {
      if (!controller) {
        complain("status before platform");
        continue;
      }
      std::printf("%s\n", controller->to_string().c_str());
    } else {
      complain("unknown directive");
      std::fflush(stdout);
      continue;
    }
    ++directives;
    if (stats_interval > 0 && directives % stats_interval == 0) {
      std::printf("--- metrics snapshot (after %zu directives) ---\n%s",
                  directives, obs::registry().expose().c_str());
    }
    std::fflush(stdout);
  }
  if (g_serve_stop != 0) {
    std::printf("stopping: drained after %zu directives\n", directives);
  }
  if (stats_interval > 0) {
    std::printf("--- metrics snapshot (final, %zu directives) ---\n%s",
                directives, obs::registry().expose().c_str());
  }
  const int trace_rc = flush_trace_ring(trace_out);
  std::fflush(stdout);
  return trace_rc;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Args args = Args::parse(argc, argv, 2);
  if (cmd == "test") return cmd_test(args);
  if (cmd == "certify") return cmd_certify(args);
  if (cmd == "augment") return cmd_augment(args);
  if (cmd == "simulate") return cmd_simulate(args);
  if (cmd == "sensitivity") return cmd_sensitivity(args);
  if (cmd == "generate") return cmd_generate(args);
  if (cmd == "generate-trace") return cmd_generate_trace(args);
  if (cmd == "replay") return cmd_replay(args);
  if (cmd == "serve") return cmd_serve(args);
  if (cmd == "recover") return cmd_recover(args);
  if (cmd == "stats") return cmd_stats(args);
  if (cmd == "tracez") return cmd_tracez(args);
  return usage();
}

}  // namespace
}  // namespace hetsched

int main(int argc, char** argv) { return hetsched::run(argc, argv); }
