// Shared pieces of the benchmark runner: clocks, order statistics, CPU
// placement, /proc readers, the in-memory span log, and the report every
// workload fills in.  See ../README.md for what the benchmark measures.
#pragma once

#include <sys/types.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

std::uint64_t now_ns();

// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty input.
// Reorders `v`.
double quantile(std::vector<double>& v, double q);
double quantile_u32(std::vector<std::uint32_t>& v, double q);
inline double median(std::vector<double> v) { return quantile(v, 0.5); }

// ---------------------------------------------------------------------------
// CPU placement.  The client (load generator, or the batch thread) and the
// server get disjoint CPUs, none of them CPU 0 when the machine has spare
// ones, so neither shares a core with the other or with housekeeping.
struct CpuPlan {
  int client = -1;          // -1: leave unpinned
  std::vector<int> server;  // empty: leave unpinned
};
CpuPlan plan_cpus(std::size_t server_cpus);
bool pin_this_thread(int cpu);
bool pin_process(pid_t pid, const std::vector<int>& cpus);

// ---------------------------------------------------------------------------
// /proc readers.
// Steal time of the given CPUs (all CPUs when empty), in milliseconds.
double steal_ms(const std::vector<int>& cpus);
// CPU time consumed by every thread of `pid` so far (schedstat), in ns.
std::uint64_t process_cpu_ns(pid_t pid);
// Peak resident set (VmHWM) of `pid` ("self" when 0), in MB.
double vm_hwm_mb(pid_t pid);

// ---------------------------------------------------------------------------
// Span log: every span of a traced run, kept in memory and written out once
// at the end.  A span's id is its index + 1, so a parent is found in O(1);
// parent 0 means a root span.  Spans of one thread never overlap their
// siblings, so a span's self time is its duration minus the sum of its
// children's durations.
enum class SpanName : std::uint16_t {
  kRequest,         // client: enqueue -> response (traced TCP run)
  kClientFlush,     // client: Client::try_flush
  kClientRecv,      // client: Client::try_recv_response
  kReplayRequest,   // replay: one request through every layer
  kEncodeRequest,   // replay: net::encode_request
  kDecodeRequest,   // replay: net::decode_request
  kAdmit,           // replay: OnlinePartitioner::admit (attr = tier)
  kDepart,          // replay: OnlinePartitioner::depart
  kWalAppend,       // replay: WalWriter::append_admit / append_depart
  kWalCommit,       // replay: WalWriter::commit
  kEncodeResponse,  // replay: net::encode_response
  kGenerate,        // gen: churn-trace or taskset generation
  kMinAlpha,        // partition: min_feasible_alpha
  kAccepts,         // partition: first_fit_accepts
  kCount,
};
const char* to_string(SpanName n);

struct Span {
  std::uint64_t parent = 0;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  SpanName name = SpanName::kRequest;
  std::uint8_t attr = 0;
};

class SpanLog {
 public:
  void reserve(std::size_t n) { spans_.reserve(n); }
  // Opens a span whose end is filled in later by close().
  std::uint64_t open(SpanName name, std::uint64_t parent, std::uint64_t t0) {
    spans_.push_back(Span{parent, t0, 0, name, 0});
    return spans_.size();
  }
  void close(std::uint64_t id, std::uint64_t t1) { spans_[id - 1].t1 = t1; }
  std::uint64_t record(SpanName name, std::uint64_t parent, std::uint64_t t0,
                       std::uint64_t t1, std::uint8_t attr = 0) {
    spans_.push_back(Span{parent, t0, t1, name, attr});
    return spans_.size();
  }
  const std::vector<Span>& spans() const { return spans_; }
  // Self time of every span (duration minus its children's durations).
  std::vector<std::uint64_t> self_times() const;
  // Writes the log as TSV (id, parent, name, attr, t0_ns, t1_ns).
  bool write_tsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Per-name self-time statistics of a span log.
struct LayerTimes {
  std::uint64_t count = 0;
  double total_ns = 0;
  std::vector<double> self_ns;  // one entry per span
  double mean() const { return count == 0 ? 0.0 : total_ns / count; }
};
std::vector<LayerTimes> fold_layers(const SpanLog& log);

// ---------------------------------------------------------------------------
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;          // tiny inputs: exercises every path quickly
  std::string cli;             // hetsched_cli binary (service workloads)
  std::string workdir;         // scratch directory inside the checkout
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;  // wrong outputs
  std::vector<std::string> checks_passed;
  std::vector<std::string> validity;        // run-validity notes (not errors)

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void check(bool ok, const std::string& what) {
    (ok ? checks_passed : check_failures).push_back(what);
  }
  void print_json(std::FILE* out) const;
};

// Every metric the runner reports, with its unit.  A run reports all
// end-to-end metrics (untraced run) or all per-layer metrics (traced run);
// a layer a workload never calls reports 0.
struct MetricDef {
  const char* name;
  const char* unit;
};
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"throughput_per_s", "1/s"},
    {"lat_p50_us", "us"},      {"acceptance", "ratio"},
    {"failed_ratio", "ratio"}, {"peak_rss_mb", "MB"},
};
inline constexpr MetricDef kPerLayer[] = {
    {"net.frames_per_batch", "count"},
    {"net.frames_per_batch_open", "count"},
    {"net.queue_hop_share", "ratio"},
    {"net.partial_writes", "count"},
    {"net.decode_ns", "ns"},
    {"net.encode_ns", "ns"},
    {"net.client_flush_ns", "ns"},
    {"net.client_recv_ns", "ns"},
    {"online.admit_ns_p50", "ns"},
    {"online.admit_ns_p99", "ns"},
    {"online.depart_ns_p50", "ns"},
    {"online.residents_max", "count"},
    {"admit.tier0_share", "ratio"},
    {"admit.tier1_share", "ratio"},
    {"admit.tier2_share", "ratio"},
    {"admit.tier1_ns_p50", "ns"},
    {"admit.tier1_ns_p99", "ns"},
    {"admit.tier2_ns_p50", "ns"},
    {"admit.tier2_ns_p99", "ns"},
    {"admit.escalation_time_share", "ratio"},
    {"io.wal_append_ns", "ns"},
    {"io.wal_commit_ns_p50", "ns"},
    {"io.wal_commit_ns_p99", "ns"},
    {"io.records_per_commit", "count"},
    {"partition.accepts_ns", "ns"},
    {"partition.alpha_ns", "ns"},
    {"gen.inputs_s", "s"},
    {"server.start_s", "s"},
    {"server.cpu_us_per_op", "us"},
    {"server.util", "ratio"},
    {"server.util_open", "ratio"},
    {"loadgen.lat_p99_us", "us"},
    {"loadgen.lat_p999_us", "us"},
    {"loadgen.lat_samples", "count"},
    {"loadgen.open_rate_share", "ratio"},
    {"loadgen.send_lateness_max_us", "us"},
    {"loadgen.host_steal_ms", "ms"},
    {"loadgen.tracing_overhead_pct", "%"},
    {"loadgen.tracing_overhead_p50_pct", "%"},
};

// Metric values by name; emit() adds the table's metrics in table order.
class Values {
 public:
  void set(const std::string& name, double v);
  void emit(Report* report, bool per_layer) const;

 private:
  std::vector<std::pair<std::string, double>> v_;
};

// Deterministic per-purpose seed derived from the benchmark seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose);

int run_service(const Options& opt, Report* report);
int run_batch(const Options& opt, Report* report);

}  // namespace perfbench
