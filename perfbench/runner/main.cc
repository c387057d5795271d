// perfbench_runner: runs one benchmark workload and prints its report as
// one JSON object on the last line of stdout.  run.py builds and invokes
// it; see ../README.md.
//
//   perfbench_runner --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--smoke] --cli PATH --workdir DIR
#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common.h"
#include "util/rng.h"

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {
template <typename T>
double quantile_impl(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.end());
  const double a = static_cast<double>(v[lo]);
  if (lo + 1 >= v.size()) return a;
  const double b = static_cast<double>(
      *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                        v.end()));
  return a + (b - a) * (pos - static_cast<double>(lo));
}
}  // namespace

double quantile(std::vector<double>& v, double q) {
  return quantile_impl(v, q);
}
double quantile_u32(std::vector<std::uint32_t>& v, double q) {
  return quantile_impl(v, q);
}

CpuPlan plan_cpus(std::size_t server_cpus) {
  CpuPlan plan;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return plan;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  // Keep CPU 0 (interrupts, housekeeping) out of the plan when there are
  // enough CPUs for a client plus the server without it.
  if (cpus.size() >= server_cpus + 2 && cpus.front() == 0) {
    cpus.erase(cpus.begin());
  }
  if (cpus.size() < 2) return plan;  // nothing disjoint to hand out
  plan.client = cpus[0];
  for (std::size_t i = 1; i < cpus.size() && plan.server.size() < server_cpus;
       ++i) {
    plan.server.push_back(cpus[i]);
  }
  return plan;
}

bool pin_this_thread(int cpu) {
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

bool pin_process(pid_t pid, const std::vector<int>& cpus) {
  if (cpus.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(pid, sizeof(set), &set) == 0;
}

double steal_ms(const std::vector<int>& cpus) {
  std::ifstream in("/proc/stat");
  std::string line;
  double ticks = 0;
  while (std::getline(in, line)) {
    if (line.rfind("cpu", 0) != 0) break;
    std::istringstream ls(line);
    std::string name;
    ls >> name;
    if (name == "cpu") {
      if (!cpus.empty()) continue;  // the all-CPU line only when asked
    } else {
      const int id = std::atoi(name.c_str() + 3);
      if (cpus.empty() ||
          std::find(cpus.begin(), cpus.end(), id) == cpus.end()) {
        continue;
      }
    }
    // user nice system idle iowait irq softirq steal
    double f[8] = {};
    for (double& x : f) ls >> x;
    ticks += f[7];
  }
  return ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::uint64_t process_cpu_ns(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  std::uint64_t total = 0;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    std::uint64_t run_ns = 0;
    if (in >> run_ns) total += run_ns;
  }
  closedir(d);
  return total;
}

double vm_hwm_mb(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

const char* to_string(SpanName n) {
  static const char* const kNames[] = {
      "request",        "client_flush",  "client_recv",  "replay_request",
      "encode_request", "decode_request", "admit",       "depart",
      "wal_append",     "wal_commit",    "encode_response", "generate",
      "min_feasible_alpha", "first_fit_accepts"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<std::size_t>(SpanName::kCount));
  return kNames[static_cast<std::size_t>(n)];
}

std::vector<std::uint64_t> SpanLog::self_times() const {
  std::vector<std::uint64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].t1 - spans_[i].t0;
  }
  for (const Span& s : spans_) {
    if (s.parent == 0) continue;
    std::uint64_t& p = self[s.parent - 1];
    const std::uint64_t d = s.t1 - s.t0;
    p = p > d ? p - d : 0;
  }
  return self;
}

bool SpanLog::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("id\tparent\tname\tattr\tt0_ns\tt1_ns\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%llu\t%s\t%u\t%llu\t%llu\n", i + 1,
                 static_cast<unsigned long long>(s.parent), to_string(s.name),
                 static_cast<unsigned>(s.attr),
                 static_cast<unsigned long long>(s.t0),
                 static_cast<unsigned long long>(s.t1));
  }
  return std::fclose(f) == 0;
}

std::vector<LayerTimes> fold_layers(const SpanLog& log) {
  std::vector<LayerTimes> out(static_cast<std::size_t>(SpanName::kCount));
  const std::vector<std::uint64_t> self = log.self_times();
  const std::vector<Span>& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTimes& lt = out[static_cast<std::size_t>(spans[i].name)];
    ++lt.count;
    lt.total_ns += static_cast<double>(self[i]);
    lt.self_ns.push_back(static_cast<double>(self[i]));
  }
  return out;
}

namespace {
std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

void print_strings(std::FILE* out, const char* key,
                   const std::vector<std::string>& v) {
  std::fprintf(out, "\"%s\": [", key);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::fprintf(out, "%s\"%s\"", i ? ", " : "", json_escape(v[i]).c_str());
  }
  std::fprintf(out, "]");
}
}  // namespace

void Report::print_json(std::FILE* out) const {
  std::fprintf(out, "{\"attempted\": %llu, \"failed\": %llu, \"metrics\": [",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::fprintf(out,
                 "%s{\"name\": \"%s\", \"value\": %.17g, \"unit\": "
                 "\"%s\"}",
                 i ? ", " : "", metrics[i].name.c_str(), v,
                 metrics[i].unit.c_str());
  }
  std::fprintf(out, "], ");
  print_strings(out, "check_failures", check_failures);
  std::fprintf(out, ", ");
  print_strings(out, "checks_passed", checks_passed);
  std::fprintf(out, ", ");
  print_strings(out, "validity", validity);
  std::fprintf(out, "}\n");
}

void Values::set(const std::string& name, double v) {
  auto known = [&](const auto& table) {
    for (const MetricDef& d : table) {
      if (name == d.name) return true;
    }
    return false;
  };
  if (!known(kEndToEnd) && !known(kPerLayer)) {
    std::fprintf(stderr, "internal error: unknown metric %s\n", name.c_str());
    std::abort();
  }
  for (auto& [n, x] : v_) {
    if (n == name) {
      x = v;
      return;
    }
  }
  v_.emplace_back(name, v);
}

void Values::emit(Report* report, bool per_layer) const {
  auto emit_table = [&](const auto& table) {
    for (const MetricDef& d : table) {
      double x = 0;
      for (const auto& [n, v] : v_) {
        if (n == d.name) x = v;
      }
      report->add(d.name, x, d.unit);
    }
  };
  if (per_layer) {
    emit_table(kPerLayer);
  } else {
    emit_table(kEndToEnd);
  }
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  hetsched::SplitMix64 sm(seed * 0x100000001B3ULL + purpose);
  return sm.next();
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] --cli PATH "
               "--workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--cli") {
      opt.cli = value();
    } else if (a == "--workdir") {
      opt.workdir = value();
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || opt.workdir.empty() || !(opt.seconds > 0)) {
    return usage();
  }
  perfbench::Report report;
  int rc = 2;
  if (opt.workload == "batch-alpha") {
    rc = perfbench::run_batch(opt, &report);
  } else if (opt.workload.rfind("svc-", 0) == 0) {
    if (opt.cli.empty()) return usage();
    rc = perfbench::run_service(opt, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  std::fflush(stdout);
  report.print_json(stdout);
  return 0;
}
