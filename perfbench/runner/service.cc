// The service workloads: a real `hetsched_cli serve --listen` process,
// pinned to its own CPUs, driven over loopback by one pinned client thread
// with one connection per shard.  The runner sees the server only from
// outside: the wire protocol, the default build's GET_STATS counters, and
// /proc/<pid>.
//
// Each connection replays its shard's churn trace pass after pass (a trace
// ends with every task departed, so each pass starts from an empty
// controller).  The client folds the decision checksum of
// net/trace_replay.h per pass; the checks below compare every pass with an
// offline controller fed the same stream.
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "common.h"
#include "gen/churn_gen.h"
#include "gen/platform_gen.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/trace_replay.h"
#include "online/online_partitioner.h"
#include "replay.h"
#include "util/rng.h"

namespace perfbench {

namespace net = hetsched::net;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kRounds = 20;  // per timed phase
constexpr std::size_t kOpenInflightCap = 4096;
constexpr std::uint64_t kTracedRequestCap = 300000;  // per connection

// ---------------------------------------------------------------------------
// Workload definitions.
struct Workload {
  const char* name;
  std::size_t loops;       // server event loops
  bool no_reuseport;       // single acceptor: connection c lands on loop c%2
  bool cross;              // connection c drives shard (c + 1) % 2
  // --wal-dir with --wal-sync off.  The WAL must stay inside the checkout,
  // which is disk-backed on the reference host; there, `batch` sends 10 ms
  // fsyncs of ~1.5 MB to the disk, whose host-side I/O showed up as up to
  // 17% steal on the server's CPU.  `off` keeps the owner loop's work the
  // same (append, one write(2) per group commit) and the disk out of it.
  bool wal;
  const char* admission_test;  // nullptr: legacy implicit-deadline EDF
  std::size_t machines;
  double ratio;
  hetsched::ChurnSpec churn;  // per-shard trace
  std::size_t window;         // closed-loop requests in flight per connection
  double open_rate;           // open phase offered rate (req/s, all conns)
  std::uint64_t warmup;       // untimed requests per connection
  // WAL workload: each phase is split into segments of about this length,
  // one server lifetime each (0: one segment).
  double open_segment_s = 0;
  double sat_segment_s = 0;
  std::uint64_t restart_warmup = 0;  // untimed requests after a restart
};

Workload make_workload(const std::string& name, bool smoke) {
  Workload w{};
  w.name = "";
  hetsched::ChurnSpec edf;
  edf.arrival_rate = 20;
  edf.arrivals = smoke ? 4000 : 40000;
  if (name == "svc-edf-wal") {
    w = Workload{"svc-edf-wal", 1, false, false, true, nullptr, 8, 1.5, edf,
                 256, 500000, 40000};
  } else if (name == "svc-edf-xloop") {
    w = Workload{"svc-edf-xloop", 2, true, true, false, nullptr, 8, 1.5, edf,
                 256, 0, 40000};
  } else if (name == "svc-deadline-auto") {
    hetsched::ChurnSpec dl;
    dl.arrival_rate = 3;
    dl.arrivals = smoke ? 2000 : 40000;
    dl.constrained_fraction = 0.75;
    dl.deadline_ratio_lo = 0.4;
    dl.deadline_ratio_hi = 1.0;
    w = Workload{"svc-deadline-auto", 1, false, false, false, "auto", 4, 1.5,
                 dl, 64, 0, 4000};
  }
  if (w.wal) {
    // ~2.5M records per lifetime at 500k req/s open, ~1.5M req/s closed.
    w.open_segment_s = 5;
    w.sat_segment_s = 2.5;
    w.restart_warmup = 20000;
  }
  if (smoke) {
    w.warmup = std::min<std::uint64_t>(w.warmup, 2000);
    w.restart_warmup = std::min<std::uint64_t>(w.restart_warmup, 2000);
    w.open_segment_s /= 10;
    w.sat_segment_s /= 10;
  }
  return w;
}

hetsched::admit::AdmitConfig admit_config(const Workload& w) {
  hetsched::admit::AdmitConfig cfg;
  if (w.admission_test != nullptr) {
    cfg.test = *hetsched::admit::test_from_name(w.admission_test);
  }
  return cfg;
}

// ---------------------------------------------------------------------------
// Server process.
// Forks and execs args[0] with stdout and stderr to `log`, pinned to
// `cpus` (unpinned when empty).  Returns the child's pid, -1 on failure.
pid_t spawn_logged(std::vector<std::string> args, const std::string& log,
                   const std::vector<int>& cpus) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    pin_process(0, cpus);
    const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dup2(fd, 1);
      dup2(fd, 2);
      close(fd);
    }
    execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

struct ServerProc {
  pid_t pid = -1;
  std::uint16_t port = 0;
  std::string wal_dir;
  std::string log;
};

// Starts `hetsched_cli serve` pinned to the server CPUs and waits for its
// port file.  The WAL directory is created fresh unless `keep_wal` (a
// restart recovers from it).
bool spawn_server(const Options& opt, const Workload& w, const CpuPlan& cpus,
                  std::size_t start, bool keep_wal, ServerProc* out,
                  std::string* error) {
  const std::string tag =
      opt.workdir + "/" + w.name + "-" + std::to_string(start);
  const std::string port_file = tag + ".port";
  out->log = tag + ".log";
  fs::remove(port_file);
  std::vector<std::string> args = {
      opt.cli,      "serve",         "--listen",
      "127.0.0.1:0", "--shards",     std::to_string(kShards),
      "--loops",    std::to_string(w.loops),
      "--port-file", port_file,      "--machines",
      std::to_string(w.machines),    "--ratio",
      std::to_string(w.ratio)};
  if (w.no_reuseport) args.push_back("--no-reuseport");
  if (w.wal) {
    if (!keep_wal) {
      out->wal_dir = opt.workdir + "/" + w.name + ".wal";
      fs::remove_all(out->wal_dir);
      fs::create_directories(out->wal_dir);
    }
    args.insert(args.end(),
                {"--wal-dir", out->wal_dir, "--wal-sync", "off"});
  }
  if (w.admission_test != nullptr) {
    args.insert(args.end(), {"--admission-test", w.admission_test});
  }
  const pid_t pid = spawn_logged(args, out->log, cpus.server);
  if (pid < 0) {
    *error = "fork failed";
    return false;
  }
  out->pid = pid;
  // Ready when the port file holds a port.
  const std::uint64_t deadline = now_ns() + 20'000'000'000ULL;
  while (now_ns() < deadline) {
    std::ifstream pf(port_file);
    unsigned port = 0;
    if (pf >> port && port > 0) {
      out->port = static_cast<std::uint16_t>(port);
      return true;
    }
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) {
      out->pid = -1;
      *error = "server exited during start-up (see " + out->log + ")";
      return false;
    }
    usleep(50);
  }
  *error = "server did not write its port file";
  return false;
}

// SIGTERM, then wait for the graceful drain; SIGKILL after 20 s.  Returns
// the exit status (-1 when it had to be killed).
int stop_server(ServerProc* s) {
  if (s->pid <= 0) return -1;
  kill(s->pid, SIGTERM);
  const std::uint64_t deadline = now_ns() + 20'000'000'000ULL;
  int status = 0;
  while (true) {
    const pid_t r = waitpid(s->pid, &status, WNOHANG);
    if (r == s->pid) break;
    if (now_ns() > deadline) {
      kill(s->pid, SIGKILL);
      waitpid(s->pid, &status, 0);
      s->pid = -1;
      return -1;
    }
    usleep(1000);
  }
  s->pid = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// ---------------------------------------------------------------------------
// GET_STATS counters (Prometheus text) of the default build.
using Stats = std::map<std::string, double>;

bool fetch_stats(net::Client& ctl, Stats* out) {
  static std::uint64_t rid = 1;
  net::InfoResponse info;
  if (!ctl.call_info(net::Request::get_stats(rid++), &info, 5000)) {
    return false;
  }
  out->clear();
  std::istringstream in(info.text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.find(' ');
    if (sp == std::string::npos) continue;
    (*out)[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return true;
}

// ---------------------------------------------------------------------------
// One connection replaying one shard's trace, pass after pass.
class Stream {
 public:
  struct Pending {
    std::uint64_t stamp = 0;  // enqueue time (closed) or due time (open)
    std::uint64_t rid = 0;
    std::uint64_t span = 0;   // request span id (traced phase), else 0
    std::uint32_t task = 0;
    std::uint32_t pass = 0;
    bool arrival = true;
  };

  Stream(const hetsched::ChurnTrace& trace, std::uint16_t shard)
      : trace_(trace), shard_(shard), server_id_(trace.arrivals),
        state_(trace.arrivals, kLost), ring_(kRingSize) {
    pass_sums_.push_back(net::kFnv1aSeed);
  }

  net::Client& client() { return client_; }
  std::size_t inflight() const { return tail_ - head_; }
  bool failed() const { return failed_; }

  // Queues the next request of the stream stamped `stamp`.  False when the
  // next event is a departure still waiting for its arrival's answer.
  bool submit(std::uint64_t stamp, SpanLog* spans) {
    const auto& events = trace_.events;
    while (true) {
      if (next_ == events.size()) {
        next_ = 0;
        pass_sums_.push_back(net::kFnv1aSeed);
      }
      const hetsched::ChurnEvent& ev = events[next_];
      Pending p;
      p.stamp = stamp;
      p.rid = rid_;
      p.task = static_cast<std::uint32_t>(ev.task);
      p.pass = static_cast<std::uint32_t>(pass_sums_.size() - 1);
      if (ev.kind == hetsched::ChurnEvent::Kind::kArrival) {
        client_.queue_request(net::Request::admit(shard_, rid_, ev.params.exec,
                                                  ev.params.period,
                                                  ev.params.deadline));
        state_[ev.task] = kPendingAnswer;
      } else {
        std::uint8_t& st = state_[ev.task];
        if (st == kPendingAnswer) return false;
        if (st != kAdmitted) {
          ++next_;  // the arrival was refused: nothing to depart
          continue;
        }
        client_.queue_request(
            net::Request::depart(shard_, rid_, server_id_[ev.task]));
        st = kLost;
        p.arrival = false;
      }
      ++next_;
      ++rid_;
      ++sent_;
      if (spans != nullptr) p.span = spans->open(SpanName::kRequest, 0, stamp);
      ring_[tail_++ & kRingMask] = p;
      return true;
    }
  }

  bool flush(SpanLog* spans) {
    if (client_.pending_bytes() == 0) return true;
    const std::uint64_t t0 = spans ? now_ns() : 0;
    const bool ok = client_.try_flush();
    if (spans != nullptr) {
      spans->record(SpanName::kClientFlush, oldest_span(), t0, now_ns());
    }
    if (!ok) failed_ = true;
    return ok;
  }

  // Drains every answer already readable; latencies (ns since stamp) go to
  // `lat` when non-null.  Returns the number of answers.
  std::size_t drain(std::vector<std::uint32_t>* lat, SpanLog* spans) {
    std::size_t n = 0;
    net::Response resp;
    while (inflight() > 0) {
      const std::uint64_t t0 = spans ? now_ns() : 0;
      const int r = client_.try_recv_response(&resp);
      if (spans != nullptr) {
        const std::uint64_t t1 = now_ns();
        // An empty poll is timed but not logged: a client waiting on a slow
        // server polls millions of times a second, and a span for each
        // took the traced svc-deadline-auto run past 1 GB of memory.
        if (r == 0) {
          ++empty_polls_;
          empty_poll_ns_ += t1 - t0;
        } else {
          spans->record(SpanName::kClientRecv, oldest_span(), t0, t1);
        }
      }
      if (r < 0) {
        failed_ = true;
        break;
      }
      if (r == 0) break;
      const std::uint64_t now = now_ns();
      if (!resolve(resp, now, lat, spans)) {
        failed_ = true;
        break;
      }
      ++n;
    }
    return n;
  }

  // Counters.
  std::uint64_t sent() const { return sent_; }
  std::uint64_t answered() const { return answered_; }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t arrivals_answered() const { return arrivals_; }
  std::uint64_t retried() const { return retried_; }
  std::uint64_t bad() const { return bad_; }
  // Traced calls of try_recv_response that found nothing to read.
  std::uint64_t empty_polls() const { return empty_polls_; }
  std::uint64_t empty_poll_ns() const { return empty_poll_ns_; }
  // Per-pass checksums; the last pass is partial and covers the first
  // consumed() events of the trace.
  const std::vector<std::uint64_t>& pass_sums() const { return pass_sums_; }
  std::size_t consumed() const { return next_; }
  std::uint16_t shard() const { return shard_; }

 private:
  static constexpr std::uint8_t kPendingAnswer = 0, kAdmitted = 1, kLost = 2;
  static constexpr std::size_t kRingSize = 8192;  // > any window or cap
  static constexpr std::size_t kRingMask = kRingSize - 1;

  std::uint64_t oldest_span() const {
    return inflight() > 0 ? ring_[head_ & kRingMask].span : 0;
  }

  bool resolve(const net::Response& r, std::uint64_t now,
               std::vector<std::uint32_t>* lat, SpanLog* spans) {
    if (inflight() == 0) return false;
    const Pending p = ring_[head_++ & kRingMask];
    if (r.request_id != p.rid) return false;
    ++answered_;
    if (lat != nullptr) {
      const std::uint64_t d = now > p.stamp ? now - p.stamp : 0;
      lat->push_back(
          static_cast<std::uint32_t>(std::min<std::uint64_t>(d, UINT32_MAX)));
    }
    if (spans != nullptr && p.span != 0) spans->close(p.span, now);
    if (r.status == net::Status::kRetryLater) {
      ++retried_;
      if (p.arrival) state_[p.task] = kLost;
      return true;
    }
    std::uint64_t& h = pass_sums_[p.pass];
    if (p.arrival) {
      ++arrivals_;
      const bool ok = r.status == net::Status::kAdmitted;
      h = net::fnv1a(h, ok ? 1 : 0);
      h = net::fnv1a(h, ok ? r.machine : 0);
      h = net::fnv1a(h, r.value);
      if (ok) {
        ++admitted_;
        state_[p.task] = kAdmitted;
        server_id_[p.task] = r.task_id;
      } else {
        if (r.status != net::Status::kRejected) ++bad_;
        state_[p.task] = kLost;
      }
    } else {
      h = net::fnv1a(h, r.status == net::Status::kDeparted ? 1 : 0);
      if (r.status != net::Status::kDeparted) ++bad_;
    }
    return true;
  }

  const hetsched::ChurnTrace& trace_;
  std::uint16_t shard_;
  net::Client client_;
  std::vector<std::uint64_t> server_id_;
  std::vector<std::uint8_t> state_;
  std::vector<Pending> ring_;
  std::uint64_t head_ = 0, tail_ = 0;
  std::size_t next_ = 0;
  std::uint64_t rid_ = 1;
  std::vector<std::uint64_t> pass_sums_;
  bool failed_ = false;
  std::uint64_t sent_ = 0, answered_ = 0, admitted_ = 0, arrivals_ = 0,
                retried_ = 0, bad_ = 0, empty_polls_ = 0, empty_poll_ns_ = 0;
};

using Streams = std::vector<std::unique_ptr<Stream>>;

std::uint64_t total_answered(const Streams& ss) {
  std::uint64_t n = 0;
  for (const auto& s : ss) n += s->answered();
  return n;
}

bool any_failed(const Streams& ss) {
  for (const auto& s : ss) {
    if (s->failed()) return true;
  }
  return false;
}

// Closed loop: keep `window` requests in flight per connection until
// `end_ns` or until each connection has sent `max_requests` more.
void closed_loop(Streams& ss, std::size_t window, std::uint64_t end_ns,
                 std::uint64_t max_requests, std::vector<std::uint32_t>* lat,
                 SpanLog* spans) {
  std::vector<std::uint64_t> limit;
  for (const auto& s : ss) {
    limit.push_back(max_requests == UINT64_MAX ? UINT64_MAX
                                               : s->sent() + max_requests);
  }
  while (!any_failed(ss)) {
    const std::uint64_t now = now_ns();
    if (now >= end_ns) break;
    bool all_done = true;
    for (std::size_t c = 0; c < ss.size(); ++c) {
      Stream& s = *ss[c];
      while (s.inflight() < window && s.sent() < limit[c] &&
             s.submit(now, spans)) {
      }
      if (s.sent() < limit[c]) all_done = false;
      s.flush(spans);
    }
    for (auto& s : ss) s->drain(lat, spans);
    if (all_done) break;
  }
}

// Waits for every outstanding answer (no new requests).
bool settle(Streams& ss, std::uint64_t timeout_ns) {
  const std::uint64_t end = now_ns() + timeout_ns;
  while (now_ns() < end && !any_failed(ss)) {
    bool idle = true;
    for (auto& s : ss) {
      s->flush(nullptr);
      s->drain(nullptr, nullptr);
      if (s->inflight() > 0) idle = false;
    }
    if (idle) return true;
  }
  return false;
}

struct OpenResult {
  double offered = 0;     // req/s
  double achieved = 0;    // req/s sent
  double lateness_max_ns = 0;
};

// Open loop: request k of a connection is due at start + k / rate; it is
// sent as soon as the generator reaches it and timed from its due time.
// Latencies land in lat[r] for the round r of the phase they end in.
OpenResult open_loop(Streams& ss, double rate_per_conn, std::uint64_t start,
                     std::uint64_t end_ns,
                     std::vector<std::vector<std::uint32_t>>* lat) {
  OpenResult out;
  out.offered = rate_per_conn * static_cast<double>(ss.size());
  const double interval = 1e9 / rate_per_conn;
  std::vector<std::uint64_t> k(ss.size(), 0);
  std::uint64_t sent = 0;
  while (!any_failed(ss)) {
    const std::uint64_t now = now_ns();
    if (now >= end_ns) break;
    for (std::size_t c = 0; c < ss.size(); ++c) {
      Stream& s = *ss[c];
      while (s.inflight() < kOpenInflightCap) {
        const auto due = start + static_cast<std::uint64_t>(
                                     static_cast<double>(k[c]) * interval);
        if (due > now || !s.submit(due, nullptr)) break;
        out.lateness_max_ns =
            std::max(out.lateness_max_ns, static_cast<double>(now - due));
        ++k[c];
        ++sent;
      }
      s.flush(nullptr);
    }
    const std::size_t r = std::min(
        lat->size() - 1, static_cast<std::size_t>((now - start) * lat->size() /
                                                  (end_ns - start)));
    for (auto& s : ss) s->drain(&(*lat)[r], nullptr);
  }
  out.achieved = static_cast<double>(sent) /
                 (static_cast<double>(now_ns() - start) * 1e-9);
  return out;
}

// Server-side view of one timed phase, summed over its segments (the WAL
// workload restarts the server between segments).
struct Phase {
  std::map<std::string, double> deltas;  // GET_STATS counter deltas
  double cpu_ns = 0, wall_ns = 0, answered_n = 0, steal_total = 0;
  // Open segment.
  Stats before;
  std::uint64_t cpu0 = 0, t0 = 0, answered0 = 0;
  double steal0 = 0;

  double wall_s() const { return wall_ns * 1e-9; }
  double cpu_s() const { return cpu_ns * 1e-9; }
  double answered() const { return answered_n; }
  double steal() const { return steal_total; }
  // Busy share of the CPUs the server may run on.
  double util(double cpus) const {
    return wall_ns > 0 ? cpu_ns / (wall_ns * cpus) : 0;
  }
  double d(const char* counter) const {
    const auto it =
        deltas.find(std::string("hetsched_server_") + counter + "_total");
    return it == deltas.end() ? 0 : it->second;
  }
};

// A stream position: `passes` pass checksums started, `consumed` events of
// the last one consumed.
struct Cut {
  std::size_t passes = 0;
  std::size_t consumed = 0;
};

// An offline controller fed `passes` passes of `trace`, the last one cut
// after `last_events` events: the client-side checksum of each pass, and
// the controller's own decision checksum at each of `cuts` (in order).
struct ContinuousReplay {
  std::vector<std::uint64_t> pass_sums;
  std::vector<std::uint64_t> checksum_at;
};

ContinuousReplay replay_stream(const hetsched::Platform& platform,
                               const hetsched::admit::AdmitConfig& admit,
                               const hetsched::ChurnTrace& trace,
                               std::size_t passes, std::size_t last_events,
                               const std::vector<Cut>& cuts) {
  ContinuousReplay out;
  hetsched::OnlinePartitioner ctl(platform, hetsched::AdmissionKind::kEdf, 1.0,
                                  hetsched::PartitionEngine::kAuto, admit);
  ctl.reserve(trace.arrivals);
  std::vector<std::uint8_t> admitted(trace.arrivals, 0);
  std::vector<std::uint64_t> ids(trace.arrivals, 0);
  std::size_t next_cut = 0;
  auto take_cuts = [&](std::size_t p, std::size_t e) {
    while (next_cut < cuts.size() && cuts[next_cut].passes == p + 1 &&
           cuts[next_cut].consumed == e) {
      out.checksum_at.push_back(ctl.decision_checksum());
      ++next_cut;
    }
  };
  for (std::size_t p = 0; p < passes; ++p) {
    std::uint64_t h = net::kFnv1aSeed;
    const std::size_t n = p + 1 < passes ? trace.events.size() : last_events;
    for (std::size_t e = 0; e < n; ++e) {
      take_cuts(p, e);
      const hetsched::ChurnEvent& ev = trace.events[e];
      if (ev.kind == hetsched::ChurnEvent::Kind::kArrival) {
        const hetsched::AdmitDecision d = ctl.admit(ev.params);
        h = net::fnv1a(h, d.admitted ? 1 : 0);
        h = net::fnv1a(h, d.admitted ? d.machine : 0);
        h = net::fnv1a(h, std::bit_cast<std::uint64_t>(d.utilization));
        admitted[ev.task] = d.admitted;
        ids[ev.task] = d.id;
      } else if (admitted[ev.task]) {
        h = net::fnv1a(h, ctl.depart(ids[ev.task]) ? 1 : 0);
        admitted[ev.task] = 0;
      }
    }
    take_cuts(p, n);
    out.pass_sums.push_back(h);
  }
  return out;
}

// `hetsched_cli recover` on a WAL directory: true when it exits 0; fills
// the per-shard controller checksums it prints.
bool run_recover(const Options& opt, const Workload& w, const std::string& dir,
                 std::map<std::size_t, std::uint64_t>* sums) {
  const std::string out_path = dir + ".recover.out";
  const pid_t pid = spawn_logged(
      {opt.cli, "recover", "--wal-dir", dir, "--shards",
       std::to_string(kShards), "--machines", std::to_string(w.machines),
       "--ratio", std::to_string(w.ratio)},
      out_path, {});
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid) return false;
  const bool exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  std::ifstream in(out_path);
  std::string line;
  while (std::getline(in, line)) {
    unsigned long long sum = 0;
    std::size_t shard = 0;
    const auto p = line.find("checksum ");
    if (std::sscanf(line.c_str(), "  shard %zu:", &shard) == 1 &&
        p != std::string::npos &&
        std::sscanf(line.c_str() + p, "checksum %llx", &sum) == 1) {
      (*sums)[shard] = sum;
    }
  }
  return exited_ok && sums->size() == kShards;
}

// One server lifetime's end state, for the WAL workload: where each
// connection's stream stood and what `recover` printed.
struct Checkpoint {
  std::vector<Cut> cuts;  // per connection
  std::map<std::size_t, std::uint64_t> recovered;
  bool recover_ok = false;
};

struct Instance {
  ServerProc server;
  net::Client control;
  Streams streams;
};

}  // namespace

int run_service(const Options& opt, Report* report) {
  const Workload w = make_workload(opt.workload, opt.smoke);
  if (std::string(w.name).empty()) {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);
  // The server gets one CPU, whatever its loop count: it, not the client,
  // must set the saturating rate.
  const CpuPlan cpus = plan_cpus(1);
  if (!pin_this_thread(cpus.client)) {
    report->validity.push_back("client thread not pinned");
  }
  std::vector<int> measured_cpus = cpus.server;
  if (cpus.client >= 0) measured_cpus.push_back(cpus.client);
  const double server_cpus = cpus.server.empty()
                                 ? static_cast<double>(w.loops)
                                 : static_cast<double>(cpus.server.size());
  const hetsched::Platform platform =
      hetsched::geometric_platform(w.machines, w.ratio);
  const hetsched::admit::AdmitConfig admit = admit_config(w);

  Instance inst;
  std::size_t lifetimes = 0;
  bool exits_ok = true;
  double peak_rss = 0;
  std::vector<Checkpoint> checkpoints;
  // Spawns the server (a fresh WAL directory unless `keep_wal`) and
  // connects every stream and the control connection, in that order.
  auto start_server = [&](bool keep_wal) {
    std::string error;
    if (!spawn_server(opt, w, cpus, lifetimes++, keep_wal, &inst.server,
                      &error)) {
      std::fprintf(stderr, "%s: %s\n", w.name, error.c_str());
      return false;
    }
    const std::string addr = "127.0.0.1:" + std::to_string(inst.server.port);
    for (auto& s : inst.streams) {
      if (!s->client().connect(addr, 5000, &error)) {
        std::fprintf(stderr, "%s: connect: %s\n", w.name, error.c_str());
        return false;
      }
    }
    if (!inst.control.connect(addr, 5000, &error)) {
      std::fprintf(stderr, "%s: connect: %s\n", w.name, error.c_str());
      return false;
    }
    return true;
  };
  // Settles, disconnects and stops the server; with a WAL, `recover`
  // verifies the lifetime's log and rotates it.
  auto stop_lifetime = [&](bool check) {
    settle(inst.streams, 5'000'000'000ULL);
    peak_rss = std::max(peak_rss, vm_hwm_mb(inst.server.pid));
    inst.control.close();
    for (auto& s : inst.streams) s->client().close();
    exits_ok = stop_server(&inst.server) == 0 && exits_ok;
    if (check && w.wal) {
      Checkpoint cp;
      for (const auto& s : inst.streams) {
        cp.cuts.push_back(Cut{s->pass_sums().size(), s->consumed()});
      }
      cp.recover_ok = run_recover(opt, w, inst.server.wal_dir, &cp.recovered);
      checkpoints.push_back(cp);
    }
  };
  auto fail = [&]() {
    stop_server(&inst.server);
    return 1;
  };

  // ---- Set-up, repeated; setup_s is the median, the last one is kept.
  std::vector<double> setup_s, gen_s, start_s;
  std::vector<hetsched::ChurnTrace> traces;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) {
      stop_lifetime(false);
      inst.streams.clear();
      if (!inst.server.wal_dir.empty()) fs::remove_all(inst.server.wal_dir);
    }
    const std::uint64_t t0 = now_ns();
    traces.clear();
    for (std::size_t s = 0; s < kShards; ++s) {
      hetsched::Rng rng(derive_seed(opt.seed, 0x5E00 + s));
      traces.push_back(hetsched::generate_churn_trace(rng, w.churn));
    }
    const std::uint64_t t1 = now_ns();
    for (std::size_t c = 0; c < kShards; ++c) {
      const auto shard =
          static_cast<std::uint16_t>(w.cross ? (c + 1) % kShards : c);
      inst.streams.push_back(std::make_unique<Stream>(traces[shard], shard));
    }
    if (!start_server(false)) return fail();
    const std::uint64_t t2 = now_ns();
    closed_loop(inst.streams, w.window, UINT64_MAX, w.warmup, nullptr,
                nullptr);
    settle(inst.streams, 5'000'000'000ULL);
    const std::uint64_t t3 = now_ns();
    setup_s.push_back(static_cast<double>(t3 - t0) * 1e-9);
    gen_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    start_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
  }
  Streams& ss = inst.streams;

  auto begin_segment = [&](Phase* p) {
    fetch_stats(inst.control, &p->before);
    p->cpu0 = process_cpu_ns(inst.server.pid);
    p->steal0 = steal_ms(measured_cpus);
    p->answered0 = total_answered(ss);
    p->t0 = now_ns();
  };
  auto end_segment = [&](Phase* p) {
    const std::uint64_t t1 = now_ns();
    p->wall_ns += static_cast<double>(t1 - p->t0);
    p->answered_n += static_cast<double>(total_answered(ss) - p->answered0);
    p->cpu_ns += static_cast<double>(process_cpu_ns(inst.server.pid) - p->cpu0);
    p->steal_total += steal_ms(measured_cpus) - p->steal0;
    Stats after;
    fetch_stats(inst.control, &after);
    for (const auto& [key, value] : after) {
      const auto it = p->before.find(key);
      if (it != p->before.end()) p->deltas[key] += value - it->second;
    }
  };
  // Between the WAL workload's segments: stop, recover, restart from the
  // rotated log, and warm up again (all untimed).
  auto next_lifetime = [&]() {
    stop_lifetime(true);
    if (!start_server(true)) return false;
    closed_loop(ss, w.window, UINT64_MAX, w.restart_warmup, nullptr, nullptr);
    settle(ss, 5'000'000'000ULL);
    return true;
  };

  // ---- Timed phases.  A traced run gives half its time to the untraced
  // phases and half to a traced closed loop.  The WAL workload splits each
  // phase into segments, one server lifetime each, so that every log
  // `recover` loads stays a few million records long.
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const double open_s = w.open_rate > 0 ? budget / 2 : 0;
  const double sat_s = budget - open_s;
  auto segments = [&](double phase_s, double segment_s) {
    if (segment_s <= 0) return std::size_t{1};
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(phase_s / segment_s)));
  };
  const std::size_t open_segs = segments(open_s, w.open_segment_s);
  const std::size_t sat_segs = segments(sat_s, w.sat_segment_s);

  Phase open_ph, sat_ph, traced_ph;
  OpenResult open_res;
  std::vector<std::vector<std::uint32_t>> open_lat, sat_lat;
  std::vector<double> open_p50s, sat_rates, sat_p50s;
  bool first_segment = true;
  if (w.open_rate > 0) {
    const std::size_t rounds = std::max<std::size_t>(1, kRounds / open_segs);
    const double seg_s = open_s / static_cast<double>(open_segs);
    for (std::size_t g = 0; g < open_segs; ++g) {
      if (!first_segment && !next_lifetime()) return fail();
      first_segment = false;
      std::vector<std::vector<std::uint32_t>> lat(rounds);
      for (auto& l : lat) {
        l.reserve(static_cast<std::size_t>(w.open_rate * seg_s * 1.1 /
                                           static_cast<double>(rounds)));
      }
      begin_segment(&open_ph);
      const OpenResult r = open_loop(
          ss, w.open_rate / kShards, open_ph.t0,
          open_ph.t0 + static_cast<std::uint64_t>(seg_s * 1e9), &lat);
      settle(ss, 5'000'000'000ULL);
      end_segment(&open_ph);
      open_res.offered = r.offered;
      open_res.achieved += r.achieved / static_cast<double>(open_segs);
      open_res.lateness_max_ns =
          std::max(open_res.lateness_max_ns, r.lateness_max_ns);
      for (auto& l : lat) {
        open_p50s.push_back(quantile_u32(l, 0.5));
        open_lat.push_back(std::move(l));
      }
    }
  }
  {
    const std::size_t rounds = std::max<std::size_t>(1, kRounds / sat_segs);
    const double seg_s = sat_s / static_cast<double>(sat_segs);
    for (std::size_t g = 0; g < sat_segs; ++g) {
      if (!first_segment && !next_lifetime()) return fail();
      first_segment = false;
      begin_segment(&sat_ph);
      for (std::size_t r = 0; r < rounds; ++r) {
        const std::uint64_t r0 = now_ns();
        const std::uint64_t a0 = total_answered(ss);
        const std::uint64_t r_end =
            sat_ph.t0 + static_cast<std::uint64_t>(
                            seg_s * 1e9 * static_cast<double>(r + 1) /
                            static_cast<double>(rounds));
        std::vector<std::uint32_t> lat;
        closed_loop(ss, w.window, r_end, UINT64_MAX, &lat, nullptr);
        const double dt = static_cast<double>(now_ns() - r0) * 1e-9;
        sat_rates.push_back(static_cast<double>(total_answered(ss) - a0) / dt);
        sat_p50s.push_back(quantile_u32(lat, 0.5));
        sat_lat.push_back(std::move(lat));
      }
      settle(ss, 5'000'000'000ULL);
      end_segment(&sat_ph);
    }
  }

  SpanLog client_spans;
  double traced_rate = 0, traced_p50 = 0;
  if (opt.trace) {
    client_spans.reserve(1u << 20);
    std::vector<std::uint32_t> traced_lat;
    begin_segment(&traced_ph);
    const std::uint64_t traced_end =
        traced_ph.t0 + static_cast<std::uint64_t>(opt.seconds / 2 * 1e9);
    closed_loop(ss, w.window, traced_end, kTracedRequestCap, &traced_lat,
                &client_spans);
    const std::uint64_t t_end = now_ns();
    const std::uint64_t answered = total_answered(ss) - traced_ph.answered0;
    settle(ss, 5'000'000'000ULL);
    end_segment(&traced_ph);
    traced_rate = static_cast<double>(answered) /
                  (static_cast<double>(t_end - traced_ph.t0) * 1e-9);
    traced_p50 = quantile_u32(traced_lat, 0.5);
  }
  const bool settled = settle(ss, 5'000'000'000ULL);
  const std::uint64_t t_stop = now_ns();
  stop_lifetime(true);
  const std::uint64_t t_stopped = now_ns();
  report->check(exits_ok, "server drained and exited 0 on SIGTERM (" +
                              std::to_string(lifetimes) + " start(s))");
  report->check(settled && !any_failed(ss),
                "every request answered, no transport error");

  // ---- Checks.  Every full pass must equal net::offline_decision_checksum
  // of the trace (each pass starts from an empty controller) and the
  // partial last pass that of the consumed prefix.  Where that does not
  // hold, and always for the WAL workload (whose `recover` checks need the
  // controller's own checksum at each lifetime's end), an offline
  // controller is fed the whole served stream, one thread per connection.
  struct Offline {
    bool match = false;
    std::uint64_t first_pass = 0;            // net::offline_decision_checksum
    std::vector<std::uint64_t> checksum_at;  // per checkpoint
  };
  std::vector<Offline> offline(ss.size());
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < ss.size(); ++c) {
      threads.emplace_back([&, c] {
        if (cpus.server.size() > c) pin_this_thread(cpus.server[c]);
        const Stream& s = *ss[c];
        const hetsched::ChurnTrace& tr = traces[s.shard()];
        Offline& off = offline[c];
        auto fresh = [&](const hetsched::ChurnTrace& t) {
          return net::offline_decision_checksum(
              platform, t, hetsched::AdmissionKind::kEdf, 1.0,
              hetsched::PartitionEngine::kAuto, admit);
        };
        const std::vector<std::uint64_t>& served = s.pass_sums();
        off.first_pass = fresh(tr);
        off.match = true;
        for (std::size_t p = 0; p + 1 < served.size(); ++p) {
          off.match = off.match && served[p] == off.first_pass;
        }
        if (off.match) {
          hetsched::ChurnTrace prefix;
          prefix.arrivals = tr.arrivals;
          prefix.events.assign(tr.events.begin(),
                               tr.events.begin() +
                                   static_cast<std::ptrdiff_t>(s.consumed()));
          off.match = served.back() == fresh(prefix);
        }
        if (off.match && !w.wal) return;
        std::vector<Cut> cuts;
        for (const Checkpoint& cp : checkpoints) cuts.push_back(cp.cuts[c]);
        const ContinuousReplay cr = replay_stream(
            platform, admit, tr, served.size(), s.consumed(), cuts);
        off.match = cr.pass_sums == served;
        off.checksum_at = cr.checksum_at;
      });
    }
    for (std::thread& t : threads) t.join();
  }
  std::uint64_t attempted = 0, failed = 0, retried = 0, arrivals = 0,
                admitted = 0;
  std::size_t passes_checked = 0;
  for (std::size_t c = 0; c < ss.size(); ++c) {
    const Stream& s = *ss[c];
    attempted += s.sent();
    retried += s.retried();
    arrivals += s.arrivals_answered();
    admitted += s.admitted();
    const bool match = offline[c].match;
    passes_checked += s.pass_sums().size();
    report->check(match, "shard " + std::to_string(s.shard()) + ": " +
                             std::to_string(s.pass_sums().size()) +
                             " served pass checksums equal the offline replay");
    failed += match ? s.retried() + s.bad() + (s.sent() - s.answered())
                    : s.sent();
  }
  report->check(retried == 0, "no RETRY_LATER answered (" +
                                  std::to_string(retried) + ")");

  // Crash-recovery parity: after every lifetime `recover` re-verified the
  // WAL record by record, and its per-shard controller checksums must
  // equal the offline controllers' at the same point of the stream.
  if (w.wal) {
    bool ok = !checkpoints.empty();
    for (std::size_t k = 0; k < checkpoints.size() && ok; ++k) {
      ok = checkpoints[k].recover_ok;
      for (std::size_t c = 0; c < ss.size() && ok; ++c) {
        ok = offline[c].checksum_at.size() == checkpoints.size() &&
             checkpoints[k].recovered[ss[c]->shard()] ==
                 offline[c].checksum_at[k];
      }
    }
    report->check(ok, "recover verified the WAL of each of " +
                          std::to_string(checkpoints.size()) +
                          " lifetime(s); its checksums equal the offline "
                          "controllers'");
    if (!ok) failed = attempted;
    fs::remove_all(inst.server.wal_dir);
  }
  const std::uint64_t t_checked = now_ns();

  // ---- Traced in-process replay: one full pass per shard.
  Values v;
  if (opt.trace) {
    SpanLog replay_spans;
    replay_spans.reserve(8u * 2 * w.churn.arrivals * kShards + 16);
    ReplayConfig rc;
    rc.platform = platform;
    rc.admit = admit;
    const double rpc = sat_ph.d("wal_commits") > 0
                           ? sat_ph.d("wal_records") / sat_ph.d("wal_commits")
                           : 0;
    rc.records_per_commit = rpc;
    std::uint64_t residents_max = 0;
    for (std::size_t c = 0; c < ss.size(); ++c) {
      if (w.wal) {
        rc.wal_path = opt.workdir + "/replay-" + std::to_string(c) + ".wal";
        fs::remove(rc.wal_path);
      }
      const ReplayResult rr = traced_replay(rc, traces[ss[c]->shard()],
                                            ss[c]->shard(), &replay_spans);
      if (w.wal) fs::remove(rc.wal_path);
      residents_max = std::max(residents_max, rr.residents_max);
      const bool ok = rr.wal_ok && rr.checksum == offline[c].first_pass &&
                      (ss[c]->pass_sums().size() < 2 ||
                       rr.checksum == ss[c]->pass_sums()[0]);
      report->check(ok, "shard " + std::to_string(ss[c]->shard()) +
                            ": traced replay checksum equals the served one");
      if (!ok) failed = attempted;
    }
    const std::vector<LayerTimes> L = fold_layers(replay_spans);
    const std::vector<LayerTimes> C = fold_layers(client_spans);
    auto at = [](const std::vector<LayerTimes>& l,
                 SpanName n) -> const LayerTimes& {
      return l[static_cast<std::size_t>(n)];
    };
    v.set("net.decode_ns", at(L, SpanName::kDecodeRequest).mean());
    v.set("net.encode_ns", at(L, SpanName::kEncodeResponse).mean());
    v.set("net.client_flush_ns", at(C, SpanName::kClientFlush).mean());
    // Mean over every call, the unlogged empty polls included.
    double recv_calls = static_cast<double>(at(C, SpanName::kClientRecv).count);
    double recv_ns = at(C, SpanName::kClientRecv).total_ns;
    for (const auto& s : ss) {
      recv_calls += static_cast<double>(s->empty_polls());
      recv_ns += static_cast<double>(s->empty_poll_ns());
    }
    v.set("net.client_recv_ns", recv_calls > 0 ? recv_ns / recv_calls : 0);
    // Admit spans by deciding tier.
    std::vector<double> admit_ns, tier_ns[3];
    double tier_total[3] = {0, 0, 0};
    for (const Span& span : replay_spans.spans()) {
      if (span.name != SpanName::kAdmit) continue;  // a leaf: self = duration
      const double d = static_cast<double>(span.t1 - span.t0);
      admit_ns.push_back(d);
      const std::size_t t = std::min<std::size_t>(span.attr, 2);
      tier_ns[t].push_back(d);
      tier_total[t] += d;
    }
    std::vector<double> depart_ns = at(L, SpanName::kDepart).self_ns;
    const double n_admit = static_cast<double>(admit_ns.size());
    v.set("online.admit_ns_p50", quantile(admit_ns, 0.5));
    v.set("online.admit_ns_p99", quantile(admit_ns, 0.99));
    v.set("online.depart_ns_p50", quantile(depart_ns, 0.5));
    v.set("online.residents_max", static_cast<double>(residents_max));
    v.set("admit.tier0_share", n_admit > 0 ? tier_ns[0].size() / n_admit : 0);
    v.set("admit.tier1_share", n_admit > 0 ? tier_ns[1].size() / n_admit : 0);
    v.set("admit.tier2_share", n_admit > 0 ? tier_ns[2].size() / n_admit : 0);
    v.set("admit.tier1_ns_p50", quantile(tier_ns[1], 0.5));
    v.set("admit.tier1_ns_p99", quantile(tier_ns[1], 0.99));
    v.set("admit.tier2_ns_p50", quantile(tier_ns[2], 0.5));
    v.set("admit.tier2_ns_p99", quantile(tier_ns[2], 0.99));
    const double controller_ns = at(L, SpanName::kAdmit).total_ns +
                                 at(L, SpanName::kDepart).total_ns;
    v.set("admit.escalation_time_share",
          controller_ns > 0 ? (tier_total[1] + tier_total[2]) / controller_ns
                            : 0);
    v.set("io.wal_append_ns", at(L, SpanName::kWalAppend).mean());
    std::vector<double> commit_ns = at(L, SpanName::kWalCommit).self_ns;
    v.set("io.wal_commit_ns_p50", quantile(commit_ns, 0.5));
    v.set("io.wal_commit_ns_p99", quantile(commit_ns, 0.99));
    v.set("io.records_per_commit", rpc);

    // Server counters and client-side figures.
    auto frames_per_batch = [](const Phase& p) {
      return p.d("batches") > 0 ? p.d("frames_rx") / p.d("batches") : 0;
    };
    v.set("net.frames_per_batch", frames_per_batch(sat_ph));
    if (w.open_rate > 0) {
      v.set("net.frames_per_batch_open", frames_per_batch(open_ph));
      v.set("server.util_open", open_ph.util(server_cpus));
      v.set("loadgen.open_rate_share", open_res.achieved / open_res.offered);
      v.set("loadgen.send_lateness_max_us", open_res.lateness_max_ns * 1e-3);
    }
    const double frames = sat_ph.d("frames_rx");
    v.set("net.queue_hop_share",
          frames > 0 ? sat_ph.d("enqueued") / frames : 0);
    v.set("net.partial_writes", sat_ph.d("partial_writes"));
    v.set("gen.inputs_s", median(gen_s));
    v.set("server.start_s", median(start_s));
    v.set("server.cpu_us_per_op",
          sat_ph.answered() > 0 ? sat_ph.cpu_s() * 1e6 / sat_ph.answered() : 0);
    v.set("server.util", sat_ph.util(server_cpus));
    // Tails of the phase lat_p50_us comes from, all rounds pooled.
    std::vector<std::vector<std::uint32_t>>& rounds =
        w.open_rate > 0 ? open_lat : sat_lat;
    std::vector<std::uint32_t>& tail_src = rounds[0];
    for (std::size_t r = 1; r < kRounds; ++r) {
      tail_src.insert(tail_src.end(), rounds[r].begin(), rounds[r].end());
    }
    v.set("loadgen.lat_samples", static_cast<double>(tail_src.size()));
    v.set("loadgen.lat_p99_us", quantile_u32(tail_src, 0.99) * 1e-3);
    v.set("loadgen.lat_p999_us", quantile_u32(tail_src, 0.999) * 1e-3);
    v.set("loadgen.host_steal_ms", open_ph.steal() + sat_ph.steal());
    const double plain_rate = median(sat_rates);
    const double plain_p50 = median(sat_p50s);
    v.set("loadgen.tracing_overhead_pct",
          plain_rate > 0 ? (plain_rate - traced_rate) / plain_rate * 100 : 0);
    v.set("loadgen.tracing_overhead_p50_pct",
          plain_p50 > 0 ? (traced_p50 - plain_p50) / plain_p50 * 100 : 0);
    replay_spans.write_tsv(opt.workdir + "/spans-" + w.name + "-replay.tsv");
    client_spans.write_tsv(opt.workdir + "/spans-" + w.name + "-client.tsv");
  } else {
    v.set("setup_s", median(setup_s));
    v.set("throughput_per_s", median(sat_rates));
    v.set("lat_p50_us",
          (w.open_rate > 0 ? median(open_p50s) : median(sat_p50s)) *
              1e-3);
    v.set("acceptance", arrivals > 0 ? static_cast<double>(admitted) /
                                           static_cast<double>(arrivals)
                                     : 0);
    v.set("peak_rss_mb", peak_rss);
  }

  // Validity of the run (reported, never averaged away).
  const double util = sat_ph.util(server_cpus);
  const double steal = open_ph.steal() + sat_ph.steal();
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "saturating phase server.util %.3f (want >= 0.9)", util);
  if (util < 0.9) report->validity.push_back(buf);
  if (w.open_rate > 0) {
    std::snprintf(buf, sizeof buf,
                  "open phase sent %.0f of %.0f req/s offered (want >= 99%%), "
                  "max lateness %.1f us",
                  open_res.achieved, open_res.offered,
                  open_res.lateness_max_ns * 1e-3);
    if (open_res.achieved < 0.99 * open_res.offered) {
      report->validity.push_back(buf);
    }
  }
  std::snprintf(buf, sizeof buf, "host steal %.0f ms over the timed phases",
                steal);
  if (steal > 0) report->validity.push_back(buf);

  report->attempted = attempted;
  report->failed = std::min(failed, attempted);
  if (!opt.trace) {
    v.set("failed_ratio", attempted > 0 ? static_cast<double>(report->failed) /
                                              static_cast<double>(attempted)
                                        : 0);
  }
  v.emit(report, opt.trace);
  auto print_rounds = [&](const char* what, const std::vector<double>& xs,
                          double scale) {
    std::printf("%s: %s per round:", w.name, what);
    for (double x : xs) std::printf(" %.4g", x * scale);
    std::printf("\n");
  };
  if (w.open_rate > 0) print_rounds("open-loop p50 us", open_p50s, 1e-3);
  print_rounds("saturating req/s", sat_rates, 1);
  print_rounds("saturating p50 us", sat_p50s, 1e-3);
  std::printf("%s: %zu passes checked, %llu requests, server util %.3f, "
              "steal %.0f ms, setup %.3fs (gen %.3fs, start %.4fs); "
              "final stop %.2fs, offline checks %.2fs\n",
              w.name, passes_checked,
              static_cast<unsigned long long>(attempted), util, steal,
              median(setup_s), median(gen_s), median(start_s),
              static_cast<double>(t_stopped - t_stop) * 1e-9,
              static_cast<double>(t_checked - t_stopped) * 1e-9);
  return 0;
}

}  // namespace perfbench
