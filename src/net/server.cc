#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_map>

#include "io/obs_jsonl.h"
#include "io/snapshot_format.h"
#include "net/addr.h"
#include "net/shard_core.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/check.h"

namespace hetsched::net {

namespace {

// A connection whose unsent response backlog exceeds this many bytes is
// dropped: the slow-reader memory bound of the response path.
constexpr std::size_t kMaxResponseBacklog = std::size_t{1} << 20;
// How long a graceful stop waits for peers to take their parked
// responses before it closes their sockets.
constexpr auto kShutdownFlushTimeout = std::chrono::milliseconds(5000);

#if HETSCHED_METRICS_ENABLED
// Pre-registered histogram handles: instrumentation on the frame path
// must not do by-name registry lookups (lint rule [metric-handle]).  The
// per-event counters are ServerStats, exposed as hetsched_server_* in
// every build; per-shard queue-depth and per-loop connection gauges carry
// the shard/loop index in their names, so they live on Shard/Loop.
struct NetMetrics {
  obs::LatencyHistogram resize_pause = obs::registry().histogram(
      "hetsched_net_resize_pause_ns",
      "Time the involved shards were quiesced, per resize");
  obs::LatencyHistogram latency = obs::registry().histogram(
      "hetsched_net_request_latency_ns",
      "Decode-to-response latency, sampled 1 in kLatencySamplePeriod");
  obs::LatencyHistogram batch_frames = obs::registry().histogram(
      "hetsched_net_batch_frames",
      "Frames per drain round (count, log2 buckets)");
};
const NetMetrics g_metrics;
#endif  // HETSCHED_METRICS_ENABLED

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

// CPUs the calling thread may run on: under `taskset -c 2` that is 1,
// where hardware_concurrency() still counts the whole machine.
std::size_t hardware_loops() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

// Opens a non-blocking listen socket on the "host:port" address —
// socket, SO_REUSEADDR, bind, listen — and stores the port it bound in
// *bound (port 0 binds an ephemeral one).  Returns the fd, or -1 with
// *error set.
int open_listen_socket(const std::string& listen_addr, std::uint16_t* bound,
                       std::string* error) {
  HostPort addr;
  if (!parse_host_port(listen_addr, &addr, error)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = errno_string("socket");
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(addr.port);
  ::inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0 ||
      ::listen(fd, 1024) != 0 || !set_nonblocking(fd)) {
    *error = errno_string("bind/listen");
    ::close(fd);
    return -1;
  }
  sockaddr_in got{};
  socklen_t got_len = sizeof(got);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&got), &got_len);
  *bound = ntohs(got.sin_port);
  return fd;
}

// An answer that carries no decision.
Response reply(const Request& req, Status status) {
  Response resp;
  resp.type = req.type;
  resp.status = status;
  resp.request_id = req.request_id;
  return resp;
}

// Frame types a shard controller decides — the ones that place a
// connection.  Introspection and resize frames run on whichever loop
// decodes them.
bool routes_to_shard(MsgType type) {
  return type == MsgType::kAdmit || type == MsgType::kDepart ||
         type == MsgType::kRebalance;
}

// Poller: per-loop epoll readiness multiplexer.  Level triggered, so a
// partially drained socket re-fires and the read path never needs an
// exhaustive drain loop to stay correct.  Write interest is per-fd and
// toggled as response backlogs appear and drain.  Single-threaded: only
// the owning loop touches its poller; cross-loop write arming goes
// through the loop's control queue instead.
class Poller {
 public:
  struct Ready {
    int fd = -1;
    bool readable = false;
    bool writable = false;
  };

  Poller() = default;
  ~Poller() {
    if (ep_ >= 0) ::close(ep_);
  }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  bool init(std::string* error) {
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (ep_ < 0) {
      *error = errno_string("epoll_create1");
      return false;
    }
    events_.resize(128);
    return true;
  }

  bool add(int fd, bool want_read, bool want_write) {
    epoll_event ev{};
    ev.events = mask(want_read, want_write);
    ev.data.fd = fd;
    return ::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) == 0;
  }

  void set_interest(int fd, bool want_read, bool want_write) {
    epoll_event ev{};
    ev.events = mask(want_read, want_write);
    ev.data.fd = fd;
    ::epoll_ctl(ep_, EPOLL_CTL_MOD, fd, &ev);
  }

  void remove(int fd) { ::epoll_ctl(ep_, EPOLL_CTL_DEL, fd, nullptr); }

  // Blocks up to timeout_ms (-1 = forever) for readiness.  Fills `ready`;
  // hangups and errors surface as both readable (the read path sees EOF)
  // and writable (the flush path sees the error).  Returns false on a
  // wait error other than EINTR.
  bool wait(std::vector<Ready>& ready, int timeout_ms) {
    ready.clear();
    const int n = ::epoll_wait(ep_, events_.data(),
                               static_cast<int>(events_.size()), timeout_ms);
    if (n < 0) return errno == EINTR;
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events_[static_cast<std::size_t>(i)];
      Ready r;
      r.fd = ev.data.fd;
      r.readable = (ev.events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0;
      r.writable = (ev.events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0;
      ready.push_back(r);
    }
    return true;
  }

 private:
  static std::uint32_t mask(bool want_read, bool want_write) {
    return (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  }
  int ep_ = -1;
  std::vector<epoll_event> events_;
};

}  // namespace

// One accepted socket.  The read side (rbuf) belongs to the home loop;
// the write side is shared between loops (the home loop writes inline
// decisions, other loops write queued-path decisions for shards they
// own) and serialized by write_mu.  Writes never block: a short write
// parks the unsent tail in `backlog` and the home loop resumes it on
// EPOLLOUT, scatter-gathering backlog + fresh frames in one sendmsg so
// frames never interleave mid-frame on the wire.
//
// The home moves at most once, when the first shard-addressed frame
// places the connection (hand_off_connection): the old home stops
// touching the home-loop-only state before it publishes the connection
// through the new home's control list, whose mutex orders the two.
struct Server::Connection {
  Connection(int fd_in, std::size_t home, bool placed_in)
      : fd(fd_in), home_loop(home), rbuf(kReadBufSize), placed(placed_in) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  enum class WriteResult : std::uint8_t {
    kFlushed,  // everything on the wire
    kQueued,   // unsent tail parked in backlog — arm EPOLLOUT
    kDead      // socket error or backlog cap blown — drop the peer
  };

  // Sends backlog + [data, data+n) in order without blocking.  The
  // scatter-gather pair means a connection with a parked backlog never
  // copies fresh frames twice unless the socket is still full.
  WriteResult write_frames(const unsigned char* data, std::size_t n) {
    std::lock_guard<std::mutex> lock(write_mu);
    if (dead.load(std::memory_order_relaxed)) return WriteResult::kDead;
    std::size_t data_off = 0;
    while (backlog_off < backlog.size() || data_off < n) {
      iovec iov[2];
      int iovcnt = 0;
      if (backlog_off < backlog.size()) {
        iov[iovcnt].iov_base = backlog.data() + backlog_off;
        iov[iovcnt].iov_len = backlog.size() - backlog_off;
        ++iovcnt;
      }
      if (data_off < n) {
        iov[iovcnt].iov_base =
            const_cast<unsigned char*>(data) + data_off;  // sendmsg API
        iov[iovcnt].iov_len = n - data_off;
        ++iovcnt;
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
      const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (w <= 0) {
        dead.store(true, std::memory_order_relaxed);
        return WriteResult::kDead;
      }
      std::size_t used = static_cast<std::size_t>(w);
      const std::size_t from_backlog =
          used < backlog.size() - backlog_off ? used
                                              : backlog.size() - backlog_off;
      backlog_off += from_backlog;
      used -= from_backlog;
      data_off += used;
      if (backlog_off == backlog.size()) {
        backlog.clear();
        backlog_off = 0;
      }
    }
    if (backlog.empty() && data_off == n) {
      want_write.store(false, std::memory_order_relaxed);
      return WriteResult::kFlushed;
    }
    // Park the unsent tail (compacting first so backlog_off stays small).
    if (backlog_off > 0) {
      backlog.erase(backlog.begin(),
                    backlog.begin() + static_cast<std::ptrdiff_t>(backlog_off));
      backlog_off = 0;
    }
    backlog.insert(backlog.end(), data + data_off, data + n);
    if (backlog.size() > kMaxResponseBacklog) {
      dead.store(true, std::memory_order_relaxed);
      return WriteResult::kDead;
    }
    want_write.store(true, std::memory_order_relaxed);
    return WriteResult::kQueued;
  }

  // Room for ~450 frames per read: one recv per loop wakeup keeps the
  // syscall count per frame low at the bench's frame rate.
  static constexpr std::size_t kReadBufSize = 16384;

  int fd;
  // Written only by the home loop as it hands the connection off; read by
  // any loop that must arm EPOLLOUT for a backlog it parked.
  std::atomic<std::size_t> home_loop;

  // Home-loop-only state.
  std::vector<unsigned char> rbuf;
  std::size_t rbuf_len = 0;   // bytes of undecoded prefix in rbuf
  bool read_enabled = true;   // cleared at shutdown
  bool write_armed = false;   // mirrors the poller's EPOLLOUT interest
  bool placed;                // serving loop settled (first shard frame)

  std::atomic<bool> dead{false};
  std::atomic<bool> want_write{false};  // backlog nonempty
  std::atomic<bool> arm_pending{false};  // queued in home loop's control list

  std::mutex write_mu;
  std::vector<unsigned char> backlog;  // unsent bytes at [backlog_off, size)
  std::size_t backlog_off = 0;
};

// One tenant shard: a ShardCore (its decision state) owned by one loop,
// plus the cross-loop plumbing.  The bounded queue carries the off-loop
// cases only (frames arriving on other loops' connections, and everything
// while paused).
//
// The core is touched only by the owner loop — except during a resize,
// when the coordinator loop takes it over after the quiesce handshake
// below.  The handshake uses a generation counter, not a bool: the owner
// acks by copying quiesce_gen into quiesce_ack at a safe point (a point
// where it holds no uncommitted WAL records), so a stale ack from an
// earlier resize can never satisfy a later one.
struct Server::Shard {
  struct WorkItem {
    std::shared_ptr<Connection> conn;
    Request req;
    std::uint64_t enq_ns = 0;  // nonzero only for latency-sampled items
    // Span plumbing (nonzero only for traced frames while spans are
    // armed): the queue-hop span start and the decode span it parents to.
    std::uint64_t trace_enq_ns = 0;
    std::uint64_t trace_root = 0;
  };

  Shard(const Platform& platform, const ServerOptions& o, std::size_t i,
        std::size_t owner)
      : queue(o.queue_depth),
        owner_loop(owner),
        core(platform, o, static_cast<std::uint32_t>(i)) {
    HETSCHED_GAUGE_REGISTER(depth_gauge,
                            "hetsched_net_queue_depth_shard" +
                                std::to_string(i),
                            "Requests queued for shard " + std::to_string(i));
  }

  BoundedMpscQueue<WorkItem> queue;
  std::size_t owner_loop;

  // Resize quiesce handshake (see the struct comment).
  std::atomic<bool> moving{false};
  std::atomic<std::uint64_t> quiesce_gen{0};
  std::atomic<std::uint64_t> quiesce_ack{0};

  obs::Gauge depth_gauge;  // registered in metrics-ON builds only
  std::atomic<std::uint32_t> push_tick{0};  // latency sampling (any loop)
  // Latency-SLO burn counters, fed by the sampled-latency sites in every
  // build: a sampled request at or under ServerOptions::slo_ns lands in
  // slo_ok, the rest in slo_breach (net_slo_* in /metrics and GET_STATS).
  std::atomic<std::uint64_t> slo_ok{0};
  std::atomic<std::uint64_t> slo_breach{0};

  // One sampled request latency: the SLO burn counters in every build,
  // the request-latency histogram in metrics-ON builds.
  void record_latency(std::uint64_t lat_ns, std::uint64_t slo_ns) {
    HETSCHED_HIST_RECORD(g_metrics.latency, lat_ns);
    std::atomic<std::uint64_t>& burn = lat_ns <= slo_ns ? slo_ok : slo_breach;
    burn.fetch_add(1, std::memory_order_relaxed);
  }

  ShardCore core;  // last: the queue and flags above sit by its hot head
};

// One event-loop thread: poller, wake pipe, owned shards, accepted
// connections, adaptive batch budget, and preallocated drain scratch.
struct Server::Loop {
  Loop()
      : items(AdaptiveBatch::kMaxFrames),
        outbuf(AdaptiveBatch::kMaxFrames * kFrameSize) {
    runs.reserve(AdaptiveBatch::kMaxFrames);
  }
  ~Loop() {
    for (int fd : {listen_fd, wake_fds[0], wake_fds[1]}) {
      if (fd >= 0) ::close(fd);
    }
  }
  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;

  std::size_t index = 0;
  int listen_fd = -1;           // loop 0 only: the one listen socket
  int wake_fds[2] = {-1, -1};   // cross-loop wakeups and request_stop
  Poller poller;
  std::thread thread;
  std::vector<Shard*> shards;   // shards this loop owns
  std::vector<Shard::WorkItem> items;   // queue drain destination
  std::vector<unsigned char> outbuf;    // response staging, one drain round
  // Per-connection response runs of one queue-drain batch, recorded in
  // pass 1 and sent in pass 2 — after the batch's WAL group commit, so no
  // response escapes before its decision is logged.
  struct Run {
    std::size_t item = 0;  // index of the run's first item (for the conn)
    std::size_t off = 0;   // byte range in outbuf
    std::size_t len = 0;
  };
  std::vector<Run> runs;
  AdaptiveBatch batcher;
  std::unordered_map<int, std::shared_ptr<Connection>> conns;
  std::atomic<bool> wake_pending{false};
  bool reading = true;  // loop-thread-only: cleared when the stop begins

  // Empties the wake pipe; a producer that signals after this re-arms it.
  void drain_wake() {
    char drain[64];
    while (::read(wake_fds[0], drain, sizeof(drain)) > 0) {
    }
    wake_pending.store(false, std::memory_order_release);
  }
  // Acks every owned shard a resize coordinator is waiting on.  Only at a
  // point where this loop holds no uncommitted WAL records.
  void ack_quiesce() {
    for (Shard* sh : shards) {
      if (sh->moving.load(std::memory_order_acquire)) {
        sh->quiesce_ack.store(sh->quiesce_gen.load(std::memory_order_acquire),
                              std::memory_order_release);
      }
    }
  }

  // Cross-loop control plane, serviced on wakeup: write-interest requests
  // for connections this loop homes, connections handed to this loop by
  // their first shard-addressed frame, and freshly split shards awaiting
  // adoption (they stay `moving` — answering kRetryLater — until this
  // loop adds them to `shards`, because only adopted shards join the WAL
  // group commit).
  std::mutex control_mu;
  std::vector<std::shared_ptr<Connection>> pending_arms;
  std::vector<std::shared_ptr<Connection>> pending_conns;
  std::vector<Shard*> pending_shards;

  obs::Gauge conn_gauge;  // registered in metrics-ON builds only
  std::uint32_t sample_tick = 0;  // loop-thread-only (inline sampling)
  // This loop's ServerStats cells; no other thread writes them.
  Counters counters;

  // Traced frames staged in the current response batch.  Group commit and
  // sendmsg are batch-level work, so every traced frame in the batch
  // records the same [t0, t1] window for those stages.  Fixed capacity:
  // overflow drops span records, never frames.  Loop-thread-only, and
  // never written when metrics are compiled out.
  struct StagedTrace {
    std::uint64_t trace_id = 0;
    std::uint64_t parent = 0;  // the frame's decode span
  };
  static constexpr std::size_t kMaxStagedTraces = 16;
  StagedTrace staged_traces[kMaxStagedTraces];
  std::size_t staged_trace_count = 0;

  // Closes a frame's encode span when the frame is traced (`root`, its
  // decode span, is nonzero) and stages it for the batch-level spans.
  void end_encode_span(std::uint64_t trace_id, std::uint64_t root,
                       std::uint64_t t0) {
    const std::uint64_t id = obs::span_close(root != 0, trace_id, root,
                                             obs::SpanStage::kEncode, t0);
    if (id != 0 && staged_trace_count < kMaxStagedTraces) {
      staged_traces[staged_trace_count++] = StagedTrace{trace_id, root};
    }
  }
  // Start stamp of the batch-level spans: taken only while traced frames
  // are staged.
  std::uint64_t batch_clock() const {
    return obs::span_clock_if(staged_trace_count != 0);
  }
  // Emits the shared batch-level spans for every trace staged since the
  // last call: group commit over [gc_t0, gc_t1], sendmsg over
  // [gc_t1, now].
  void record_batch_spans(std::uint64_t gc_t0, std::uint64_t gc_t1) {
    if (!obs::kMetricsCompiled || staged_trace_count == 0) return;
    const std::uint64_t send_t1 = obs::now_ns();
    for (std::size_t i = 0; i < staged_trace_count; ++i) {
      const StagedTrace& st = staged_traces[i];
      obs::span_record(st.trace_id, obs::span_next_id(), st.parent,
                       obs::SpanStage::kGroupCommit, gc_t0, gc_t1);
      obs::span_record(st.trace_id, obs::span_next_id(), st.parent,
                       obs::SpanStage::kSendmsg, gc_t1, send_t1);
    }
    staged_trace_count = 0;
  }
};

Server::Server(const Platform& platform, const ServerOptions& options)
    : platform_(platform), options_(options) {}

Server::~Server() {
  request_stop();
  wait();
}

bool Server::start(std::string* error) {
  HETSCHED_CHECK(error != nullptr);
  if (running_.load(std::memory_order_acquire)) {
    *error = "server already started";
    return false;
  }
  if (platform_.empty()) {
    *error = "platform has no machines";
    return false;
  }
  if (options_.shards < 1 || options_.shards > kMaxShards) {
    *error = "shards must be in [1, " + std::to_string(kMaxShards) + "]";
    return false;
  }
  if (options_.loops > kMaxLoops) {
    *error = "loops must be in [0, " + std::to_string(kMaxLoops) + "]";
    return false;
  }
  if (options_.queue_depth < 1) {
    *error = "queue_depth must be >= 1";
    return false;
  }

  // --shards is a starting value: a recovered --wal-dir that holds more
  // shards (live splits from an earlier run) adopts the larger count.
  std::size_t shard_count = options_.shards;
  if (!options_.wal_dir.empty()) {
    if (!io::ensure_dir(options_.wal_dir)) {
      *error = "wal-dir is not a usable directory: " + options_.wal_dir;
      return false;
    }
    const std::size_t discovered = io::discover_shard_count(options_.wal_dir);
    if (discovered > kMaxShards) {
      *error = "wal-dir holds more shards than kMaxShards";
      return false;
    }
    if (discovered > shard_count) shard_count = discovered;
  }

  std::size_t loop_count = options_.loops;
  if (loop_count == 0) {
    loop_count =
        shard_count < hardware_loops() ? shard_count : hardware_loops();
    if (loop_count > kMaxLoops) loop_count = kMaxLoops;
  }

  loops_.clear();
  loops_.reserve(loop_count);
  for (std::size_t i = 0; i < loop_count; ++i) {
    loops_.push_back(std::make_unique<Loop>());
    Loop& lp = *loops_.back();
    lp.index = i;
    if (::pipe(lp.wake_fds) != 0 || !set_nonblocking(lp.wake_fds[0]) ||
        !set_nonblocking(lp.wake_fds[1])) {
      *error = errno_string("pipe");
      loops_.clear();
      return false;
    }
    if (!lp.poller.init(error)) {
      loops_.clear();
      return false;
    }
    HETSCHED_GAUGE_REGISTER(lp.conn_gauge,
                            "hetsched_net_loop_conns" + std::to_string(i),
                            "Open connections homed on loop " +
                                std::to_string(i));
  }

  shards_.clear();
  // Reserve the cap, not the count: live splits push_back while other
  // loops read existing elements, which is only safe if the vector never
  // reallocates.
  shards_.reserve(kMaxShards);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(platform_, options_, i, i % loop_count));
    loops_[i % loop_count]->shards.push_back(shards_.back().get());
  }
  shard_count_.store(shard_count, std::memory_order_release);
  const auto abandon = [this] {
    loops_.clear();
    shards_.clear();
    shard_count_.store(0, std::memory_order_release);
    return false;
  };

  if (!options_.wal_dir.empty()) {
    // Pre-thread recovery: rebuild every shard core from the wal-dir,
    // verify decision-stream parity and rotate the logs (fresh snapshot +
    // truncated WAL at epoch+1, left open for appending).
    std::vector<ShardCore*> cores;
    for (auto& sh : shards_) cores.push_back(&sh->core);
    const ShardSetRecovery rec = recover_shard_set(cores, /*rotate=*/true);
    if (!rec.ok) {
      *error = "recovery: " + rec.error;
      return abandon();
    }
    epoch_ = rec.next_epoch;
    std::uint64_t replayed = 0;
    for (const ShardRecoveryInfo& info : rec.shards) replayed += info.replayed;
    counters_.recovered.store(replayed, std::memory_order_relaxed);
  }

  // Loop 0 owns the only listen socket; a connection's first shard frame
  // moves it to the loop that owns that shard.
  loops_[0]->listen_fd =
      open_listen_socket(options_.listen_addr, &port_, error);
  if (loops_[0]->listen_fd < 0) return abandon();
  for (auto& lp : loops_) {
    if (!lp->poller.add(lp->wake_fds[0], true, false) ||
        (lp->listen_fd >= 0 && !lp->poller.add(lp->listen_fd, true, false))) {
      *error = "poller registration failed";
      return abandon();
    }
  }

  paused_.store(options_.start_paused, std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  loops_reading_.store(static_cast<int>(loop_count),
                       std::memory_order_release);
  loops_draining_.store(static_cast<int>(loop_count),
                        std::memory_order_release);
  loops_alive_.store(static_cast<int>(loop_count), std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (auto& lp : loops_) {
    Loop* raw = lp.get();
    lp->thread = std::thread([this, raw] { loop_main(*raw); });
  }
  if (!options_.wal_dir.empty() && options_.wal_sync == io::WalSync::kBatch) {
    pacer_thread_ = std::thread([this] { pacer_main(); });
  }
  return true;
}

// kBatch fsync pacing, off the event loops: tick every few ms and fsync
// whatever the loops have written since the last tick.  Served WALs are
// set_paced(), so the loops skip the time-based inline fsync entirely;
// the bytes threshold in commit() stays armed as the backstop if this
// thread stalls.
void Server::pacer_main() {
  constexpr auto kTick = std::chrono::milliseconds(10);
  std::unique_lock<std::mutex> lock(pacer_mu_);
  while (!stopping_.load(std::memory_order_acquire)) {
    pacer_cv_.wait_for(lock, kTick);
    const std::size_t count = shard_count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < count; ++i) {
      shards_[i]->core.pace_sync();
    }
  }
}

void Server::resume_shards() {
  paused_.store(false, std::memory_order_release);
  for (auto& lp : loops_) wake_loop(*lp);
}

void Server::request_stop() {
  stopping_.store(true, std::memory_order_release);
  resume_shards();  // paused shard queues must still drain
  pacer_cv_.notify_all();
}

void Server::wait() {
  std::lock_guard<std::mutex> lock(join_mu_);
  for (auto& lp : loops_) {
    if (lp->thread.joinable()) lp->thread.join();
  }
  // After the pacer: the loops' stop_phase force-syncs every WAL, so the
  // pacer adds nothing here — but it must not outlive shards_.
  if (pacer_thread_.joinable()) pacer_thread_.join();
}

ServerStats Server::stats() const {
  ServerStats s;
  const auto add = [&s](const Counters& c) {
#define HETSCHED_STATS_SUM(name, help) \
  s.name += c.name.load(std::memory_order_relaxed);
    HETSCHED_SERVER_STATS(HETSCHED_STATS_SUM)
#undef HETSCHED_STATS_SUM
  };
  add(counters_);
  for (const auto& lp : loops_) add(lp->counters);
  for (std::size_t i = 0; i < shard_count(); ++i) {
    s.wal_records += shards_[i]->core.wal_records();
    s.snapshots += shards_[i]->core.snapshots();
  }
  return s;
}

namespace {

// Prometheus exposition building blocks for stats_text.
void append_family(std::string* out, const char* name, const char* type,
                   const char* help) {
  out->append("# HELP ").append(name).append(" ").append(help).append("\n");
  out->append("# TYPE ").append(name).append(" ").append(type).append("\n");
}

void append_sample(std::string* out, const char* name, std::uint64_t v) {
  out->append(name).append(" ").append(std::to_string(v)).append("\n");
}

void append_shard_sample(std::string* out, const char* name, std::size_t shard,
                         std::uint64_t v) {
  out->append(name)
      .append("{shard=\"")
      .append(std::to_string(shard))
      .append("\"} ")
      .append(std::to_string(v))
      .append("\n");
}

}  // namespace

// Prometheus-style exposition: the body of both the GET_STATS info frame
// and the HTTP /metrics side port.  ServerStats is the server's one
// per-event counter set, rendered as hetsched_server_* in every build;
// metrics-ON builds append span health and the obs registry.
std::string Server::stats_text() const {
  const ServerStats s = stats();
  std::string out;
  out.reserve(4096);
#define HETSCHED_STATS_ROW(name, help)                                     \
  append_family(&out, "hetsched_server_" #name "_total", "counter", help); \
  append_sample(&out, "hetsched_server_" #name "_total", s.name);
  HETSCHED_SERVER_STATS(HETSCHED_STATS_ROW)
#undef HETSCHED_STATS_ROW
  // Per-shard latency-SLO burn counters.  They move in every build: one
  // request in kLatencySamplePeriod is timed per loop and per shard queue.
  const std::size_t count = shard_count();
  append_family(&out, "hetsched_net_slo_ok_total", "counter",
                "Sampled requests at or under the latency SLO");
  for (std::size_t i = 0; i < count; ++i) {
    append_shard_sample(&out, "hetsched_net_slo_ok_total", i, shard_slo_ok(i));
  }
  append_family(&out, "hetsched_net_slo_breach_total", "counter",
                "Sampled requests over the latency SLO");
  for (std::size_t i = 0; i < count; ++i) {
    append_shard_sample(&out, "hetsched_net_slo_breach_total", i,
                        shard_slo_breach(i));
  }
#if HETSCHED_METRICS_ENABLED
  append_family(&out, "hetsched_span_dropped_total", "counter",
                "Span records overwritten before a drain");
  append_sample(&out, "hetsched_span_dropped_total", obs::span_dropped());
  append_family(&out, "hetsched_span_enabled", "gauge",
                "1 while span tracing is armed");
  append_sample(&out, "hetsched_span_enabled", obs::span_enabled() ? 1 : 0);
  // The obs registry: controller and WAL counters, the hetsched_net_*
  // histograms and gauges.
  out += obs::registry().expose();
#endif
  return out;
}

std::string Server::tracez_text(std::size_t k) const {
#if HETSCHED_METRICS_ENABLED
  // Drain without clearing: tracez is a window, not a consumer — repeated
  // queries see the same recent traces until the rings wrap.
  return render_tracez_jsonl(
      obs::slowest_traces(obs::span_drain(/*clear=*/false), k));
#else
  (void)k;
  return std::string();
#endif
}

std::uint64_t Server::shard_slo_ok(std::size_t shard) const {
  HETSCHED_CHECK(shard < shard_count());
  return shards_[shard]->slo_ok.load(std::memory_order_relaxed);
}

std::uint64_t Server::shard_slo_breach(std::size_t shard) const {
  HETSCHED_CHECK(shard < shard_count());
  return shards_[shard]->slo_breach.load(std::memory_order_relaxed);
}

const ShardCore& Server::shard_core(std::size_t shard) const {
  HETSCHED_CHECK(shard < shard_count());
  return shards_[shard]->core;
}

void Server::wake_loop(Loop& lp) {
  if (!lp.wake_pending.exchange(true, std::memory_order_acq_rel)) {
    const char b = 0;
    [[maybe_unused]] const ssize_t w = ::write(lp.wake_fds[1], &b, 1);
  }
}

// Decision counter bookkeeping, shared by the inline and queued paths.
void Server::count_response(Loop& lp, const Response& resp) {
  switch (resp.status) {
    case Status::kAdmitted:
      bump(lp.counters.admitted);
      break;
    case Status::kRejected:
      bump(lp.counters.rejected);
      break;
    case Status::kDeparted:
      bump(lp.counters.departed);
      break;
    case Status::kStaleId:
      bump(lp.counters.stale);
      break;
    case Status::kRebalanced:
    case Status::kRebalanceSkipped:
      bump(lp.counters.rebalances);
      break;
    case Status::kBadRequest:
    case Status::kBadShard:
      bump(lp.counters.bad);
      break;
    case Status::kRetryLater:
      bump(lp.counters.retried);
      break;
    case Status::kResized:
      bump(lp.counters.resizes);
      break;
    case Status::kResizeFailed:
      bump(lp.counters.resize_failures);
      break;
    case Status::kInfo:
      // Unreachable: info frames are built by handle_introspect, which
      // does its own counting, and never pass through here.
      break;
  }
}

// Answers a kGetStats / kGetTracez frame with a variable-length kInfo
// response, inline on the decoding loop.  Cold path: introspection frames
// are rare control-plane traffic, so allocation is fine here.
void Server::handle_introspect(Loop& lp,
                               const std::shared_ptr<Connection>& conn,
                               const Request& req) {
  InfoResponse info;
  info.type = req.type;
  info.request_id = req.request_id;
  if (req.type == MsgType::kGetStats) {
    info.text = stats_text();
  } else {
    std::uint64_t k = req.tracez_slowest();
    if (k == 0) k = 10;  // a bare GET_TRACEZ means "the usual few"
    if (k > 64) k = 64;  // server-side cap keeps the info frame bounded
    info.text = tracez_text(static_cast<std::size_t>(k));
    std::uint64_t traces = 0;
    for (const char c : info.text) traces += c == '\n' ? 1 : 0;
    info.value = traces;
  }
  bump(lp.counters.introspect);
  std::vector<unsigned char> frame;
  encode_info_response(info, &frame);
  send_to_connection(lp, conn, frame.data(), frame.size());
}

// HETSCHED_OWNER_LOOP (stages response bytes; the nonblocking sendmsg
// path must bail to the EPOLLOUT backlog rather than spin)
void Server::send_to_connection(Loop& lp,
                                const std::shared_ptr<Connection>& conn,
                                const unsigned char* data, std::size_t len) {
  const Connection::WriteResult r = conn->write_frames(data, len);
  if (r == Connection::WriteResult::kFlushed) return;
  if (r == Connection::WriteResult::kQueued) {
    bump(lp.counters.partial_writes);
  }
  request_write_interest(lp, conn);
}

void Server::request_write_interest(Loop& lp,
                                    const std::shared_ptr<Connection>& conn) {
  const std::size_t home_index =
      conn->home_loop.load(std::memory_order_acquire);
  if (home_index == lp.index) {
    if (conn->dead.load(std::memory_order_relaxed)) return;  // read path closes
    if (!conn->write_armed &&
        conn->want_write.load(std::memory_order_relaxed)) {
      lp.poller.set_interest(conn->fd, conn->read_enabled, true);
      conn->write_armed = true;
    }
    return;
  }
  Loop& home = *loops_[home_index];
  if (!conn->arm_pending.exchange(true, std::memory_order_acq_rel)) {
    {
      std::lock_guard<std::mutex> lock(home.control_mu);
      home.pending_arms.push_back(conn);
    }
    wake_loop(home);
  }
}

void Server::handle_writable(Loop& lp,
                             const std::shared_ptr<Connection>& conn) {
  const Connection::WriteResult r = conn->write_frames(nullptr, 0);
  if (r == Connection::WriteResult::kDead) {
    close_connection(lp, conn->fd);
    return;
  }
  if (r == Connection::WriteResult::kFlushed && conn->write_armed) {
    lp.poller.set_interest(conn->fd, conn->read_enabled, false);
    conn->write_armed = false;
  }
}

void Server::adopt_connection(Loop& lp, int fd) {
  if (!set_nonblocking(fd)) {
    ::close(fd);
    return;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options_.sndbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                 sizeof(options_.sndbuf_bytes));
  }
  // A one-loop server has nothing to place.
  auto conn = std::make_shared<Connection>(fd, lp.index, loops_.size() == 1);
  if (!lp.poller.add(fd, true, false)) return;  // dtor closes fd
  lp.conns.emplace(fd, std::move(conn));
  bump(lp.counters.connections);
  HETSCHED_GAUGE_SET(lp.conn_gauge, lp.conns.size());
}

void Server::close_connection(Loop& lp, int fd) {
  const auto it = lp.conns.find(fd);
  if (it == lp.conns.end()) return;
  lp.poller.remove(fd);
  lp.conns.erase(it);  // fd closes when the last WorkItem ref drops
  HETSCHED_GAUGE_SET(lp.conn_gauge, lp.conns.size());
}

// The caller flushed every staged answer, and none of the connection's
// frames was ever queued (only its first shard-addressed frame places
// it), so nothing of it is in flight: the old home deregisters it and
// publishes it, undecoded bytes and parked backlog included, to the
// owner.  Another loop that parks a backlog meanwhile may still ask the
// old home to arm EPOLLOUT; loop_service_control passes such requests on.
void Server::hand_off_connection(Loop& lp,
                                 const std::shared_ptr<Connection>& conn,
                                 std::size_t off, std::size_t owner) {
  std::memmove(conn->rbuf.data(), conn->rbuf.data() + off,
               conn->rbuf_len - off);
  conn->rbuf_len -= off;
  conn->write_armed = false;
  lp.poller.remove(conn->fd);
  lp.conns.erase(conn->fd);
  HETSCHED_GAUGE_SET(lp.conn_gauge, lp.conns.size());
  conn->home_loop.store(owner, std::memory_order_release);
  Loop& dst = *loops_[owner];
  {
    std::lock_guard<std::mutex> lock(dst.control_mu);
    dst.pending_conns.push_back(conn);
  }
  wake_loop(dst);
  bump(lp.counters.connection_handoffs);
}

// Decodes the inherited frames before this loop next polls.  A loop
// already stopping registers the connection write-only and reads nothing
// new, but still decides the frames it inherited.
void Server::adopt_handed_off(Loop& lp,
                              const std::shared_ptr<Connection>& conn) {
  conn->read_enabled = lp.reading;
  conn->write_armed = conn->want_write.load(std::memory_order_relaxed);
  if (!lp.poller.add(conn->fd, conn->read_enabled, conn->write_armed)) return;
  lp.conns.emplace(conn->fd, conn);
  HETSCHED_GAUGE_SET(lp.conn_gauge, lp.conns.size());
  if (!drain_readable(lp, conn, /*inherited=*/true)) {
    close_connection(lp, conn->fd);
  }
}

void Server::loop_accept(Loop& lp) {
  while (true) {
    const int cfd = ::accept(lp.listen_fd, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN: accepted everything pending
    }
    adopt_connection(lp, cfd);
  }
}

void Server::loop_service_control(Loop& lp) {
  std::vector<std::shared_ptr<Connection>> arms;
  std::vector<std::shared_ptr<Connection>> moved;
  std::vector<Shard*> new_shards;
  {
    std::lock_guard<std::mutex> lock(lp.control_mu);
    arms.swap(lp.pending_arms);
    moved.swap(lp.pending_conns);
    new_shards.swap(lp.pending_shards);
  }
  for (Shard* sh : new_shards) {
    lp.shards.push_back(sh);
    sh->moving.store(false, std::memory_order_release);  // open for business
  }
  for (const auto& conn : moved) adopt_handed_off(lp, conn);
  for (const auto& conn : arms) {
    conn->arm_pending.store(false, std::memory_order_release);
    if (conn->home_loop.load(std::memory_order_acquire) != lp.index) {
      // Asked of this loop just before it handed the connection off.
      request_write_interest(lp, conn);
      continue;
    }
    // fd reuse guard: only act if this very connection is still homed here.
    const auto it = lp.conns.find(conn->fd);
    if (it == lp.conns.end() || it->second.get() != conn.get()) continue;
    if (conn->dead.load(std::memory_order_relaxed)) {
      close_connection(lp, conn->fd);
      continue;
    }
    if (!conn->write_armed &&
        conn->want_write.load(std::memory_order_relaxed)) {
      lp.poller.set_interest(conn->fd, conn->read_enabled, true);
      conn->write_armed = true;
    }
  }
}

// Rewrites a depart naming a migrated tenant to the shard it lives on
// now, following chains (split then merge composes two hops).  One
// relaxed flag load on the common no-forwards path.
void Server::follow_forwards(Request& req,
                             std::atomic<std::uint64_t>* forwarded) const {
  if (req.type != MsgType::kDepart) return;
  bool rewritten = false;
  const std::size_t count = shard_count_.load(std::memory_order_acquire);
  ShardCore::Forward to;
  while (req.shard < count && shards_[req.shard]->core.forward(req.a, &to)) {
    req.shard = static_cast<std::uint16_t>(to.peer);
    req.a = to.new_id;
    rewritten = true;
  }
  if (rewritten && forwarded != nullptr) bump(*forwarded);
}

std::size_t Server::placement_loop(const Request& req) const {
  Request target = req;
  follow_forwards(target);
  if (target.shard >= shard_count_.load(std::memory_order_acquire)) {
    return loops_.size();
  }
  return shards_[target.shard]->owner_loop;
}

// HETSCHED_OWNER_LOOP (group commit runs on the owner loop; fsync stays
// on the pacer thread except under the explicit --wal-sync=always opt-in,
// where WalWriter::commit pays it cross-TU)
// Group commit for the WALs this loop owns.  Called after a decision
// batch is processed and before its responses are sent: the write(2) —
// and, under --wal-sync=always, the fsync — happen once per batch, not
// once per frame.  The commit also writes the snapshots cut in the batch.
void Server::commit_owned_wals(Loop& lp) {
  for (Shard* sh : lp.shards) {
    if (sh->moving.load(std::memory_order_acquire)) continue;  // coordinator's
    if (sh->core.dirty()) {
      sh->core.commit();
      bump(lp.counters.wal_commits);
    }
  }
}

// HETSCHED_OWNER_LOOP (the coordinator IS an owner loop while it resizes;
// its helpers may only poll with bounded, documented waits)
// Coordinates a split or merge inline on the loop that decoded the frame.
// One resize at a time globally; contention, shutdown, and quiesce
// timeouts all answer kRetryLater (nothing changed — the client may
// simply resend).
Response Server::handle_resize(Loop& lp, const Request& req) {
  Response resp = reply(req, Status::kRetryLater);
  if (stopping_.load(std::memory_order_acquire)) return resp;
  if (resize_busy_.exchange(true, std::memory_order_acq_rel)) return resp;
  const std::size_t count = shard_count_.load(std::memory_order_acquire);
  Shard* src = req.shard < count ? shards_[req.shard].get() : nullptr;
  Shard* dst = nullptr;
  bool ok = src != nullptr && src->core.active();
  if (req.type == MsgType::kMergeShards) {
    const std::uint16_t target = req.merge_target();
    ok = ok && target < count && target != req.shard;
    if (ok) {
      dst = shards_[target].get();
      ok = dst->core.active();
    }
  }
  if (!ok) {
    resize_busy_.store(false, std::memory_order_release);
    resp.status = Status::kBadShard;
    return resp;
  }
  if (req.type == MsgType::kSplitShard && count >= kMaxShards) {
    resize_busy_.store(false, std::memory_order_release);
    resp.status = Status::kResizeFailed;
    return resp;
  }
  {
    HETSCHED_TIMED(g_metrics.resize_pause);  // quiesce through release
    const bool quiesced = quiesce_shard(lp, *src) &&
                          (dst == nullptr || quiesce_shard(lp, *dst));
    if (quiesced) {
      const bool done = req.type == MsgType::kSplitShard
                            ? do_split(lp, *src, &resp)
                            : do_merge(*src, *dst, &resp);
      resp.status = done ? Status::kResized : Status::kResizeFailed;
    }
    release_shard(*src);
    if (dst != nullptr) release_shard(*dst);
  }
  resize_busy_.store(false, std::memory_order_release);
  return resp;
}

// Takes a shard out of service for a resize: bump the quiesce generation,
// mark it moving, and wait for the owner loop to ack at a safe point — or
// self-ack if this loop owns it (the caller flushed, so this loop holds
// no uncommitted WAL records).  The wait is bounded: shutdown or a stuck
// owner fails the resize instead of wedging the coordinator.
bool Server::quiesce_shard(Loop& lp, Shard& sh) {
  const std::uint64_t gen =
      sh.quiesce_gen.fetch_add(1, std::memory_order_relaxed) + 1;
  sh.moving.store(true, std::memory_order_release);
  if (sh.owner_loop == lp.index) {
    sh.quiesce_ack.store(gen, std::memory_order_release);
    return true;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (sh.quiesce_ack.load(std::memory_order_acquire) < gen) {
    if (stopping_.load(std::memory_order_acquire)) return false;
    if (std::chrono::steady_clock::now() > deadline) return false;
    wake_loop(*loops_[sh.owner_loop]);
    // Bounded 50µs poll under a 5s deadline while the coordinator waits
    // for the owner's quiesce ack; see DESIGN.md invariant #15.
    // hetsched-lint: allow(owner-loop-blocking)
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

void Server::release_shard(Shard& sh) {
  sh.moving.store(false, std::memory_order_release);
  wake_loop(*loops_[sh.owner_loop]);  // queued frames may be waiting
}

// Split: move every second tenant of src's canonical order to a brand-new
// shard.  Crash atomicity: the new shard's kMoveIn is fsynced before src's
// kMoveOut; recovery reconciles a crash between the two from the MoveIn
// (net/shard_core.h).  Any failure before the MoveIn is durable discards
// the new shard, and its WAL, with src untouched: the new shard has no
// other history, so the aborted split is invisible to recovery.
bool Server::do_split(Loop& lp, Shard& src, Response* resp) {
  const std::size_t count = shard_count_.load(std::memory_order_acquire);
  if (count >= kMaxShards) return false;

  auto holder =
      std::make_unique<Shard>(platform_, options_, count, count % loops_.size());
  Shard& ns = *holder;
  std::vector<io::WalMovedTask> moved = src.core.movers(/*split=*/true);
  if (!options_.wal_dir.empty() && !ns.core.open_wal(epoch_)) return false;
  if (!ns.core.move_in(src.core.index(), 0, moved)) {
    ns.core.discard_wal();
    return false;
  }
  HETSCHED_CHECK(src.core.move_out(ns.core.index(), 0, moved));

  // Publish: construction is complete, so the release store makes the
  // shard routable.  It stays `moving` (kRetryLater) until its owner loop
  // adopts it — only adopted shards join the owner's WAL group commit.
  ns.moving.store(true, std::memory_order_release);
  Shard* pub = holder.get();
  shards_.push_back(std::move(holder));
  shard_count_.store(count + 1, std::memory_order_release);
  Loop& owner = *loops_[pub->owner_loop];
  if (owner.index == lp.index) {
    lp.shards.push_back(pub);
    pub->moving.store(false, std::memory_order_release);
  } else {
    {
      std::lock_guard<std::mutex> lock(owner.control_mu);
      owner.pending_shards.push_back(pub);
    }
    wake_loop(owner);
  }

  resp->machine = ns.core.index();
  resp->task_id = moved.size();
  return true;
}

// Merge: move every tenant of src into dst, then take src out of service
// (it stays addressable for forwarding, but admits answer kBadShard).  A
// rejection or a failed MoveIn commit leaves both shards as they were.
// Both the MoveIn and the MoveOut carry kWalFlagDeactivate so recovery
// deactivates src even when only the first record landed.
bool Server::do_merge(Shard& src, Shard& dst, Response* resp) {
  std::vector<io::WalMovedTask> moved = src.core.movers(/*split=*/false);
  if (!dst.core.move_in(src.core.index(), io::kWalFlagDeactivate, moved)) {
    return false;
  }
  HETSCHED_CHECK(
      src.core.move_out(dst.core.index(), io::kWalFlagDeactivate, moved));
  resp->machine = dst.core.index();
  resp->task_id = moved.size();
  return true;
}

// HETSCHED_OWNER_LOOP (the per-tick drain: decode -> decide -> commit ->
// stage; nothing here may park the thread)
void Server::drain_shard_queues(Loop& lp) {
  // Quiesce ack point: the previous drain/flush committed every owned
  // WAL, so acking here hands the coordinator a shard with no buffered
  // state.  Moving shards are skipped below until the coordinator
  // releases them.
  lp.ack_quiesce();
  if (paused_.load(std::memory_order_acquire)) return;
  for (Shard* sh : lp.shards) {
    if (sh->moving.load(std::memory_order_acquire)) continue;
    while (true) {
      const std::size_t n =
          sh->queue.try_pop_batch(lp.items.data(), lp.batcher.limit());
      HETSCHED_GAUGE_SET(sh->depth_gauge, sh->queue.depth());
      if (n == 0) break;
      bump(lp.counters.batches);
      // Pass 1: decide every item, staging responses in outbuf and
      // recording per-connection runs.  Nothing is sent yet — the WAL
      // group commit below must land first.
      lp.runs.clear();
      Connection* run_conn = nullptr;
      std::size_t run_first = 0;
      std::size_t run_off = 0;
      std::size_t out_len = 0;
      for (std::size_t i = 0; i < n; ++i) {
        Shard::WorkItem& item = lp.items[i];
        Request req = item.req;
        follow_forwards(req, &lp.counters.forwarded);
        // Queue-hop span: the frame's cross-loop (or paused-shard) queue
        // residency, parented to its decode span.
        obs::span_close(item.trace_root != 0, req.trace_id, item.trace_root,
                        obs::SpanStage::kQueueHop, item.trace_enq_ns);
        Response resp;
        bool have_resp = true;
        if (req.shard != sh->core.index()) {
          // A forward rewrote the shard: the decision belongs to another
          // controller.  Process directly if this loop owns it and it is
          // not mid-resize; otherwise re-route through its queue.
          Shard& th = *shards_[req.shard];
          if (th.owner_loop == lp.index &&
              !th.moving.load(std::memory_order_acquire)) {
            resp = th.core.apply(req, item.trace_root);
          } else if (th.queue.try_push(Shard::WorkItem{
                         item.conn, req, 0, item.trace_enq_ns,
                         item.trace_root})) {
            bump(lp.counters.enqueued);
            if (th.owner_loop != lp.index) wake_loop(*loops_[th.owner_loop]);
            have_resp = false;  // the target shard's drain answers it
          } else {
            resp = reply(req, Status::kRetryLater);
          }
        } else {
          resp = sh->core.apply(req, item.trace_root);
        }
        if (item.enq_ns != 0) {
          sh->record_latency(obs::now_ns() - item.enq_ns, options_.slo_ns);
        }
        if (!have_resp) continue;
        count_response(lp, resp);
        if (run_conn != nullptr && item.conn.get() != run_conn) {
          lp.runs.push_back(Loop::Run{run_first, run_off, out_len - run_off});
          run_off = out_len;
          run_first = i;
        }
        if (run_conn == nullptr) run_first = i;
        run_conn = item.conn.get();
        const std::uint64_t enc_t0 = obs::span_clock_if(item.trace_root != 0);
        out_len += encode_response(resp, lp.outbuf.data() + out_len);
        lp.end_encode_span(req.trace_id, item.trace_root, enc_t0);
      }
      if (run_conn != nullptr && out_len > run_off) {
        lp.runs.push_back(Loop::Run{run_first, run_off, out_len - run_off});
      }
      // Pass 2: the batch's decisions become durable (per the sync
      // policy), then — and only then — the responses go out.
      const std::uint64_t gc_t0 = lp.batch_clock();
      commit_owned_wals(lp);
      const std::uint64_t gc_t1 = lp.batch_clock();
      for (const Loop::Run& run : lp.runs) {
        send_to_connection(lp, lp.items[run.item].conn,
                           lp.outbuf.data() + run.off, run.len);
      }
      lp.record_batch_spans(gc_t0, gc_t1);
      // Drop connection refs so closed peers release their fds promptly.
      for (std::size_t i = 0; i < n; ++i) lp.items[i].conn.reset();
      lp.batcher.observe(n);
      HETSCHED_HIST_RECORD(g_metrics.batch_frames, n);
    }
  }
}

// HETSCHED_OWNER_LOOP (per-connection read/decode/respond path)
bool Server::drain_readable(Loop& lp, const std::shared_ptr<Connection>& conn,
                            bool inherited) {
  if (conn->dead.load(std::memory_order_relaxed)) return false;
  std::size_t staged = 0;        // response bytes staged for this conn
  std::size_t staged_frames = 0;
  bool alive = true;
  const auto flush_staged = [&] {
    if (staged == 0) return;
    bump(lp.counters.batches);
    lp.batcher.observe(staged_frames);
    HETSCHED_HIST_RECORD(g_metrics.batch_frames, staged_frames);
    const std::uint64_t gc_t0 = lp.batch_clock();
    // WAL before reply: inline decisions staged their records in the
    // owning shards' arenas; the group commit lands them before the
    // responses can reach the wire.
    commit_owned_wals(lp);
    const std::uint64_t gc_t1 = lp.batch_clock();
    send_to_connection(lp, conn, lp.outbuf.data(), staged);
    lp.record_batch_spans(gc_t0, gc_t1);
    staged = 0;
    staged_frames = 0;
  };
  while (alive) {
    std::size_t space = 0;
    ssize_t n = 0;
    if (!inherited) {
      if (!conn->read_enabled) break;  // adopted mid-stop: inherited only
      space = conn->rbuf.size() - conn->rbuf_len;
      n = ::recv(conn->fd, conn->rbuf.data() + conn->rbuf_len, space, 0);
      if (n == 0) {
        alive = false;  // orderly EOF
        break;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        alive = errno == EAGAIN || errno == EWOULDBLOCK;  // drained for now
        break;
      }
      conn->rbuf_len += static_cast<std::size_t>(n);
    }
    std::size_t off = 0;
    while (alive) {
      Request req;
      std::size_t consumed = 0;
      // Decode span start: one clock read per frame while spans are
      // armed — the frame's trace id is unknown until after the decode.
      const std::uint64_t dec_t0 = obs::span_clock();
      const DecodeResult r = decode_request(
          conn->rbuf.data() + off, conn->rbuf_len - off, &req, &consumed);
      if (r == DecodeResult::kNeedMore) break;
      if (r == DecodeResult::kBad) {
        // A desynced byte stream cannot be re-framed; drop the peer.
        bump(lp.counters.bad);
        alive = false;
        break;
      }
      if (!conn->placed && routes_to_shard(req.type)) {
        // The first frame bound for a shard controller places the
        // connection on the loop that owns that shard.  While the server
        // stops it stays put and the frame takes the queue path.
        const std::size_t owner = placement_loop(req);
        conn->placed = owner != loops_.size();
        if (conn->placed && owner != lp.index &&
            !stopping_.load(std::memory_order_acquire)) {
          flush_staged();
          if (conn->dead.load(std::memory_order_relaxed)) {
            alive = false;
            break;
          }
          // The frame stays undecoded at `off`: the owner decodes it.
          hand_off_connection(lp, conn, off, owner);
          return true;
        }
      }
      // `consumed` is never larger than the `rbuf_len - off` bytes the
      // decoder was handed, so the advance is bounded by decode_request's
      // own length checks.  hetsched-lint: allow(parser-bounds)
      off += consumed;
      bump(lp.counters.frames_rx);
      // The decode span roots the frame's trace (0: untraced or disarmed).
      const bool traced = req.trace_id != 0 && dec_t0 != 0;
      const std::uint64_t root_span = obs::span_close(
          traced, req.trace_id, 0, obs::SpanStage::kDecode, dec_t0);
      Response resp;
      bool respond_now = false;
      if (req.type == MsgType::kGetStats || req.type == MsgType::kGetTracez) {
        // Introspection runs inline on the decoding loop, like resizes.
        // The variable-length kInfo frame cannot share the fixed-size
        // response staging, so flush what's staged, then send directly.
        flush_staged();
        handle_introspect(lp, conn, req);
        if (conn->dead.load(std::memory_order_relaxed)) alive = false;
        continue;
      }
      if (req.type == MsgType::kSplitShard ||
          req.type == MsgType::kMergeShards) {
        // Resize frames run inline on the decoding loop (the coordinator)
        // and are never queued.  Flush first: quiescing a shard this loop
        // itself owns self-acks, which is only sound once every staged WAL
        // record is committed.
        flush_staged();
        resp = handle_resize(lp, req);
        respond_now = true;
      } else if (follow_forwards(req, &lp.counters.forwarded);
                 req.shard >= shard_count_.load(std::memory_order_acquire)) {
        resp = reply(req, Status::kBadShard);
        respond_now = true;
      } else {
        Shard& sh = *shards_[req.shard];
        if (sh.moving.load(std::memory_order_acquire)) {
          // Mid-resize: a bounded kRetryLater pause, never a silent drop
          // (and never a double-admit — the controller is untouched).
          resp = reply(req, Status::kRetryLater);
          respond_now = true;
        } else {
          const bool local = sh.owner_loop == lp.index;
          if (local && sh.queue.depth() == 0 &&
              !paused_.load(std::memory_order_acquire)) {
            // The common case: decode -> warm admit -> encode on this core,
            // zero cross-thread hops.  One frame in kLatencySamplePeriod
            // is timed for the SLO counters.
            std::uint64_t t0 = 0;
            if ((++lp.sample_tick & (obs::kLatencySamplePeriod - 1)) == 0) {
              t0 = obs::now_ns();
            }
            resp = sh.core.apply(req, root_span);
            bump(lp.counters.frames_inline);
            if (t0 != 0) sh.record_latency(obs::now_ns() - t0, options_.slo_ns);
            respond_now = true;
          } else {
            Shard::WorkItem item;
            item.conn = conn;
            item.req = req;
            if ((sh.push_tick.fetch_add(1, std::memory_order_relaxed) &
                 (obs::kLatencySamplePeriod - 1)) == 0) {
              item.enq_ns = obs::now_ns();
            }
            if (root_span != 0) {
              item.trace_root = root_span;
              item.trace_enq_ns = obs::now_ns();
            }
            if (!sh.queue.try_push(std::move(item))) {
              resp = reply(req, Status::kRetryLater);
              respond_now = true;
            } else {
              bump(lp.counters.enqueued);
              HETSCHED_GAUGE_SET(sh.depth_gauge, sh.queue.depth());
              if (!local) wake_loop(*loops_[sh.owner_loop]);
            }
          }
        }
      }
      if (respond_now) {
        count_response(lp, resp);
        const std::uint64_t enc_t0 = obs::span_clock_if(root_span != 0);
        staged += encode_response(resp, lp.outbuf.data() + staged);
        ++staged_frames;
        lp.end_encode_span(req.trace_id, root_span, enc_t0);
        if (staged_frames >= lp.batcher.limit() ||
            staged + kFrameSize > lp.outbuf.size()) {
          flush_staged();
        }
        if (conn->dead.load(std::memory_order_relaxed)) alive = false;
      }
    }
    if (off > 0) {
      std::memmove(conn->rbuf.data(), conn->rbuf.data() + off,
                   conn->rbuf_len - off);
      conn->rbuf_len -= off;
    }
    if (!alive) break;
    if (inherited) {
      inherited = false;  // now read whatever followed on the socket
      continue;
    }
    if (static_cast<std::size_t>(n) < space) break;  // socket drained
  }
  flush_staged();
  return alive && !conn->dead.load(std::memory_order_relaxed);
}

// HETSCHED_OWNER_LOOP (the loop itself: the only sanctioned wait is the
// poller — everything else must be ready-triggered work)
void Server::loop_main(Loop& lp) {
  std::vector<Poller::Ready> ready;
  bool poller_ok = true;
  while (poller_ok && !stopping_.load(std::memory_order_acquire)) {
    if (!lp.poller.wait(ready, -1)) {
      poller_ok = false;
      break;
    }
    // Wake handling first so wake_pending is clear before queues drain —
    // a producer pushing after the drain below re-signals the pipe.
    for (const Poller::Ready& r : ready) {
      if (r.fd == lp.wake_fds[0]) lp.drain_wake();
    }
    loop_service_control(lp);
    // Queued work precedes fresh reads: a frame routed to a queue must be
    // answered before later frames of its connection+shard go inline.
    drain_shard_queues(lp);
    for (const Poller::Ready& r : ready) {
      if (r.fd == lp.wake_fds[0]) continue;
      if (r.fd == lp.listen_fd) {
        loop_accept(lp);
        continue;
      }
      const auto it = lp.conns.find(r.fd);
      if (it == lp.conns.end()) continue;
      const std::shared_ptr<Connection> conn = it->second;
      if (r.writable) {
        handle_writable(lp, conn);
        if (lp.conns.find(r.fd) == lp.conns.end()) continue;  // closed
      }
      if (r.readable && conn->read_enabled) {
        if (!drain_readable(lp, conn)) close_connection(lp, r.fd);
      }
    }
    // Answer work our own reads just queued before sleeping (local pushes
    // do not signal the wake pipe).
    drain_shard_queues(lp);
  }
  stop_phase(lp);
  if (loops_alive_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    running_.store(false, std::memory_order_release);
  }
}

// Graceful shutdown, in lockstep with the sibling loops:
//   1. stop accepting and reading (our half of "no new work"; handed-off
//      connections adopted from here on decode only what they inherited),
//   2. once EVERY loop stopped reading, close + drain our shard queues —
//      no producer can race the close, so the drain answers everything,
//   3. once every loop drained, flush response backlogs (bounded by
//      kShutdownFlushTimeout) and close the sockets.
void Server::stop_phase(Loop& lp) {
  if (lp.listen_fd >= 0) {
    lp.poller.remove(lp.listen_fd);
    ::close(lp.listen_fd);
    lp.listen_fd = -1;
  }
  lp.reading = false;
  for (auto& [fd, conn] : lp.conns) {
    conn->read_enabled = false;
    lp.poller.set_interest(fd, false, conn->write_armed);
  }
  loops_reading_.fetch_sub(1, std::memory_order_acq_rel);

  std::vector<Poller::Ready> ready;
  const auto service_io = [&](int timeout_ms) {
    if (!lp.poller.wait(ready, timeout_ms)) return;
    for (const Poller::Ready& r : ready) {
      if (r.fd == lp.wake_fds[0]) {
        lp.drain_wake();
        continue;
      }
      const auto it = lp.conns.find(r.fd);
      if (it == lp.conns.end()) continue;
      if (r.writable) handle_writable(lp, it->second);
    }
    loop_service_control(lp);
  };

  while (loops_reading_.load(std::memory_order_acquire) > 0) {
    // A resize coordinator still inside its read phase may be waiting on
    // our quiesce ack; keep acking (safe here — everything this loop
    // staged is committed) so it can finish and reach its own stop phase.
    lp.ack_quiesce();
    service_io(2);
  }
  // All loops are past their read phase: no resize is in flight (resizes
  // run inside drain_readable) and none will start, so every shard is
  // released and the final drain below covers them all.  No handoff will
  // start either, and any made before a sibling stopped reading is in
  // our control list by now: adopt it before the queues close, so the
  // frames it inherited are decided (or queued and drained below).
  loop_service_control(lp);
  for (Shard* sh : lp.shards) sh->queue.close();
  drain_shard_queues(lp);
  // Final durability point of a graceful stop: force-fsync whatever the
  // batch policy left unsynced.
  for (Shard* sh : lp.shards) sh->core.commit(/*force_sync=*/true);
  loops_draining_.fetch_sub(1, std::memory_order_acq_rel);
  while (loops_draining_.load(std::memory_order_acquire) > 0) service_io(2);

  // Flush whatever responses are still parked, then close.  The deadline
  // bounds a peer that stopped reading; everyone else drains in a few
  // rounds.
  const auto deadline =
      std::chrono::steady_clock::now() + kShutdownFlushTimeout;
  while (std::chrono::steady_clock::now() < deadline) {
    bool parked = false;
    for (auto& [fd, conn] : lp.conns) {
      if (conn->dead.load(std::memory_order_relaxed)) continue;
      if (conn->want_write.load(std::memory_order_relaxed)) {
        parked = true;
        if (!conn->write_armed) {
          lp.poller.set_interest(fd, false, true);
          conn->write_armed = true;
        }
      }
    }
    if (!parked) break;
    service_io(5);
  }
  lp.conns.clear();
}

}  // namespace hetsched::net
