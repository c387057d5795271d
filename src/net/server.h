// Sharded TCP admission service over the online partitioner —
// thread-per-core network plane.
//
// Architecture (one process, N event-loop threads, no shard threads):
//
//   clients ──► loop 0 ─ epoll ─ owns shards 0, N, 2N, ... ──► sockets
//               loop 1 ─ epoll ─ owns shards 1, N+1, ...   ──► sockets
//               ...          (loop 0 also accepts every connection)
//
//   * Loop 0 owns the only listen socket and adopts every accepted fd.
//   * Tenant shards are statically owned by loops (shard s belongs to
//     loop s % loops).  Loop 0 is only a first home: a connection's first
//     shard-addressed frame places it.  If another loop owns that shard,
//     loop 0 hands the connection over once, at a point where nothing of
//     it is in flight (its staged answers are flushed and none of its
//     frames was ever queued); the owner adopts the fd, the undecoded
//     bytes and any parked response backlog, and decodes them before it
//     next polls.
//     From then on a frame naming the connection's shard runs connection
//     → decode → warm admit → WAL append → encode → sendmsg entirely on
//     that loop, with zero cross-thread queue hops.  The bounded MPSC
//     queue (net/bounded_queue.h) remains only for the off-loop cases:
//     frames that name a shard another loop owns, and shards paused by
//     ServerOptions::start_paused.  A full queue still answers
//     kRetryLater immediately — explicit backpressure, never unbounded
//     buffering.
//   * Batch sizes adapt to load (net/adaptive_batch.h): each loop drains
//     up to 64 frames per round but shrinks its budget toward one frame
//     when rounds come up near-empty (cutting p50) and grows it back
//     under sustained depth (cutting syscalls per frame).
//   * Responses for a drain round coalesce into one writev/sendmsg per
//     connection.  Writes never block an event loop: a short write parks
//     the unsent tail in the connection's backlog buffer and resumes via
//     EPOLLOUT (scatter-gathering backlog + fresh frames in one call)
//     when the socket drains.  A peer whose backlog exceeds 1 MiB is
//     declared dead — a slow reader costs bounded memory and never wedges
//     a loop.
//
// The decision stream per shard is still processed single-threaded (by
// the owning loop) in arrival order, so served decisions remain
// bit-identical to `hetsched_cli replay` of the same trace
// (tests/net_test.cpp and bench_net_loadgen prove it with FNV-1a
// checksums in both single- and multi-loop modes).
//
// Ordering: per connection and shard, responses preserve request order
// (inline frames and queued frames cannot reorder: a frame is queued
// whenever its shard has queued work pending).  Requests to different
// shards are answered in whatever order their owning loops reach them —
// clients match on request_id.
//
// Durability (ServerOptions::wal_dir): a shard's decision state is a
// socket-less ShardCore (net/shard_core.h), which appends every decision
// it makes — admits including rejects, departs including stale ones,
// rebalances, and resize migrations — to a per-shard binary WAL (io/wal.h)
// *before* the response reaches the socket; the owner loop group-commits
// once per drain batch, so the warm path stays allocation-free and pays
// one write(2) per batch.  Snapshots (io/snapshot_format.h), cut wherever
// the decision sequence passes a multiple of snapshot_every, bound
// replay; start() recovers from the newest valid snapshot plus the WAL
// tail through the core's own entry points and verifies bit-exact parity
// via the per-record decision checksum.  With wal_dir empty the serve
// path is bit-identical to the pre-durability behavior.
//
// Elastic resize (protocol minor 1): kSplitShard moves roughly half a
// shard's tenants to a new shard; kMergeShards folds one shard into
// another and takes the source out of service.  The coordinator is the
// loop that decodes the frame: it quiesces the involved shards (their
// owner loops ack at safe points and the shards answer kRetryLater
// meanwhile — a bounded pause, never a silent drop), admits the movers
// into the target first (any rejection rolls back with the source
// untouched), then logs MoveIn (target, fsync) before MoveOut (source,
// fsync) so a crash between the two is reconciled on recovery.  Departs
// naming a moved tenant are rewritten through per-shard forwarding tables
// and re-routed; merged-away shards stay addressable for forwarding but
// answer admits kBadShard.
//
// Shutdown (request_stop or SIGTERM via the CLI): every loop stops
// accepting and reading, then — once all loops have stopped producing —
// drains its shards' queues, answers everything queued, flushes response
// backlogs (bounded by a 5 s deadline), and exits.  A clean stop
// answers everything it has accepted responsibility for: a connection
// handed off as the stop begins is adopted before its new loop's queues
// close, so the frame that placed it is still decided and answered.
//
// Observability: ServerStats is the server's one per-event counter set —
// per-loop single-writer atomics summed on read, exposed as
// hetsched_server_* in every build — and the per-shard SLO burn counters
// (net_slo_*) move in every build too.
// Compiled with -DHETSCHED_METRICS=ON, the server adds per-shard
// queue-depth and per-loop open-connection gauges, batch-size, resize-
// pause and sampled request-latency histograms, request spans and the
// per-shard flight recorder; README "Observability" lists the catalog.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/platform.h"
#include "io/wal.h"
#include "net/adaptive_batch.h"
#include "net/bounded_queue.h"
#include "net/protocol.h"
#include "online/online_partitioner.h"
#include "partition/admission.h"
#include "partition/engine.h"

namespace hetsched::net {

class ShardCore;

// Per-shard queue-depth gauges are registered up front, so the shard count
// is capped well below the obs registry's gauge capacity.
inline constexpr std::size_t kMaxShards = 32;
// Event-loop threads.  More loops than cores never helps, and the cap
// keeps the per-loop connection gauges within registry capacity.
inline constexpr std::size_t kMaxLoops = 8;

struct ServerOptions {
  std::string listen_addr = "127.0.0.1:0";  // "host:port"; port 0 = ephemeral
  // STARTING shard count: live splits grow it (up to kMaxShards) and a
  // recovered --wal-dir that holds more shards than this adopts the larger
  // count, so shards created by splits survive restarts.
  std::size_t shards = 1;
  // Event-loop threads.  0 = auto: min(shards, CPUs in the calling
  // thread's affinity mask, kMaxLoops).  Shard s is owned by loop
  // s % loops.
  std::size_t loops = 0;
  AdmissionKind kind = AdmissionKind::kEdf;
  double alpha = 1.0;
  PartitionEngine engine = PartitionEngine::kAuto;
  // Tiered admission-test subsystem (src/admit).  An empty test keeps
  // `kind`, the implicit-deadline utilization bound, and answers
  // deadline-bearing frames kBadRequest; a tiered test accepts
  // constrained-deadline admits (protocol minor 3) and persists the
  // deciding tier in the WAL.
  admit::AdmitConfig admit;
  std::size_t queue_depth = 1024;  // bounded per-shard request queue
  // Test hook: SO_SNDBUF for accepted sockets (0 = kernel default).  Tiny
  // values force short writes, exercising the backlog/EPOLLOUT path.
  int sndbuf_bytes = 0;
  // Test hook: shard processing starts suspended until resume_shards() —
  // every frame is queued (or bounced kRetryLater when the queue fills),
  // letting tests observe backpressure deterministically.
  bool start_paused = false;
  // Durability plane.  Empty wal_dir = off: the serve path is bit-identical
  // to a build without the WAL layer.  Non-empty: every controller decision
  // is appended to <wal_dir>/shard-NNN.wal before its response is sent
  // (group-committed per drain batch), periodic snapshots bound replay, and
  // start() recovers from whatever the directory holds.
  std::string wal_dir;
  io::WalSync wal_sync = io::WalSync::kBatch;
  // Snapshot a shard at each decision that makes its decision_seq reach
  // or pass a multiple of this (0 = never mid-run; recovery then replays
  // the whole WAL).
  std::size_t snapshot_every = 65536;
  // Per-request latency SLO: one request in kLatencySamplePeriod (per
  // loop, and per shard queue) is timed in every build; a sampled latency
  // at or under this lands in the shard's slo_ok burn counter, the rest
  // in slo_breach (net_slo_* in /metrics and GET_STATS).
  std::uint64_t slo_ns = 1'000'000;
};

// The server's one per-event counter set, independent of the obs layer so
// it exists in every build.  Each event loop counts into its own
// cache-line-aligned cells, which only that loop writes, and stats() sums
// the cells on read: eventually consistent while threads run; exact after
// wait().  X(name, help) lists each counter once; the exposition names it
// hetsched_server_<name>_total.
#define HETSCHED_SERVER_STATS(X)                                             \
  X(connections, "TCP connections accepted")                                 \
  X(frames_rx, "Request frames decoded")                                     \
  X(enqueued, "Frames routed through a shard queue")                         \
  X(frames_inline, "Frames decided with zero queue hops")                    \
  X(admitted, "Admits answered admitted")                                    \
  X(rejected, "Admits answered rejected")                                    \
  X(retried, "Requests answered retry-later")                                \
  X(departed, "Departs answered departed")                                   \
  X(stale, "Departs naming a stale id")                                      \
  X(rebalances, "Rebalance requests processed")                              \
  X(bad, "Malformed frames, bad shards, and invalid parameters")             \
  X(batches, "Drain rounds that handled at least one frame")                 \
  X(partial_writes, "Short response writes parked in a backlog")             \
  X(resizes, "Shard splits and merges applied")                              \
  X(resize_failures, "Split/merge requests answered resize-failed")          \
  X(forwarded, "Departs re-routed via a forwarding entry")                   \
  X(wal_records, "Decisions appended to a WAL")                              \
  X(wal_commits, "Group commits that wrote at least one record")             \
  X(snapshots, "Mid-run snapshot files written")                             \
  X(recovered, "WAL records replayed at startup")                            \
  X(introspect, "GET_STATS / GET_TRACEZ frames answered")                    \
  X(connection_handoffs,                                                     \
    "Connections moved to the loop that owns their first frame's shard")

struct ServerStats {
#define HETSCHED_STATS_FIELD(name, help) std::uint64_t name = 0;
  HETSCHED_SERVER_STATS(HETSCHED_STATS_FIELD)
#undef HETSCHED_STATS_FIELD
};

class Server {
 public:
  // The platform is copied into every shard's controller.
  Server(const Platform& platform, const ServerOptions& options);
  ~Server();  // request_stop() + wait()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and spawns the event-loop threads.  False on socket
  // errors (*error describes the failure; server is not running).
  bool start(std::string* error);

  // Bound TCP port (after start) — useful with an ephemeral listen port.
  std::uint16_t port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  // Resolved loop count (after start).
  std::size_t loop_count() const { return loops_.size(); }

  // Releases shards started with ServerOptions::start_paused.
  void resume_shards();

  // Begins a graceful shutdown: stop accepting and reading, drain every
  // queued request, flush responses, join threads.  Thread-safe,
  // idempotent, returns immediately; wait() blocks until done.
  void request_stop();
  void wait();

  ServerStats stats() const;

  // Prometheus-style text exposition: ServerStats rendered as
  // hetsched_server_* counters, per-shard net_slo_* burn counters, and
  // (in metrics-ON builds) span health and the full obs registry.  This
  // is the body of both the GET_STATS info frame and the HTTP /metrics
  // side port.
  std::string stats_text() const;

  // The `k` slowest reassembled traces as JSONL (the GET_TRACEZ body).
  // Empty when spans are compiled out or disabled.
  std::string tracez_text(std::size_t k) const;

  // Per-shard SLO burn counters (every build).
  std::uint64_t shard_slo_ok(std::size_t shard) const;
  std::uint64_t shard_slo_breach(std::size_t shard) const;

  const ServerOptions& options() const { return options_; }

  // Live shard count (grows under kSplitShard; merged-away shards keep
  // their index but answer admits kBadShard).  Safe from any thread.
  std::size_t shard_count() const {
    return shard_count_.load(std::memory_order_acquire);
  }

  // A shard's decision state, for tests (read its controller only while
  // that shard is quiescent: paused, stopped, or provably idle).
  const ShardCore& shard_core(std::size_t shard) const;

 private:
  struct Connection;
  struct Shard;
  struct Loop;

  void loop_main(Loop& lp);
  void loop_accept(Loop& lp);
  void adopt_connection(Loop& lp, int fd);
  // Connection placement: the first shard-addressed frame of `conn`,
  // still undecoded at rbuf[off], names a shard loop `owner` owns.  Moves
  // the connection there (nothing of it may be in flight).
  void hand_off_connection(Loop& lp, const std::shared_ptr<Connection>& conn,
                           std::size_t off, std::size_t owner);
  // The owner's side: registers a handed-off connection and decodes the
  // bytes it inherited.
  void adopt_handed_off(Loop& lp, const std::shared_ptr<Connection>& conn);
  // The loop owning the shard `req` is bound for (forwards followed), or
  // loop_count() when it names no shard and so cannot place a connection.
  std::size_t placement_loop(const Request& req) const;
  void loop_service_control(Loop& lp);
  void pacer_main();
  void drain_shard_queues(Loop& lp);
  // Decodes and routes every complete frame in `conn`'s read buffer.
  // Returns false when the connection must be closed (EOF, error, or a
  // malformed frame — a desynced byte stream cannot be re-synced).
  // `inherited`: rbuf holds whole frames from the loop that handed the
  // connection off (possibly a full buffer), decoded before any recv.
  bool drain_readable(Loop& lp, const std::shared_ptr<Connection>& conn,
                      bool inherited = false);
  void close_connection(Loop& lp, int fd);
  // Appends `len` staged bytes to `conn`, arming EPOLLOUT on its home
  // loop if a short write parks a backlog.  `lp` is the calling loop.
  void send_to_connection(Loop& lp, const std::shared_ptr<Connection>& conn,
                          const unsigned char* data, std::size_t len);
  void handle_writable(Loop& lp, const std::shared_ptr<Connection>& conn);
  void request_write_interest(Loop& lp,
                              const std::shared_ptr<Connection>& conn);
  void wake_loop(Loop& lp);
  void count_response(Loop& lp, const Response& resp);
  // Builds and sends the kInfo answer to a kGetStats/kGetTracez frame.
  // Runs inline on the decoding loop (like handle_resize): introspection
  // frames are rare and never enter a shard queue.
  void handle_introspect(Loop& lp, const std::shared_ptr<Connection>& conn,
                         const Request& req);
  void stop_phase(Loop& lp);

  void commit_owned_wals(Loop& lp);

  // Forwarding: rewrites a depart naming a migrated tenant to the target
  // shard's id, following chains.  A rewrite is counted into `forwarded`,
  // once per request; placement peeks at a frame's target uncounted.
  void follow_forwards(Request& req,
                       std::atomic<std::uint64_t>* forwarded = nullptr) const;

  // Elastic resize (kSplitShard / kMergeShards), run inline on the loop
  // that decoded the frame — resize frames are never queued.
  Response handle_resize(Loop& lp, const Request& req);
  bool quiesce_shard(Loop& lp, Shard& sh);
  void release_shard(Shard& sh);
  // Fill resp's machine and task_id and return true on success.
  bool do_split(Loop& lp, Shard& src, Response* resp);
  bool do_merge(Shard& src, Shard& dst, Response* resp);

  Platform platform_;
  ServerOptions options_;

  std::uint16_t port_ = 0;

  // shards_ is reserved to kMaxShards at start and only ever grows (by
  // push_back from a resize coordinator), so element addresses are stable
  // and readers never see a reallocation.  Loop threads must size-check
  // against shard_count_ (acquire), never shards_.size(): the release
  // store below publishes the fully constructed shard.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> shard_count_{0};
  std::vector<std::unique_ptr<Loop>> loops_;
  std::mutex join_mu_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> paused_{false};
  std::atomic<bool> resize_busy_{false};  // one resize at a time, globally
  std::uint32_t epoch_ = 1;  // recovery generation stamped into WAL records

  // --wal-sync=batch fsync pacer: a background thread ticks every few ms
  // and pace_sync()s every published shard's WAL, so the kBatch interval
  // guarantee is honored without the event loops ever blocking in
  // fsync(2).  Joined in wait() after the loops exit.
  std::thread pacer_thread_;
  std::mutex pacer_mu_;
  std::condition_variable pacer_cv_;

  // Shutdown barrier: loops that may still produce into shard queues /
  // connection backlogs.  Queues close only once reading stops globally;
  // backlogs flush only once every queue has drained.
  std::atomic<int> loops_reading_{0};
  std::atomic<int> loops_draining_{0};
  std::atomic<int> loops_alive_{0};

  // ServerStats source: one cache-line-aligned block per Loop, written
  // only by that loop's thread with a relaxed load and store (no
  // lock-prefixed read-modify-write on the frame path), plus this shared
  // block for writers that are not loop threads (start-up recovery's
  // `recovered`).  stats() sums the blocks and adds wal_records and
  // snapshots from the shard cores that count them (those two cells stay
  // zero here).
  struct alignas(64) Counters {
#define HETSCHED_STATS_CELL(name, help) std::atomic<std::uint64_t> name{0};
    HETSCHED_SERVER_STATS(HETSCHED_STATS_CELL)
#undef HETSCHED_STATS_CELL
  };
  Counters counters_;
};

}  // namespace hetsched::net
