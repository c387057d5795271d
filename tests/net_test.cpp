// Tests for src/net/: wire protocol round-trips and rejection, address
// parsing, the bounded MPSC queue, and loopback integration against a
// live server — including the PR's correctness anchor, bit-identical
// served vs offline decision checksums over a generated churn trace.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/churn_gen.h"
#include "gen/platform_gen.h"
#include "net/addr.h"
#include "net/adaptive_batch.h"
#include "net/bounded_queue.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/trace_replay.h"
#include "util/rng.h"

namespace hetsched::net {
namespace {

// ---------------------------------------------------------------------
// protocol
// ---------------------------------------------------------------------

TEST(NetProtocol, RequestRoundTripsAllTypes) {
  const Request cases[] = {
      Request::admit(3, 77, 5, 20),
      Request::depart(0, 78, 0xDEADBEEFCAFEULL),
      Request::rebalance(15, 79),
  };
  for (const Request& r : cases) {
    unsigned char buf[kFrameSize];
    ASSERT_EQ(encode_request(r, buf), kFrameSize);
    Request out;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_request(buf, kFrameSize, &out, &consumed),
              DecodeResult::kOk);
    EXPECT_EQ(consumed, kFrameSize);
    EXPECT_EQ(out.type, r.type);
    EXPECT_EQ(out.shard, r.shard);
    EXPECT_EQ(out.request_id, r.request_id);
    EXPECT_EQ(out.a, r.a);
    EXPECT_EQ(out.b, r.b);
  }
}

TEST(NetProtocol, ResponseRoundTripsUtilizationBits) {
  Response r;
  r.type = MsgType::kAdmit;
  r.status = Status::kAdmitted;
  r.machine = 3;
  r.request_id = 123456789;
  r.task_id = (std::uint64_t{7} << 32) | 42;
  r.value = std::bit_cast<std::uint64_t>(0.3123456789);
  unsigned char buf[kFrameSize];
  ASSERT_EQ(encode_response(r, buf), kFrameSize);
  Response out;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_response(buf, kFrameSize, &out, &consumed),
            DecodeResult::kOk);
  EXPECT_EQ(out.status, Status::kAdmitted);
  EXPECT_EQ(out.machine, 3u);
  EXPECT_EQ(out.task_id, r.task_id);
  EXPECT_EQ(out.utilization(), 0.3123456789);  // exact: bit pattern
}

TEST(NetProtocol, RandomizedRequestRoundTrip) {
  Rng rng(0xBEEF);
  for (int i = 0; i < 500; ++i) {
    Request r;
    r.type = static_cast<MsgType>(1 + rng.next_u64() % 3);
    r.shard = static_cast<std::uint16_t>(rng.next_u64());
    r.request_id = rng.next_u64();
    r.a = rng.next_u64();
    r.b = rng.next_u64();
    unsigned char buf[kFrameSize];
    encode_request(r, buf);
    Request out;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_request(buf, kFrameSize, &out, &consumed),
              DecodeResult::kOk);
    EXPECT_EQ(out.shard, r.shard);
    EXPECT_EQ(out.request_id, r.request_id);
    EXPECT_EQ(out.a, r.a);
    EXPECT_EQ(out.b, r.b);
  }
}

TEST(NetProtocol, ShortBuffersNeedMore) {
  unsigned char buf[kFrameSize];
  encode_request(Request::admit(0, 1, 2, 10), buf);
  Request out;
  std::size_t consumed = 0;
  for (std::size_t len = 0; len < kFrameSize; ++len) {
    EXPECT_EQ(decode_request(buf, len, &out, &consumed),
              DecodeResult::kNeedMore)
        << "len " << len;
  }
}

TEST(NetProtocol, MalformedFramesRejected) {
  unsigned char good[kFrameSize];
  encode_request(Request::admit(0, 1, 2, 10), good);
  Request out;
  std::size_t consumed = 0;

  unsigned char bad_len[kFrameSize];
  std::memcpy(bad_len, good, kFrameSize);
  bad_len[0] = 33;  // payload length != kPayloadSize
  EXPECT_EQ(decode_request(bad_len, kFrameSize, &out, &consumed),
            DecodeResult::kBad);

  unsigned char bad_version[kFrameSize];
  std::memcpy(bad_version, good, kFrameSize);
  bad_version[kHeaderSize] = kProtocolVersion + 1;
  EXPECT_EQ(decode_request(bad_version, kFrameSize, &out, &consumed),
            DecodeResult::kBad);

  unsigned char bad_type[kFrameSize];
  std::memcpy(bad_type, good, kFrameSize);
  bad_type[kHeaderSize + 1] = 99;
  EXPECT_EQ(decode_request(bad_type, kFrameSize, &out, &consumed),
            DecodeResult::kBad);

  unsigned char bad_reserved[kFrameSize];
  std::memcpy(bad_reserved, good, kFrameSize);
  bad_reserved[kHeaderSize + 5] = 1;
  EXPECT_EQ(decode_request(bad_reserved, kFrameSize, &out, &consumed),
            DecodeResult::kBad);

  // A request frame is not a response (missing kResponseBit)...
  Response rout;
  EXPECT_EQ(decode_response(good, kFrameSize, &rout, &consumed),
            DecodeResult::kBad);
  // ...and a response frame is not a request (type has kResponseBit).
  Response resp;
  resp.type = MsgType::kAdmit;
  resp.status = Status::kAdmitted;
  unsigned char rbuf[kFrameSize];
  encode_response(resp, rbuf);
  EXPECT_EQ(decode_request(rbuf, kFrameSize, &out, &consumed),
            DecodeResult::kBad);

  unsigned char bad_status[kFrameSize];
  std::memcpy(bad_status, rbuf, kFrameSize);
  bad_status[kHeaderSize + 2] = 200;
  EXPECT_EQ(decode_response(bad_status, kFrameSize, &rout, &consumed),
            DecodeResult::kBad);
}

// ---------------------------------------------------------------------
// addr
// ---------------------------------------------------------------------

TEST(NetAddr, ParsesHostPort) {
  HostPort hp;
  std::string err;
  ASSERT_TRUE(parse_host_port("127.0.0.1:8080", &hp, &err)) << err;
  EXPECT_EQ(hp.host, "127.0.0.1");
  EXPECT_EQ(hp.port, 8080);
  ASSERT_TRUE(parse_host_port(":0", &hp, &err)) << err;
  EXPECT_EQ(hp.host, "0.0.0.0");
  EXPECT_EQ(hp.port, 0);
}

TEST(NetAddr, RejectsMalformedAddresses) {
  HostPort hp;
  std::string err;
  EXPECT_FALSE(parse_host_port("127.0.0.1", &hp, &err));    // no port
  EXPECT_FALSE(parse_host_port("host.name:80", &hp, &err)); // no DNS
  EXPECT_FALSE(parse_host_port("127.0.0.1:65536", &hp, &err));
  EXPECT_FALSE(parse_host_port("127.0.0.1:x", &hp, &err));
  EXPECT_FALSE(parse_host_port("127.0.0.1:", &hp, &err));
  EXPECT_FALSE(parse_host_port("127.0.0.1:-1", &hp, &err));
}

// ---------------------------------------------------------------------
// bounded queue
// ---------------------------------------------------------------------

TEST(BoundedQueue, PushPopFifoAndBackpressure) {
  BoundedMpscQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(int{i}));
  EXPECT_EQ(q.depth(), 4u);
  EXPECT_FALSE(q.try_push(99));  // full: explicit backpressure
  int out[8];
  EXPECT_EQ(q.pop_batch(out, 3), 3u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[2], 2);
  EXPECT_EQ(q.depth(), 1u);
  EXPECT_TRUE(q.try_push(4));
  EXPECT_EQ(q.pop_batch(out, 8), 2u);
  EXPECT_EQ(out[0], 3);
  EXPECT_EQ(out[1], 4);
}

TEST(BoundedQueue, CloseDrainsThenSignalsExit) {
  BoundedMpscQueue<int> q(8);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  q.close();
  EXPECT_FALSE(q.try_push(3));  // closed to producers immediately
  int out[8];
  EXPECT_EQ(q.pop_batch(out, 8), 2u);  // remainder still drains
  EXPECT_EQ(q.pop_batch(out, 8), 0u);  // then the exit signal
}

TEST(BoundedQueue, ManyProducersOneConsumer) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  BoundedMpscQueue<int> q(64);
  std::atomic<long long> pushed_sum{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &pushed_sum, p] {
      long long local = 0;
      for (int i = 0; i < kPerProducer; ++i) {
        const int v = p * kPerProducer + i;
        while (!q.try_push(int{v})) std::this_thread::yield();
        local += v;
      }
      pushed_sum.fetch_add(local);
    });
  }
  long long popped_sum = 0;
  std::size_t popped = 0;
  int out[32];
  while (popped < kProducers * kPerProducer) {
    const std::size_t n = q.pop_batch(out, 32);
    for (std::size_t i = 0; i < n; ++i) popped_sum += out[i];
    popped += n;
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(popped_sum, pushed_sum.load());
}

TEST(BoundedQueue, TryPopBatchDoesNotBlock) {
  BoundedMpscQueue<int> q(8);
  int out[4];
  EXPECT_EQ(q.try_pop_batch(out, 4), 0u);  // empty: returns immediately
  EXPECT_TRUE(q.try_push(7));
  EXPECT_TRUE(q.try_push(8));
  EXPECT_TRUE(q.try_push(9));
  EXPECT_EQ(q.try_pop_batch(out, 2), 2u);
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(out[1], 8);
  EXPECT_EQ(q.try_pop_batch(out, 4), 1u);
  EXPECT_EQ(out[0], 9);
  q.close();
  EXPECT_EQ(q.try_pop_batch(out, 4), 0u);
}

// ---------------------------------------------------------------------
// adaptive batch sizing
// ---------------------------------------------------------------------

TEST(AdaptiveBatch, GrowsWhenRoundsUseTheFullBudget) {
  AdaptiveBatch b;
  EXPECT_EQ(b.limit(), 1u);  // starts at the latency-optimal floor
  b.observe(1);              // a full round doubles immediately
  EXPECT_EQ(b.limit(), 2u);
  b.observe(2);
  EXPECT_EQ(b.limit(), 4u);
  b.observe(4);
  b.observe(8);
  b.observe(16);
  b.observe(32);
  EXPECT_EQ(b.limit(), 64u);
  b.observe(64);
  EXPECT_EQ(b.limit(), 64u);  // capped at max
}

TEST(AdaptiveBatch, ShrinksOnlyAfterSustainedIdleRounds) {
  AdaptiveBatch b;
  while (b.limit() < 64) b.observe(b.limit());
  // Idle rounds (depth <= kShrinkDepth) must persist for kShrinkPatience
  // consecutive rounds before the budget halves.
  for (std::size_t i = 0; i < AdaptiveBatch::kShrinkPatience; ++i) {
    EXPECT_EQ(b.limit(), 64u);
    b.observe(1);
  }
  EXPECT_EQ(b.limit(), 32u);
  // Sustained idleness walks the budget down to the floor, never below.
  for (int halvings = 0; halvings < 10; ++halvings) {
    for (std::size_t i = 0; i < AdaptiveBatch::kShrinkPatience; ++i) {
      b.observe(0);
    }
  }
  EXPECT_EQ(b.limit(), AdaptiveBatch::kMinFrames);
  EXPECT_EQ(b.limit(), 1u);
}

TEST(AdaptiveBatch, PartialRoundsResetShrinkPatience) {
  AdaptiveBatch b;
  while (b.limit() < 64) b.observe(b.limit());
  // One idle gap short of patience, then a healthy partial round: the
  // budget must hold (a busy stream with occasional gaps keeps its
  // syscall amortization).
  for (int round = 0; round < 20; ++round) {
    for (std::size_t i = 0; i + 1 < AdaptiveBatch::kShrinkPatience; ++i) {
      b.observe(1);
    }
    b.observe(32);
  }
  EXPECT_EQ(b.limit(), 64u);
}

// ---------------------------------------------------------------------
// loopback integration
// ---------------------------------------------------------------------

std::string loopback_addr(const Server& server) {
  return "127.0.0.1:" + std::to_string(server.port());
}

ChurnTrace make_trace(std::uint64_t seed, std::size_t arrivals) {
  Rng rng(seed);
  ChurnSpec spec;
  spec.arrivals = arrivals;
  return generate_churn_trace(rng, spec);
}

// Polls a server-stats predicate with a deadline — the event loop and the
// client run asynchronously, so tests wait for effects, never sleep for
// fixed amounts.
template <typename Pred>
bool eventually(const Pred& pred, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// The correctness anchor: the served decision sequence over loopback is
// bit-identical (FNV-1a) to an offline replay of the same trace.
TEST(NetLoopback, ServedChecksumMatchesOfflineReplay) {
  const Platform pf = geometric_platform(4, 1.5);
  const ChurnTrace trace = make_trace(42, 300);
  const std::uint64_t offline =
      offline_decision_checksum(pf, trace, AdmissionKind::kEdf, 1.0);

  ServerOptions opts;
  opts.shards = 1;
  opts.kind = AdmissionKind::kEdf;
  opts.alpha = 1.0;
  opts.queue_depth = 1024;  // >= window, so retries cannot occur
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;
  const ReplaySummary sum =
      replay_trace_over_client(client, trace, 0, 64, 5000);
  ASSERT_TRUE(sum.ok) << client.last_error();
  ASSERT_EQ(sum.retried, 0u);  // precondition for checksum comparability
  EXPECT_GT(sum.admitted, 0u);
  EXPECT_EQ(sum.checksum, offline);

  server.request_stop();
  server.wait();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.admitted, sum.admitted);
  EXPECT_EQ(s.rejected, sum.rejected);
  EXPECT_EQ(s.departed, sum.departed);
  EXPECT_EQ(s.retried, 0u);
}

// With loops = 0 the server sizes its loop count from the CPUs the
// starting thread may run on, not from the machine's: pinned to one CPU,
// a four-shard server runs one loop.
TEST(NetLoopback, DefaultLoopCountFollowsTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(::sched_getaffinity(0, sizeof saved, &saved), 0);
  constexpr std::size_t kCpus = CPU_SETSIZE;
  std::size_t cpu = 0;
  while (cpu < kCpus && !CPU_ISSET(cpu, &saved)) ++cpu;
  ASSERT_LT(cpu, kCpus);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(::sched_setaffinity(0, sizeof one, &one), 0);

  ServerOptions opts;
  opts.shards = 4;
  opts.loops = 0;
  Server server(geometric_platform(4, 1.5), opts);
  std::string err;
  const bool started = server.start(&err);
  // The loop threads inherit the one-CPU mask; this thread gets its own
  // back before anything can fail.
  ASSERT_EQ(::sched_setaffinity(0, sizeof saved, &saved), 0);
  ASSERT_TRUE(started) << err;
  EXPECT_EQ(server.loop_count(), 1u);
  server.request_stop();
  server.wait();
}

TEST(NetLoopback, ChecksumMatchesForRmsKindToo) {
  const Platform pf = geometric_platform(3, 2.0);
  const ChurnTrace trace = make_trace(7, 200);
  const std::uint64_t offline = offline_decision_checksum(
      pf, trace, AdmissionKind::kRmsHyperbolic, 1.5);

  ServerOptions opts;
  opts.shards = 1;
  opts.kind = AdmissionKind::kRmsHyperbolic;
  opts.alpha = 1.5;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;
  const ReplaySummary sum =
      replay_trace_over_client(client, trace, 0, 32, 5000);
  ASSERT_TRUE(sum.ok) << client.last_error();
  ASSERT_EQ(sum.retried, 0u);
  EXPECT_EQ(sum.checksum, offline);
}

// Shards are independent tenants: concurrent replays against different
// shards both reproduce the single-controller offline checksum.
TEST(NetLoopback, ShardsAreIndependentTenants) {
  const Platform pf = geometric_platform(4, 1.5);
  const ChurnTrace traces[2] = {make_trace(1, 150), make_trace(2, 150)};
  std::uint64_t offline[2];
  for (int i = 0; i < 2; ++i) {
    offline[i] =
        offline_decision_checksum(pf, traces[i], AdmissionKind::kEdf, 1.0);
  }

  ServerOptions opts;
  opts.shards = 2;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  ReplaySummary sums[2];
  std::string errs[2];
  std::thread workers[2];
  for (int i = 0; i < 2; ++i) {
    workers[i] = std::thread([&, i] {
      Client client;
      std::string cerr;
      if (!client.connect(loopback_addr(server), 2000, &cerr)) {
        errs[i] = cerr;
        return;
      }
      sums[i] = replay_trace_over_client(
          client, traces[i], static_cast<std::uint16_t>(i), 32, 5000);
    });
  }
  for (std::thread& t : workers) t.join();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(sums[i].ok) << errs[i];
    ASSERT_EQ(sums[i].retried, 0u);
    EXPECT_EQ(sums[i].checksum, offline[i]) << "shard " << i;
  }
}

TEST(NetLoopback, StatusCodesForEdgeRequests) {
  const Platform pf = geometric_platform(2, 1.5);
  ServerOptions opts;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;

  Response r;
  ASSERT_TRUE(client.call(Request::admit(0, 1, 2, 10), &r, 2000))
      << client.last_error();
  EXPECT_EQ(r.status, Status::kAdmitted);
  EXPECT_EQ(r.request_id, 1u);
  EXPECT_GT(r.utilization(), 0.0);

  ASSERT_TRUE(client.call(Request::depart(0, 2, r.task_id), &r, 2000));
  EXPECT_EQ(r.status, Status::kDeparted);
  ASSERT_TRUE(client.call(Request::depart(0, 3, r.task_id), &r, 2000));
  EXPECT_EQ(r.status, Status::kStaleId);  // id generation prevents reuse

  ASSERT_TRUE(client.call(Request::admit(0, 4, 0, 10), &r, 2000));
  EXPECT_EQ(r.status, Status::kBadRequest);  // non-positive exec

  ASSERT_TRUE(client.call(Request::admit(9, 5, 2, 10), &r, 2000));
  EXPECT_EQ(r.status, Status::kBadShard);  // only shard 0 exists

  ASSERT_TRUE(client.call(Request::rebalance(0, 6), &r, 2000));
  EXPECT_EQ(r.status, Status::kRebalanced);
  EXPECT_EQ(r.task_id, 0u);  // no residents: zero migrations
}

// Backpressure: with the shard paused and a tiny queue, excess requests
// are answered kRetryLater immediately — the queue is the only buffer.
TEST(NetLoopback, FullQueueAnswersRetryLater) {
  const Platform pf = geometric_platform(2, 1.5);
  ServerOptions opts;
  opts.queue_depth = 4;
  opts.start_paused = true;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;

  constexpr std::uint64_t kRequests = 32;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    client.queue_request(Request::admit(0, i, 1, 100));
  }
  ASSERT_TRUE(client.flush(2000)) << client.last_error();
  // All frames reach the event loop; exactly queue_depth fit the queue.
  ASSERT_TRUE(eventually([&] {
    return server.stats().frames_rx == kRequests;
  }));
  ServerStats s = server.stats();
  EXPECT_EQ(s.enqueued, opts.queue_depth);
  EXPECT_EQ(s.retried, kRequests - opts.queue_depth);

  server.resume_shards();
  std::uint64_t retries = 0;
  std::uint64_t admitted = 0;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    Response r;
    ASSERT_TRUE(client.recv_response(&r, 5000)) << client.last_error();
    if (r.status == Status::kRetryLater) ++retries;
    if (r.status == Status::kAdmitted) ++admitted;
  }
  EXPECT_EQ(retries, kRequests - opts.queue_depth);
  EXPECT_EQ(admitted, opts.queue_depth);  // u=0.01 each: all fit
}

// Graceful shutdown: requests queued before request_stop() are still
// decided and answered before the sockets close.
TEST(NetLoopback, StopDrainsQueuedRequests) {
  const Platform pf = geometric_platform(2, 1.5);
  ServerOptions opts;
  opts.queue_depth = 64;
  opts.start_paused = true;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;

  constexpr std::uint64_t kRequests = 16;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    client.queue_request(Request::admit(0, i, 1, 100));
  }
  ASSERT_TRUE(client.flush(2000)) << client.last_error();
  ASSERT_TRUE(eventually([&] {
    return server.stats().enqueued == kRequests;
  }));

  server.request_stop();  // unpauses, drains, then closes
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    Response r;
    ASSERT_TRUE(client.recv_response(&r, 5000))
        << "response " << i << ": " << client.last_error();
    EXPECT_EQ(r.request_id, i);
    EXPECT_EQ(r.status, Status::kAdmitted);
  }
  server.wait();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.stats().admitted, kRequests);
}

// A malformed byte stream cannot be re-framed: the server drops the peer.
TEST(NetLoopback, GarbageBytesCloseTheConnection) {
  const Platform pf = geometric_platform(2, 1.5);
  ServerOptions opts;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)),
            0);
  unsigned char garbage[kFrameSize];
  std::memset(garbage, 0xFF, sizeof(garbage));
  ASSERT_EQ(::send(fd, garbage, sizeof(garbage), 0),
            static_cast<ssize_t>(sizeof(garbage)));
  unsigned char buf[16];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);  // EOF: peer dropped us
  ::close(fd);
  EXPECT_TRUE(eventually([&] { return server.stats().bad == 1; }));
}

TEST(NetServer, StartRejectsBadOptions) {
  const Platform pf = geometric_platform(2, 1.5);
  std::string err;
  {
    ServerOptions opts;
    opts.shards = kMaxShards + 1;
    Server server(pf, opts);
    EXPECT_FALSE(server.start(&err));
  }
  {
    ServerOptions opts;
    opts.listen_addr = "127.0.0.1";  // missing port
    Server server(pf, opts);
    EXPECT_FALSE(server.start(&err));
  }
  {
    ServerOptions opts;
    opts.queue_depth = 0;
    Server server(pf, opts);
    EXPECT_FALSE(server.start(&err));
  }
  {
    ServerOptions opts;
    opts.loops = kMaxLoops + 1;
    Server server(pf, opts);
    EXPECT_FALSE(server.start(&err));
  }
}

// ---------------------------------------------------------------------
// thread-per-core: cross-loop routing, backlogs
// ---------------------------------------------------------------------

// Cross-loop parity: each connection is first pinned to one loop by a
// frame that cannot change any decision (a depart of an id no slot can
// hold, answered kStaleId), then replays the shard the OTHER loop owns,
// so every replayed frame takes the cross-loop queue path — checksums
// must still hold.
TEST(NetLoopback, FallbackAcceptorRoutesAcrossLoops) {
  const Platform pf = geometric_platform(4, 1.5);
  const ChurnTrace traces[2] = {make_trace(11, 200), make_trace(12, 200)};
  std::uint64_t offline[2];
  for (int i = 0; i < 2; ++i) {
    offline[i] =
        offline_decision_checksum(pf, traces[i], AdmissionKind::kEdf, 1.0);
  }

  ServerOptions opts;
  opts.shards = 2;
  opts.loops = 2;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  // Client i's first shard frame names shard i, which places it on loop i.
  constexpr std::uint64_t kNoSuchTask = ~std::uint64_t{0};
  Client clients[2];
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(clients[i].connect(loopback_addr(server), 2000, &err)) << err;
    const Request pin_req =
        Request::depart(static_cast<std::uint16_t>(i), 0, kNoSuchTask);
    Response pin;
    ASSERT_TRUE(clients[i].call(pin_req, &pin, 2000))
        << clients[i].last_error();
    EXPECT_EQ(pin.status, Status::kStaleId);
  }

  ReplaySummary sums[2];
  std::thread workers[2];
  for (int i = 0; i < 2; ++i) {
    workers[i] = std::thread([&, i] {
      // Client i sits on loop i; shard 1 - i is owned by loop 1 - i.
      sums[i] = replay_trace_over_client(clients[i], traces[1 - i],
                                         static_cast<std::uint16_t>(1 - i), 32,
                                         5000);
    });
  }
  for (std::thread& t : workers) t.join();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(sums[i].ok) << clients[i].last_error();
    ASSERT_EQ(sums[i].retried, 0u);
    EXPECT_EQ(sums[i].checksum, offline[1 - i]) << "connection " << i;
  }
  const ServerStats s = server.stats();
  // The two pins ran inline; every replayed frame crossed loops.
  EXPECT_EQ(s.frames_inline, 2u);
  EXPECT_EQ(s.enqueued, sums[0].requests + sums[1].requests);
  EXPECT_EQ(s.frames_rx, s.enqueued + 2);
}

// The correctness anchor in thread-per-core mode: with 4 loops,
// concurrent per-shard replays stay bit-identical to offline (loop 0
// accepts each connection and its first frame moves it to the loop that
// owns its shard).
TEST(NetLoopback, MultiLoopServeMatchesOfflineChecksums) {
  constexpr int kShards = 4;
  const Platform pf = geometric_platform(4, 1.5);
  ChurnTrace traces[kShards];
  std::uint64_t offline[kShards];
  for (int i = 0; i < kShards; ++i) {
    traces[i] = make_trace(100 + static_cast<std::uint64_t>(i), 200);
    offline[i] =
        offline_decision_checksum(pf, traces[i], AdmissionKind::kEdf, 1.0);
  }

  ServerOptions opts;
  opts.shards = kShards;
  opts.loops = 4;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  ASSERT_EQ(server.loop_count(), 4u);

  ReplaySummary sums[kShards];
  std::string errs[kShards];
  std::thread workers[kShards];
  for (int i = 0; i < kShards; ++i) {
    workers[i] = std::thread([&, i] {
      Client client;
      std::string cerr;
      if (!client.connect(loopback_addr(server), 2000, &cerr)) {
        errs[i] = cerr;
        return;
      }
      sums[i] = replay_trace_over_client(
          client, traces[i], static_cast<std::uint16_t>(i), 32, 5000);
    });
  }
  for (std::thread& t : workers) t.join();
  for (int i = 0; i < kShards; ++i) {
    ASSERT_TRUE(sums[i].ok) << errs[i];
    ASSERT_EQ(sums[i].retried, 0u);
    EXPECT_EQ(sums[i].checksum, offline[i]) << "shard " << i;
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.frames_inline + s.enqueued, s.frames_rx);
}

// Partial-write regression: a tiny server-side SO_SNDBUF plus a client
// that reads nothing until the server has decoded everything forces
// EAGAIN on the response path.  Every response must still arrive, in
// order, and the partial_writes counter proves the backlog/EPOLLOUT
// resumption ran.
TEST(NetLoopback, TinySndbufPartialWritesResumeInOrder) {
  const Platform pf = geometric_platform(2, 1.5);
  ServerOptions opts;
  opts.sndbuf_bytes = 4096;  // clamped to the kernel floor; still tiny
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcv = 2048;  // tiny client receive window, set before connect
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcv, sizeof(rcv)), 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)),
            0);

  // 2000 responses (72 KB) cannot fit in the server's send buffer plus
  // our receive window, so the server must park response backlogs while
  // we send and can only finish once we start reading.
  constexpr std::uint64_t kRequests = 2000;
  std::vector<unsigned char> wire(kRequests * kFrameSize);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    encode_request(Request::admit(0, i, 1, 1000000),
                   wire.data() + i * kFrameSize);
  }
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t w =
        ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(w, 0) << std::strerror(errno);
    sent += static_cast<std::size_t>(w);
  }
  // Read nothing until the server has decoded every request: by then it
  // has produced nearly all 72 KB of answers, far more than the clamped
  // buffers hold, so short writes cannot be avoided however fast it runs.
  ASSERT_TRUE(eventually([&] {
    return server.stats().frames_rx == kRequests;
  }));

  std::vector<unsigned char> in;
  in.reserve(wire.size());
  unsigned char chunk[4096];
  std::uint64_t got = 0;
  std::size_t off = 0;
  while (got < kRequests) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << std::strerror(errno);
    in.insert(in.end(), chunk, chunk + n);
    while (true) {
      Response r;
      std::size_t consumed = 0;
      const DecodeResult d =
          decode_response(in.data() + off, in.size() - off, &r, &consumed);
      ASSERT_NE(d, DecodeResult::kBad);
      if (d != DecodeResult::kOk) break;
      off += consumed;
      EXPECT_EQ(r.request_id, got);  // order preserved across resumptions
      ++got;
    }
  }
  ::close(fd);
  EXPECT_GT(server.stats().partial_writes, 0u);
  server.request_stop();
  server.wait();
  EXPECT_EQ(server.stats().frames_rx, kRequests);
}

// The slow-reader bound: a peer that sends and never reads parks its
// answers in the server's response backlog until that passes 1 MiB, and
// the server then drops it instead of buffering the whole stream.
TEST(NetLoopback, PeerThatNeverReadsIsDropped) {
  const Platform pf = geometric_platform(2, 1.5);
  ServerOptions opts;
  opts.sndbuf_bytes = 4096;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcv = 2048;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcv, sizeof(rcv)), 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)),
            0);

  // 64k stale departs are answered with 2.3 MB, over twice the bound, so
  // the server drops the peer part-way and resets the rest of the send.
  constexpr std::uint64_t kRequests = 65536;
  constexpr std::uint64_t kNoSuchTask = ~std::uint64_t{0};
  std::vector<unsigned char> wire(kRequests * kFrameSize);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    encode_request(Request::depart(0, i, kNoSuchTask),
                   wire.data() + i * kFrameSize);
  }
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t w =
        ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) break;  // reset by the server
    sent += static_cast<std::size_t>(w);
  }
  // Without reading a byte, wait for the server's close to arrive.
  const auto peer_closed = [&] {
    tcp_info info{};
    socklen_t len = sizeof(info);
    return ::getsockopt(fd, IPPROTO_TCP, TCP_INFO, &info, &len) == 0 &&
           info.tcpi_state != TCP_ESTABLISHED;
  };
  ASSERT_TRUE(eventually(peer_closed, 10000));
  // Only what the socket buffers held before the close ever arrives.
  unsigned char chunk[4096];
  std::size_t got = 0;
  ssize_t n = 0;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    got += static_cast<std::size_t>(n);
  }
  EXPECT_TRUE(n == 0 || errno == ECONNRESET) << std::strerror(errno);
  EXPECT_LT(got / kFrameSize, kRequests / 16);
  ::close(fd);
  EXPECT_GE(server.stats().partial_writes, 1u);

  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;
  Response r;
  ASSERT_TRUE(client.call(Request::admit(0, 1, 1, 1000), &r, 2000))
      << client.last_error();
  EXPECT_EQ(r.status, Status::kAdmitted);
}

// ---------------------------------------------------------------------
// connection placement: the first shard-addressed frame picks the loop
// ---------------------------------------------------------------------

// Loop 0 accepts every connection and its first frame moves it to the
// loop that owns its shard: every frame runs inline.
TEST(NetLoopback, ConnectionsServeOnTheirShardsLoop) {
  constexpr int kConns = 16;
  const Platform pf = geometric_platform(4, 1.5);
  ChurnTrace traces[kConns];
  std::uint64_t offline[kConns];
  for (int i = 0; i < kConns; ++i) {
    traces[i] = make_trace(300 + static_cast<std::uint64_t>(i), 150);
    offline[i] =
        offline_decision_checksum(pf, traces[i], AdmissionKind::kEdf, 1.0);
  }

  ServerOptions opts;
  opts.shards = kConns;  // one shard per connection, four per loop
  opts.loops = 4;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  ASSERT_EQ(server.loop_count(), 4u);

  ReplaySummary sums[kConns];
  std::string errs[kConns];
  std::thread workers[kConns];
  for (int i = 0; i < kConns; ++i) {
    workers[i] = std::thread([&, i] {
      Client client;
      std::string cerr;
      if (!client.connect(loopback_addr(server), 2000, &cerr)) {
        errs[i] = cerr;
        return;
      }
      sums[i] = replay_trace_over_client(
          client, traces[i], static_cast<std::uint16_t>(i), 32, 5000);
      if (!sums[i].ok) errs[i] = client.last_error();
    });
  }
  for (std::thread& t : workers) t.join();
  std::uint64_t requests = 0;
  for (int i = 0; i < kConns; ++i) {
    ASSERT_TRUE(sums[i].ok) << errs[i];
    ASSERT_EQ(sums[i].retried, 0u);
    EXPECT_EQ(sums[i].checksum, offline[i]) << "shard " << i;
    requests += sums[i].requests;
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.frames_rx, requests);
  EXPECT_EQ(s.enqueued, 0u);
  EXPECT_EQ(s.frames_inline, s.frames_rx);
  // Loop 0 keeps the four connections whose shards it owns.
  EXPECT_EQ(s.connection_handoffs, 12u);
}

// The single acceptor no longer deals fds round-robin: loop 0 takes
// every connection and the one whose shard loop 1 owns moves there once.
TEST(NetLoopback, SingleAcceptorHandsOffOnFirstFrame) {
  const Platform pf = geometric_platform(4, 1.5);
  const ChurnTrace traces[2] = {make_trace(21, 200), make_trace(22, 200)};
  std::uint64_t offline[2];
  for (int i = 0; i < 2; ++i) {
    offline[i] =
        offline_decision_checksum(pf, traces[i], AdmissionKind::kEdf, 1.0);
  }

  ServerOptions opts;
  opts.shards = 2;
  opts.loops = 2;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client clients[2];
  for (Client& c : clients) {
    ASSERT_TRUE(c.connect(loopback_addr(server), 2000, &err)) << err;
  }
  ASSERT_TRUE(eventually([&] { return server.stats().connections == 2; }));
  EXPECT_EQ(server.stats().connection_handoffs, 0u);  // nothing sent yet

  ReplaySummary sums[2];
  std::thread workers[2];
  for (int i = 0; i < 2; ++i) {
    workers[i] = std::thread([&, i] {
      sums[i] = replay_trace_over_client(clients[i], traces[i],
                                         static_cast<std::uint16_t>(i), 32,
                                         5000);
    });
  }
  for (std::thread& t : workers) t.join();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(sums[i].ok) << clients[i].last_error();
    ASSERT_EQ(sums[i].retried, 0u);
    EXPECT_EQ(sums[i].checksum, offline[i]) << "connection " << i;
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.connection_handoffs, 1u);
  EXPECT_EQ(s.enqueued, 0u);
  EXPECT_EQ(s.frames_inline, s.frames_rx);
  EXPECT_EQ(s.frames_rx, sums[0].requests + sums[1].requests);
}

// One connection replaying two traces at once, alternating frames between
// a shard on each loop.  Responses of different shards may interleave, so
// they are matched to their trace by request id (even: trace 0, odd:
// trace 1); within a shard they come back in request order.
struct InterleavedTrace {
  const ChurnTrace* trace = nullptr;
  std::uint16_t shard = 0;
  std::uint64_t tag = 0;  // request id parity
  std::size_t next = 0;   // next trace event to submit
  std::uint64_t next_id = 0;
  std::vector<int> outcome;  // per task: 0 pending, 1 admitted, 2 lost
  std::vector<std::uint64_t> server_id;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> inflight;  // rid, task
  std::uint64_t checksum = kFnv1aSeed;
  std::uint64_t sent = 0;
  std::uint64_t retried = 0;

  void init(const ChurnTrace& t, std::uint16_t s, std::uint64_t parity) {
    trace = &t;
    shard = s;
    tag = parity;
    outcome.assign(t.arrivals, 0);
    server_id.assign(t.arrivals, 0);
  }
  bool done() const { return next == trace->events.size() && inflight.empty(); }

  // Queues this trace's next frame; false when it has none ready (the
  // trace is exhausted or waits on an arrival's answer).
  bool submit(Client& client) {
    while (next < trace->events.size()) {
      const ChurnEvent& ev = trace->events[next];
      const std::uint64_t rid = next_id * 2 + tag;
      if (ev.kind == ChurnEvent::Kind::kArrival) {
        client.queue_request(
            Request::admit(shard, rid, ev.params.exec, ev.params.period));
        outcome[ev.task] = 0;
      } else if (outcome[ev.task] == 0) {
        return false;
      } else if (outcome[ev.task] == 2) {
        ++next;  // never admitted: nothing to depart
        continue;
      } else {
        client.queue_request(Request::depart(shard, rid, server_id[ev.task]));
      }
      inflight.emplace_back(rid, next);
      ++next;
      ++next_id;
      ++sent;
      return true;
    }
    return false;
  }

  // Folds one response (the same fold as offline_decision_checksum).
  bool resolve(const Response& r) {
    if (inflight.empty() || inflight.front().first != r.request_id) {
      return false;
    }
    const ChurnEvent& ev = trace->events[inflight.front().second];
    inflight.pop_front();
    if (r.status == Status::kRetryLater) {
      ++retried;
      if (ev.kind == ChurnEvent::Kind::kArrival) outcome[ev.task] = 2;
      return true;
    }
    if (ev.kind == ChurnEvent::Kind::kArrival) {
      const bool ok = r.status == Status::kAdmitted;
      checksum = fnv1a(checksum, ok ? 1 : 0);
      checksum = fnv1a(checksum, ok ? r.machine : 0);
      checksum = fnv1a(checksum, r.value);
      outcome[ev.task] = ok ? 1 : 2;
      server_id[ev.task] = r.task_id;
    } else {
      checksum = fnv1a(checksum, r.status == Status::kDeparted ? 1 : 0);
    }
    return true;
  }
};

TEST(NetLoopback, AlternatingShardsQueueOnlyTheOtherLoopsFrames) {
  const Platform pf = geometric_platform(4, 1.5);
  const ChurnTrace traces[2] = {make_trace(31, 200), make_trace(32, 200)};
  std::uint64_t offline[2];
  for (int i = 0; i < 2; ++i) {
    offline[i] =
        offline_decision_checksum(pf, traces[i], AdmissionKind::kEdf, 1.0);
  }

  ServerOptions opts;
  opts.shards = 2;
  opts.loops = 2;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  // Trace 0 drives shard 1 and goes first, so its first frame places the
  // connection on loop 1; trace 1's frames for shard 0 then cross loops.
  InterleavedTrace streams[2];
  streams[0].init(traces[0], 1, 0);
  streams[1].init(traces[1], 0, 1);
  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;
  constexpr std::size_t kWindow = 32;
  const auto in_flight = [&] {
    return streams[0].inflight.size() + streams[1].inflight.size();
  };
  while (!streams[0].done() || !streams[1].done()) {
    bool queued = true;
    while (queued) {
      queued = false;
      for (InterleavedTrace& st : streams) {
        if (in_flight() < kWindow && st.submit(client)) queued = true;
      }
    }
    ASSERT_TRUE(client.flush(2000)) << client.last_error();
    ASSERT_GT(in_flight(), 0u);
    Response r;
    ASSERT_TRUE(client.recv_response(&r, 5000)) << client.last_error();
    ASSERT_TRUE(streams[r.request_id % 2].resolve(r))
        << "out-of-order response " << r.request_id;
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(streams[i].retried, 0u);
    EXPECT_EQ(streams[i].checksum, offline[i]) << "trace " << i;
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.connection_handoffs, 1u);
  EXPECT_EQ(s.frames_rx, streams[0].sent + streams[1].sent);
  EXPECT_EQ(s.frames_inline, streams[0].sent);  // shard 1, on its own loop
  EXPECT_EQ(s.enqueued, streams[1].sent);       // shard 0, across loops
}

// Answers staged before the handoff stay ahead of everything after it:
// GET_STATS frames answered on the accepting loop (their bytes parked in
// the backlog by a tiny SO_SNDBUF and a client that is not reading yet)
// precede the admits its new loop decides.
TEST(NetLoopback, StatsAnsweredBeforeHandoffStayInOrder) {
  const Platform pf = geometric_platform(2, 1.5);
  ServerOptions opts;
  opts.shards = 2;
  opts.loops = 2;
  opts.sndbuf_bytes = 4096;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcv = 2048;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcv, sizeof(rcv)), 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)),
            0);

  constexpr std::uint64_t kStats = 16;
  constexpr std::uint64_t kAdmits = 64;
  std::vector<unsigned char> wire((kStats + kAdmits) * kFrameSize);
  for (std::uint64_t i = 0; i < kStats + kAdmits; ++i) {
    const Request r =
        i < kStats ? Request::get_stats(i) : Request::admit(1, i, 1, 1000);
    encode_request(r, wire.data() + i * kFrameSize);
  }
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t w =
        ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(w, 0) << std::strerror(errno);
    sent += static_cast<std::size_t>(w);
  }
  ASSERT_TRUE(eventually([&] {
    return server.stats().frames_rx == kStats + kAdmits;
  }));

  std::vector<unsigned char> in;
  std::size_t off = 0;
  std::uint64_t got = 0;
  unsigned char chunk[4096];
  while (got < kStats + kAdmits) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << std::strerror(errno);
    in.insert(in.end(), chunk, chunk + n);
    while (got < kStats + kAdmits) {
      std::size_t consumed = 0;
      std::uint64_t rid = 0;
      DecodeResult d;
      if (got < kStats) {
        InfoResponse info;
        d = decode_info_response(in.data() + off, in.size() - off, &info,
                                 &consumed);
        rid = info.request_id;
      } else {
        Response r;
        d = decode_response(in.data() + off, in.size() - off, &r, &consumed);
        rid = r.request_id;
        if (d == DecodeResult::kOk) {
          EXPECT_EQ(r.status, Status::kAdmitted);
        }
      }
      ASSERT_NE(d, DecodeResult::kBad) << "frame " << got;
      if (d != DecodeResult::kOk) break;
      off += consumed;
      EXPECT_EQ(rid, got);
      ++got;
    }
  }
  ::close(fd);
  server.request_stop();
  server.wait();
  const ServerStats s = server.stats();
  EXPECT_GT(s.partial_writes, 0u);
  EXPECT_EQ(s.introspect, kStats);
  EXPECT_EQ(s.connection_handoffs, 1u);
  EXPECT_EQ(s.frames_inline, kAdmits);
  EXPECT_EQ(s.enqueued, 0u);
}

// A handoff racing request_stop: whether the placing frame moves with its
// connection, takes the queue path, or is never read, every frame the
// server decoded is answered before the socket closes.
TEST(NetLoopback, HandoffRacingStopAnswersWhatItDecoded) {
  const Platform pf = geometric_platform(2, 1.5);
  for (int round = 0; round < 40; ++round) {
    ServerOptions opts;
    opts.shards = 2;
    opts.loops = 2;
    Server server(pf, opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    Client client;
    ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;
    ASSERT_TRUE(eventually([&] { return server.stats().connections == 1; }));
    client.queue_request(Request::admit(1, 7, 1, 1000));  // loop 1's shard
    ASSERT_TRUE(client.flush(2000)) << client.last_error();
    std::this_thread::sleep_for(std::chrono::microseconds(5 * (round % 8)));
    server.request_stop();
    Response r;
    const bool answered = client.recv_response(&r, 5000);
    server.wait();
    const ServerStats s = server.stats();
    EXPECT_EQ(s.frames_rx, answered ? 1u : 0u) << "round " << round;
    EXPECT_LE(s.connection_handoffs, s.frames_rx) << "round " << round;
    if (answered) {
      EXPECT_EQ(r.request_id, 7u);
      EXPECT_EQ(r.status, Status::kAdmitted);
    }
  }
}

// ServerStats lives in per-loop cells that only their loop writes and
// stats() sums.  Two loops each serve one connection on their own shard
// (N admits, then N/2 departs of admitted ids): after wait() the sums are
// exact, and a GET_STATS poller on a third connection never sees a
// hetsched_server_* counter go back while the loops count.
TEST(NetLoopback, PerLoopCountersSumExactlyAndNeverDecrease) {
  constexpr std::uint64_t kN = 2000;
  constexpr std::uint64_t kWindow = 64;
  const Platform pf = geometric_platform(4, 1.5);
  ServerOptions opts;
  opts.shards = 2;
  opts.loops = 2;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  std::atomic<bool> done{false};
  std::uint64_t polls = 0;
  std::string poll_error;
  std::thread poller([&] {
    Client client;
    if (!client.connect(loopback_addr(server), 2000, &poll_error)) return;
    std::map<std::string, std::uint64_t> last;
    while (!done.load(std::memory_order_acquire) || polls < 2) {
      InfoResponse info;
      if (!client.call_info(Request::get_stats(polls), &info, 2000)) {
        poll_error = client.last_error();
        return;
      }
      ++polls;
      std::istringstream lines(info.text);
      std::string line;
      while (std::getline(lines, line)) {
        if (line.rfind("hetsched_server_", 0) != 0) continue;
        const std::size_t space = line.find(' ');
        const std::string name = line.substr(0, space);
        const std::uint64_t v = std::stoull(line.substr(space + 1));
        const auto [it, fresh] = last.emplace(name, v);
        if (!fresh && v < it->second) {
          poll_error = name + " went from " + std::to_string(it->second) +
                       " to " + std::to_string(v);
          return;
        }
        it->second = v;
      }
    }
  });

  std::string errs[2];
  std::thread workers[2];
  for (int w = 0; w < 2; ++w) {
    workers[w] = std::thread([&, w] {
      const auto shard = static_cast<std::uint16_t>(w);
      Client client;
      if (!client.connect(loopback_addr(server), 2000, &errs[w])) return;
      std::vector<std::uint64_t> ids;
      Response r;
      for (std::uint64_t sent = 0; sent < kN; sent += kWindow) {
        for (std::uint64_t i = sent; i < sent + kWindow && i < kN; ++i) {
          client.queue_request(Request::admit(shard, i, 1, 1'000'000));
        }
        if (!client.flush(2000)) break;
        for (std::uint64_t i = sent; i < sent + kWindow && i < kN; ++i) {
          if (!client.recv_response(&r, 5000)) break;
          if (r.status == Status::kAdmitted) ids.push_back(r.task_id);
        }
      }
      if (ids.size() < kN / 2) {
        errs[w] = "admitted " + std::to_string(ids.size()) + " " +
                  client.last_error();
        return;
      }
      for (std::uint64_t i = 0; i < kN / 2; ++i) {
        client.queue_request(Request::depart(shard, kN + i, ids[i]));
      }
      if (!client.flush(2000)) errs[w] = client.last_error();
      for (std::uint64_t i = 0; i < kN / 2 && errs[w].empty(); ++i) {
        if (!client.recv_response(&r, 5000)) errs[w] = client.last_error();
        if (r.status != Status::kDeparted) errs[w] = "depart not departed";
      }
    });
  }
  for (std::thread& t : workers) t.join();
  done.store(true, std::memory_order_release);
  poller.join();
  for (int w = 0; w < 2; ++w) EXPECT_TRUE(errs[w].empty()) << errs[w];
  EXPECT_TRUE(poll_error.empty()) << poll_error;
  EXPECT_GE(polls, 2u);

  server.request_stop();
  server.wait();
  const ServerStats s = server.stats();
  // frames_rx also counts the poller's GET_STATS frames, which no shard
  // decides.
  EXPECT_EQ(s.introspect, polls);
  EXPECT_EQ(s.frames_rx - s.introspect, 3 * kN);
  EXPECT_EQ(s.frames_inline, 3 * kN);
  EXPECT_EQ(s.admitted + s.rejected + s.departed + s.stale, 3 * kN);
  EXPECT_EQ(s.departed, kN);
  EXPECT_EQ(s.enqueued, 0u);
  EXPECT_EQ(s.connection_handoffs, 1u);  // shard 1's connection
}

TEST(NetReplay, OfflineChecksumIsDeterministic) {
  const Platform pf = geometric_platform(4, 1.5);
  const ChurnTrace trace = make_trace(5, 100);
  const std::uint64_t a =
      offline_decision_checksum(pf, trace, AdmissionKind::kEdf, 2.0);
  const std::uint64_t b =
      offline_decision_checksum(pf, trace, AdmissionKind::kEdf, 2.0);
  EXPECT_EQ(a, b);
  // Engine choice must not change decisions (bit-identical engines).
  const std::uint64_t naive = offline_decision_checksum(
      pf, trace, AdmissionKind::kEdf, 2.0, PartitionEngine::kNaive);
  EXPECT_EQ(a, naive);
}

}  // namespace
}  // namespace hetsched::net
