// Tests for the protocol-minor-2 introspection surfaces, end to end:
// traced request framing and its compatibility with minor-1 peers, the
// variable-length info-frame codec, GET_STATS / GET_TRACEZ over a live
// loopback server, the HTTP side port (/metrics, /healthz), and the
// per-shard flight recorder wired through the server.
//
// Span-content assertions are gated on HETSCHED_METRICS_ENABLED: the
// frames, status codes, and HTTP endpoints must work identically in OFF
// builds (where tracez bodies are simply empty) — that invariance is the
// kill-switch contract for the introspection plane.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gen/platform_gen.h"
#include "net/client.h"
#include "net/http_introspect.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace hetsched::net {
namespace {

// ---------------------------------------------------------------------
// Wire compatibility (protocol minor 2).
// ---------------------------------------------------------------------

TEST(NetProtocolMinor2, TracedRequestRoundTrips) {
  const Request r = Request::admit(3, 77, 5, 20).traced(0xABCDEF12345678ULL);
  unsigned char buf[kTracedFrameSize];
  ASSERT_EQ(encode_request(r, buf), kTracedFrameSize);
  Request out;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_request(buf, kTracedFrameSize, &out, &consumed),
            DecodeResult::kOk);
  EXPECT_EQ(consumed, kTracedFrameSize);
  EXPECT_EQ(out.trace_id, 0xABCDEF12345678ULL);
  EXPECT_EQ(out.type, MsgType::kAdmit);
  EXPECT_EQ(out.shard, 3u);
  EXPECT_EQ(out.request_id, 77u);
  EXPECT_EQ(out.a, 5u);
  EXPECT_EQ(out.b, 20u);
}

// An untraced request must emit the EXACT minor-1 wire image — the frame
// a pre-tracing client sends and a pre-tracing server expects.  Pinning
// the header bytes here keeps the compat promise a compile-visible fact.
TEST(NetProtocolMinor2, UntracedFrameKeepsTheMinor1Layout) {
  const Request r = Request::admit(3, 77, 5, 20);
  unsigned char buf[kTracedFrameSize];
  ASSERT_EQ(encode_request(r, buf), kFrameSize);
  // u32 LE payload length = kPayloadSize (32), then version, then type.
  EXPECT_EQ(buf[0], 32u);
  EXPECT_EQ(buf[1], 0u);
  EXPECT_EQ(buf[2], 0u);
  EXPECT_EQ(buf[3], 0u);
  EXPECT_EQ(buf[4], kProtocolVersion);
  EXPECT_EQ(buf[5], static_cast<unsigned char>(MsgType::kAdmit));
  // A minor-2 decoder reads it back as trace id 0 (untraced).
  Request out;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_request(buf, kFrameSize, &out, &consumed),
            DecodeResult::kOk);
  EXPECT_EQ(consumed, kFrameSize);
  EXPECT_EQ(out.trace_id, 0u);
}

// Each Request has exactly one wire image: a 40-byte payload whose trace
// id field is zero is NOT the canonical form of an untraced request, so
// the decoder rejects it rather than aliasing two encodings.
TEST(NetProtocolMinor2, ZeroTraceIdInExtendedPayloadRejected) {
  const Request r = Request::admit(0, 1, 2, 10).traced(7);
  unsigned char buf[kTracedFrameSize];
  ASSERT_EQ(encode_request(r, buf), kTracedFrameSize);
  std::memset(buf + kFrameSize, 0, 8);  // zero the trace id field
  Request out;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_request(buf, kTracedFrameSize, &out, &consumed),
            DecodeResult::kBad);
}

TEST(NetProtocolMinor2, IntrospectionFactories) {
  const Request gs = Request::get_stats(41);
  EXPECT_EQ(gs.type, MsgType::kGetStats);
  EXPECT_EQ(gs.request_id, 41u);
  const Request gt = Request::get_tracez(42, 12);
  EXPECT_EQ(gt.type, MsgType::kGetTracez);
  EXPECT_EQ(gt.request_id, 42u);
  EXPECT_EQ(gt.tracez_slowest(), 12u);
}

TEST(NetProtocolMinor2, InfoResponseRoundTrips) {
  InfoResponse in;
  in.type = MsgType::kGetTracez;
  in.request_id = 99;
  in.value = 3;
  in.text = "{\"trace_id\":1}\n{\"trace_id\":2}\n";
  std::vector<unsigned char> frame;
  encode_info_response(in, &frame);
  ASSERT_EQ(frame.size(), kHeaderSize + kInfoPrefixSize + in.text.size());

  InfoResponse out;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_info_response(frame.data(), frame.size(), &out, &consumed),
            DecodeResult::kOk);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(out.type, MsgType::kGetTracez);
  EXPECT_EQ(out.request_id, 99u);
  EXPECT_EQ(out.value, 3u);
  EXPECT_EQ(out.text, in.text);

  // Every strict prefix needs more bytes — never a bogus decode.
  for (std::size_t len = 0; len < frame.size(); len += 7) {
    EXPECT_EQ(decode_info_response(frame.data(), len, &out, &consumed),
              DecodeResult::kNeedMore)
        << "len " << len;
  }
}

TEST(NetProtocolMinor2, InfoResponseTruncatesAtTheTextCap) {
  InfoResponse in;
  in.type = MsgType::kGetStats;
  in.request_id = 1;
  in.text.assign(kMaxInfoText + 4096, 'x');
  std::vector<unsigned char> frame;
  encode_info_response(in, &frame);
  InfoResponse out;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_info_response(frame.data(), frame.size(), &out, &consumed),
            DecodeResult::kOk);
  EXPECT_EQ(out.text.size(), kMaxInfoText);  // capped, still decodable
}

// ---------------------------------------------------------------------
// Loopback integration.
// ---------------------------------------------------------------------

std::string loopback_addr(const Server& server) {
  return "127.0.0.1:" + std::to_string(server.port());
}

// Old-client compat over a live server: untraced (minor-1) frames and
// traced frames interleave on one connection; decisions and statuses
// must not depend on the tracing dressing.
TEST(IntrospectLoopback, TracedAndUntracedFramesInterleave) {
  obs::span_drain();  // clear anything earlier tests recorded
  obs::set_span_enabled(true);
  const Platform pf = geometric_platform(4, 1.5);
  ServerOptions opts;
  opts.shards = 1;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;
  Response r;
  ASSERT_TRUE(client.call(Request::admit(0, 1, 1, 10).traced(0xF00D), &r,
                          2000));
  EXPECT_EQ(r.status, Status::kAdmitted);
  const std::uint64_t traced_task = r.task_id;
  ASSERT_TRUE(client.call(Request::admit(0, 2, 1, 10), &r, 2000));
  EXPECT_EQ(r.status, Status::kAdmitted);
  ASSERT_TRUE(client.call(Request::depart(0, 3, traced_task).traced(0xF00E),
                          &r, 2000));
  EXPECT_EQ(r.status, Status::kDeparted);

  server.request_stop();
  server.wait();
  obs::set_span_enabled(false);

#if HETSCHED_METRICS_ENABLED
  // The traced frames left spans behind; the untraced one did not.
  const std::vector<obs::SpanRecord> spans = obs::span_drain();
  ASSERT_FALSE(spans.empty());
  std::set<std::uint64_t> traces;
  std::set<obs::SpanStage> stages;
  for (const obs::SpanRecord& sp : spans) {
    traces.insert(sp.trace_id);
    stages.insert(sp.stage);
  }
  EXPECT_EQ(traces.count(0xF00D), 1u);
  EXPECT_EQ(traces.count(0xF00E), 1u);
  EXPECT_EQ(traces.size(), 2u);  // nothing from the untraced admit
  // The inline path records at least decode -> warm-admit -> encode ->
  // group-commit -> sendmsg for each traced frame.
  EXPECT_EQ(stages.count(obs::SpanStage::kDecode), 1u);
  EXPECT_EQ(stages.count(obs::SpanStage::kWarmAdmit), 1u);
  EXPECT_EQ(stages.count(obs::SpanStage::kEncode), 1u);
  EXPECT_EQ(stages.count(obs::SpanStage::kGroupCommit), 1u);
  EXPECT_EQ(stages.count(obs::SpanStage::kSendmsg), 1u);
  for (const obs::SpanRecord& sp : spans) {
    EXPECT_LE(sp.t0_ns, sp.t1_ns) << to_string(sp.stage);
    EXPECT_NE(sp.span_id, 0u);
  }
#else
  EXPECT_TRUE(obs::span_drain().empty());  // kill switch: no spans, ever
#endif
}

// Group commit and sendmsg are batch-level spans, recorded for every
// traced frame of a flush however many it holds: 100 traced admits
// written at once leave exactly one of each per trace.
TEST(IntrospectLoopback, EveryTracedFrameOfAFlushKeepsItsBatchSpans) {
  constexpr std::uint64_t kFrames = 100;
  constexpr std::uint64_t kFirstTrace = 0xB000;
  obs::span_drain();  // clear anything earlier tests recorded
  obs::set_span_enabled(true);
  const Platform pf = geometric_platform(4, 1.5);
  ServerOptions opts;
  opts.shards = 1;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    client.queue_request(Request::admit(0, i, 1, 1000).traced(kFirstTrace + i));
  }
  ASSERT_TRUE(client.flush(2000)) << client.last_error();
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    Response r;
    ASSERT_TRUE(client.recv_response(&r, 5000)) << client.last_error();
    EXPECT_EQ(r.status, Status::kAdmitted);
  }
  server.request_stop();
  server.wait();
  obs::set_span_enabled(false);

#if HETSCHED_METRICS_ENABLED
  std::map<std::uint64_t, std::pair<int, int>> batch_spans;  // commit, send
  for (const obs::SpanRecord& sp : obs::span_drain()) {
    if (sp.stage == obs::SpanStage::kGroupCommit) {
      ++batch_spans[sp.trace_id].first;
    } else if (sp.stage == obs::SpanStage::kSendmsg) {
      ++batch_spans[sp.trace_id].second;
    }
  }
  EXPECT_EQ(batch_spans.size(), kFrames);
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    const auto it = batch_spans.find(kFirstTrace + i);
    ASSERT_NE(it, batch_spans.end()) << "trace " << i;
    EXPECT_EQ(it->second.first, 1) << "trace " << i;
    EXPECT_EQ(it->second.second, 1) << "trace " << i;
  }
#else
  EXPECT_TRUE(obs::span_drain().empty());  // kill switch: no spans, ever
#endif
}

TEST(IntrospectLoopback, GetStatsAnswersPrometheusText) {
  const Platform pf = geometric_platform(4, 1.5);
  ServerOptions opts;
  opts.shards = 2;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;
  Response r;
  ASSERT_TRUE(client.call(Request::admit(0, 1, 1, 10), &r, 2000));

  InfoResponse info;
  ASSERT_TRUE(client.call_info(Request::get_stats(77), &info, 2000))
      << client.last_error();
  EXPECT_EQ(info.type, MsgType::kGetStats);
  EXPECT_EQ(info.request_id, 77u);
  EXPECT_NE(info.text.find("# TYPE hetsched_server_frames_rx_total counter"),
            std::string::npos);
  EXPECT_NE(info.text.find("hetsched_server_admitted_total 1"),
            std::string::npos);
  // The SLO burn families are present per shard in every build mode.
  EXPECT_NE(info.text.find("hetsched_net_slo_ok_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(info.text.find("hetsched_net_slo_breach_total{shard=\"1\"}"),
            std::string::npos);
  // Well-formed exposition: every non-comment line is "name[{labels}] value".
  std::size_t start = 0;
  while (start < info.text.size()) {
    std::size_t end = info.text.find('\n', start);
    if (end == std::string::npos) end = info.text.size();
    const std::string line = info.text.substr(start, end - start);
    if (!line.empty() && line[0] != '#') {
      EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
    start = end + 1;
  }
  EXPECT_EQ(server.stats().introspect, 1u);

  server.request_stop();
  server.wait();
}

// One exposition never carries a family twice: every `# TYPE` name in the
// GET_STATS text appears exactly once, in both build modes (the ON build
// appends the obs registry to the server's own families).
TEST(IntrospectLoopback, EveryFamilyAppearsOnce) {
  const Platform pf = geometric_platform(4, 1.5);
  ServerOptions opts;
  opts.shards = 2;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;
  Response r;
  ASSERT_TRUE(client.call(Request::admit(1, 1, 1, 10), &r, 2000));
  InfoResponse info;
  ASSERT_TRUE(client.call_info(Request::get_stats(2), &info, 2000))
      << client.last_error();
  server.request_stop();
  server.wait();

  std::map<std::string, int> types;
  std::istringstream in(info.text);
  std::string line;
  const std::string kType = "# TYPE ";
  while (std::getline(in, line)) {
    if (line.rfind(kType, 0) != 0) continue;
    const std::size_t end = line.find(' ', kType.size());
    ++types[line.substr(kType.size(), end - kType.size())];
  }
  EXPECT_GT(types.count("hetsched_server_frames_rx_total"), 0u);
  for (const auto& [name, n] : types) EXPECT_EQ(n, 1) << name;
}

// The SLO burn counters move in every build: each loop times one inline
// frame in kLatencySamplePeriod, so a one-loop server that decided N
// frames inline sampled exactly N / 1024 of them, and none breaches an
// SLO no request can miss.
TEST(IntrospectLoopback, SloCountersMoveInEveryBuild) {
  static_assert(obs::kLatencySamplePeriod == 1024);
  const Platform pf = geometric_platform(4, 1.5);
  ServerOptions opts;
  opts.shards = 1;
  opts.loops = 1;
  opts.slo_ns = std::uint64_t{1} << 62;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;
  constexpr std::uint64_t kFrames = 5000;
  constexpr std::uint64_t kWindow = 250;  // pipelined admits per flush
  Response r;
  for (std::uint64_t sent = 0; sent < kFrames; sent += kWindow) {
    for (std::uint64_t i = sent; i < sent + kWindow; ++i) {
      client.queue_request(Request::admit(0, i, 1, 1'000'000));
    }
    ASSERT_TRUE(client.flush(2000)) << client.last_error();
    for (std::uint64_t i = 0; i < kWindow; ++i) {
      ASSERT_TRUE(client.recv_response(&r, 2000)) << client.last_error();
      ASSERT_EQ(r.status, Status::kAdmitted);
    }
  }
  // Every admit was sampled (or not) before its answer left, so the
  // exposition already shows the final counts.
  InfoResponse info;
  ASSERT_TRUE(client.call_info(Request::get_stats(kFrames), &info, 2000))
      << client.last_error();
  EXPECT_NE(info.text.find("hetsched_net_slo_ok_total{shard=\"0\"} 4\n"),
            std::string::npos);
  EXPECT_NE(info.text.find("hetsched_net_slo_breach_total{shard=\"0\"} 0\n"),
            std::string::npos);
  server.request_stop();
  server.wait();

  const ServerStats st = server.stats();
  EXPECT_EQ(st.frames_inline, kFrames);
  EXPECT_EQ(server.shard_slo_ok(0) + server.shard_slo_breach(0),
            st.frames_inline / 1024);
  EXPECT_EQ(server.shard_slo_breach(0), 0u);
}

TEST(IntrospectLoopback, GetTracezAnswersSlowestTracesAsJsonl) {
  obs::span_drain();
  obs::set_span_enabled(true);
  const Platform pf = geometric_platform(4, 1.5);
  ServerOptions opts;
  opts.shards = 1;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;
  Response r;
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.call(Request::admit(0, i, 1, 100).traced(100 + i), &r,
                            2000));
    ASSERT_EQ(r.status, Status::kAdmitted);
  }

  InfoResponse info;
  ASSERT_TRUE(client.call_info(Request::get_tracez(9, 3), &info, 2000))
      << client.last_error();
  EXPECT_EQ(info.type, MsgType::kGetTracez);
  EXPECT_EQ(info.request_id, 9u);
  obs::set_span_enabled(false);

#if HETSCHED_METRICS_ENABLED
  // 4 traces exist; --slowest 3 caps the answer at 3 JSONL lines.
  EXPECT_EQ(info.value, 3u);
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < info.text.size()) {
    std::size_t end = info.text.find('\n', start);
    ASSERT_NE(end, std::string::npos);  // body ends with a newline
    const std::string line = info.text.substr(start, end - start);
    EXPECT_EQ(line.rfind("{\"trace_id\":1", 0), 0u) << line;  // ids 100+
    EXPECT_NE(line.find("\"spans\":["), std::string::npos);
    EXPECT_NE(line.find("warm-admit"), std::string::npos);
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 3u);
#else
  EXPECT_EQ(info.value, 0u);  // kill switch: structurally valid, empty
  EXPECT_TRUE(info.text.empty());
#endif

  server.request_stop();
  server.wait();
}

// The flight recorder captures the last decisions per shard and dumps
// them through the global signal-safe path the SIGUSR1 / crash handlers
// use.  In OFF builds the recording macro is empty, so the dump is too.
TEST(IntrospectLoopback, FlightRecorderCapturesServedDecisions) {
  const Platform pf = geometric_platform(4, 1.5);
  ServerOptions opts;
  opts.shards = 1;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;
  Response r;
  ASSERT_TRUE(client.call(Request::admit(0, 1, 1, 10).traced(0xBEEF), &r,
                          2000));
  ASSERT_TRUE(client.call(Request::admit(0, 2, 999, 1000), &r, 2000));
  server.request_stop();
  server.wait();  // writer quiescent; shards (and recorders) still live

  const std::string path =
      testing::TempDir() + "/introspect_flight_dump.jsonl";
  ASSERT_TRUE(obs::flight_dump_path(path.c_str()));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
#if HETSCHED_METRICS_ENABLED
  ASSERT_EQ(lines.size(), 2u);  // one entry per decision, same shard ring
  EXPECT_NE(lines[0].find("\"kind\":1"), std::string::npos);
  EXPECT_NE(lines[0].find("\"trace_id\":48879"), std::string::npos);  // 0xBEEF
  EXPECT_NE(lines[1].find("\"request_id\":2"), std::string::npos);
#else
  EXPECT_TRUE(lines.empty());
#endif
}

// ---------------------------------------------------------------------
// HTTP side port.
// ---------------------------------------------------------------------

// Minimal scrape: one GET, read to EOF (the responder closes).
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::send(fd, req.data(), req.size(), MSG_NOSIGNAL);
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(HttpIntrospectTest, ServesMetricsHealthzAnd404) {
  const Platform pf = geometric_platform(4, 1.5);
  ServerOptions opts;
  opts.shards = 1;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;
  Response r;
  ASSERT_TRUE(client.call(Request::admit(0, 1, 1, 10), &r, 2000));

  HttpIntrospect http(server);
  ASSERT_TRUE(http.start("127.0.0.1:0", &err)) << err;
  ASSERT_NE(http.port(), 0u);

  const std::string metrics = http_get(http.port(), "/metrics");
  EXPECT_EQ(metrics.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.find("hetsched_server_admitted_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("hetsched_net_slo_ok_total{shard=\"0\"}"),
            std::string::npos);

  const std::string health = http_get(http.port(), "/healthz");
  EXPECT_EQ(health.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(health.find("\r\n\r\nok\n"), std::string::npos);

  const std::string missing = http_get(http.port(), "/no-such-endpoint");
  EXPECT_EQ(missing.rfind("HTTP/1.0 404 Not Found\r\n", 0), 0u);

  // A draining server must fail its readiness probe while the side port
  // is still up — that ordering is why the CLI stops the HTTP port last.
  server.request_stop();
  server.wait();
  const std::string stopping = http_get(http.port(), "/healthz");
  EXPECT_EQ(stopping.rfind("HTTP/1.0 503 Service Unavailable\r\n", 0), 0u);

  http.stop();
}

TEST(HttpIntrospectTest, StartFailsCleanlyOnBadAddress) {
  const Platform pf = geometric_platform(2, 1.5);
  Server server(pf, ServerOptions{});
  HttpIntrospect http(server);
  std::string err;
  EXPECT_FALSE(http.start("not-an-address", &err));
  EXPECT_FALSE(err.empty());
  http.stop();  // idempotent on a never-started responder
}

}  // namespace
}  // namespace hetsched::net
