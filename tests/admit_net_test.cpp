// End-to-end coverage of constrained-deadline admission over the wire
// (protocol minor 3) and through the durability plane:
//
//   * framing: the 48-byte deadline payload round-trips, keeps one wire
//     image per request, and every malformed variant decodes kBad;
//   * the headline scenario: a task set the utilization bound rejects but
//     QPA accepts is admitted end-to-end by an `auto` server, rejected by
//     a `bound` server, and answered kBadRequest by a legacy server;
//   * checksum parity: a served constrained trace folds the same decision
//     checksum as the offline tiered controller;
//   * crash safety: fork + SIGKILL mid-stream, recover with the matching
//     admit config, assert the acknowledged prefix bit-exactly against a
//     twin replay (the WAL's per-record tier assertion runs inside), and
//     simulate every recovered machine set miss-free.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "admit/admission_test.h"
#include "core/platform.h"
#include "core/task.h"
#include "gen/churn_gen.h"
#include "io/snapshot_format.h"
#include "io/wal.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/shard_core.h"
#include "net/trace_replay.h"
#include "online/online_partitioner.h"
#include "sim/event_sim.h"
#include "util/rng.h"
#include "task_literals.h"

namespace hetsched::net {
namespace {

using admit::AdmitConfig;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(tag + "-" + std::to_string(::getpid())) {
    std::filesystem::remove_all(path_);
    EXPECT_TRUE(io::ensure_dir(path_));
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string loopback_addr(const Server& server) {
  return "127.0.0.1:" + std::to_string(server.port());
}

AdmitConfig cfg_of(AdmissionKind k) {
  AdmitConfig cfg;
  cfg.test = k;
  return cfg;
}

// Options for recovering a one-shard `dir` into a fresh ShardCore that
// runs `cfg`.
ServerOptions recovery_options(const std::string& dir, const AdmitConfig& cfg) {
  ServerOptions opts;
  opts.admit = cfg;
  opts.wal_dir = dir;
  opts.wal_sync = io::WalSync::kOff;
  return opts;
}

ShardSetRecovery recover_one(ShardCore& core, bool rotate) {
  ShardCore* ptr = &core;
  return recover_shard_set(std::span<ShardCore* const>(&ptr, 1), rotate);
}

// ---------------------------------------------------------------------
// Protocol minor 3 framing
// ---------------------------------------------------------------------

TEST(DeadlineFrame, RoundTripsAndUsesLongPayload) {
  const Request in = Request::admit(3, 99, 4, 10, 9);
  unsigned char buf[kDeadlineFrameSize];
  ASSERT_EQ(encode_request(in, buf), kDeadlineFrameSize);

  Request out;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_request(buf, sizeof buf, &out, &consumed), DecodeResult::kOk);
  EXPECT_EQ(consumed, kDeadlineFrameSize);
  EXPECT_EQ(out.type, MsgType::kAdmit);
  EXPECT_EQ(out.shard, 3);
  EXPECT_EQ(out.request_id, 99u);
  EXPECT_EQ(out.exec(), 4);
  EXPECT_EQ(out.period(), 10);
  EXPECT_EQ(out.deadline_val(), 9);
  EXPECT_EQ(out.trace_id, 0u);  // the trace slot may legitimately be zero

  // Traced + constrained composes: both optional fields ride the 48-byte
  // form and survive the round trip.
  const Request both = Request::admit(0, 7, 2, 8, 5).traced(0xABCD);
  unsigned char buf2[kDeadlineFrameSize];
  ASSERT_EQ(encode_request(both, buf2), kDeadlineFrameSize);
  Request out2;
  ASSERT_EQ(decode_request(buf2, sizeof buf2, &out2, &consumed),
            DecodeResult::kOk);
  EXPECT_EQ(out2.trace_id, 0xABCDu);
  EXPECT_EQ(out2.deadline_val(), 5);
}

TEST(DeadlineFrame, ImplicitAdmitKeepsShortForms) {
  unsigned char buf[kDeadlineFrameSize];
  EXPECT_EQ(encode_request(Request::admit(0, 1, 2, 8), buf), kFrameSize);
  EXPECT_EQ(encode_request(Request::admit(0, 1, 2, 8).traced(5), buf),
            kTracedFrameSize);
  EXPECT_EQ(encode_request(Request::admit(0, 1, 2, 8, 0), buf), kFrameSize);
}

TEST(DeadlineFrame, OneWireImagePerRequest) {
  // decode(encode(r)) re-encodes to the identical bytes — no request has
  // two wire images, so dedup/checksum layers can hash frames directly.
  const Request reqs[] = {
      Request::admit(1, 2, 3, 9),
      Request::admit(1, 2, 3, 9).traced(77),
      Request::admit(1, 2, 3, 9, 6),
      Request::admit(1, 2, 3, 9, 6).traced(77),
  };
  for (const Request& r : reqs) {
    unsigned char a[kDeadlineFrameSize] = {0};
    unsigned char b[kDeadlineFrameSize] = {0};
    const std::size_t na = encode_request(r, a);
    Request mid;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_request(a, na, &mid, &consumed), DecodeResult::kOk);
    ASSERT_EQ(consumed, na);
    ASSERT_EQ(encode_request(mid, b), na);
    EXPECT_EQ(std::memcmp(a, b, na), 0);
  }
}

TEST(DeadlineFrame, MalformedVariantsDecodeBad) {
  unsigned char buf[kDeadlineFrameSize];
  ASSERT_EQ(encode_request(Request::admit(0, 1, 4, 10, 9), buf),
            kDeadlineFrameSize);
  Request out;
  std::size_t consumed = 0;

  // A zero deadline in the 48-byte form is non-canonical (the encoder
  // would have used the short form): kBad.
  unsigned char zero_d[kDeadlineFrameSize];
  std::memcpy(zero_d, buf, sizeof buf);
  std::memset(zero_d + kHeaderSize + 40, 0, 8);
  EXPECT_EQ(decode_request(zero_d, sizeof zero_d, &out, &consumed),
            DecodeResult::kBad);

  // Only kAdmit may use the long form.
  unsigned char wrong_type[kDeadlineFrameSize];
  std::memcpy(wrong_type, buf, sizeof buf);
  wrong_type[kHeaderSize + 1] = static_cast<unsigned char>(MsgType::kDepart);
  EXPECT_EQ(decode_request(wrong_type, sizeof wrong_type, &out, &consumed),
            DecodeResult::kBad);

  // A truncated long frame is kNeedMore at every prefix length.
  for (std::size_t len = 0; len < kDeadlineFrameSize; ++len) {
    EXPECT_EQ(decode_request(buf, len, &out, &consumed), DecodeResult::kNeedMore)
        << "len " << len;
  }
}

// ---------------------------------------------------------------------
// End to end over loopback
// ---------------------------------------------------------------------

// The crafted pair (one unit-speed machine): (5, d=5, p=10) then
// (4, d=9, p=10).  Densities sum to ~1.44 so the bound rejects the second
// task; the approximate DBF overshoots at t=19; exact demand always fits,
// so QPA admits.  `auto` (default band 0.5, margin ~0.44) escalates and
// admits at tier 2.
TEST(AdmitE2E, BoundRejectsWhereAutoAdmitsViaQpa) {
  const Platform pf = Platform::from_speeds({1.0});
  for (const AdmissionKind kind :
       {AdmissionKind::kBound, AdmissionKind::kAuto}) {
    ServerOptions opts;
    opts.shards = 1;
    opts.admit = cfg_of(kind);
    Server server(pf, opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    Client client;
    ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;

    Response r;
    ASSERT_TRUE(client.call(Request::admit(0, 1, 5, 10, 5), &r, 2000));
    ASSERT_EQ(r.status, Status::kAdmitted) << admission_row(kind).name;

    ASSERT_TRUE(client.call(Request::admit(0, 2, 4, 10, 9), &r, 2000));
    if (kind == AdmissionKind::kBound) {
      EXPECT_EQ(r.status, Status::kRejected);
    } else {
      EXPECT_EQ(r.status, Status::kAdmitted);
      EXPECT_EQ(r.machine, 0u);
    }
    server.request_stop();
    server.wait();
  }
}

TEST(AdmitE2E, LegacyServerAnswersDeadlineFramesBadRequest) {
  const Platform pf = Platform::from_speeds({1.0});
  ServerOptions opts;  // admit defaults to no test: legacy
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;

  Response r;
  ASSERT_TRUE(client.call(Request::admit(0, 1, 4, 10, 9), &r, 2000));
  EXPECT_EQ(r.status, Status::kBadRequest);
  // The connection survives, and implicit admits still work.
  ASSERT_TRUE(client.call(Request::admit(0, 2, 4, 10), &r, 2000));
  EXPECT_EQ(r.status, Status::kAdmitted);
  server.request_stop();
  server.wait();
}

TEST(AdmitE2E, ServerValidatesDeadlineRange) {
  const Platform pf = Platform::from_speeds({1.0});
  ServerOptions opts;
  opts.admit = cfg_of(AdmissionKind::kQpa);
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;

  Response r;
  // deadline > period is invalid (constrained model).
  ASSERT_TRUE(client.call(Request::admit(0, 1, 2, 10, 11), &r, 2000));
  EXPECT_EQ(r.status, Status::kBadRequest);
  // d == p is a valid (implicit-equivalent) constrained admit.
  ASSERT_TRUE(client.call(Request::admit(0, 2, 2, 10, 10), &r, 2000));
  EXPECT_EQ(r.status, Status::kAdmitted);
  server.request_stop();
  server.wait();
}

// A WCET the overhead model cannot inflate within int64 is a bad request,
// never an abort: the server takes no decision, logs no WAL record, leaves
// the checksum alone, and keeps serving.
TEST(AdmitE2E, OverheadOverflowAnswersBadRequest) {
  TempDir dir("admit-overflow");
  const Platform pf = Platform::from_speeds({1.0, 1.5});
  AdmitConfig cfg = cfg_of(AdmissionKind::kBound);
  cfg.release_overhead = 1;
  ServerOptions opts;
  opts.admit = cfg;
  opts.wal_dir = dir.path();
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;

  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Response r;
  ASSERT_TRUE(client.call(Request::admit(0, 1, kMax, kMax), &r, 2000));
  EXPECT_EQ(r.status, Status::kBadRequest);
  ASSERT_TRUE(client.call(Request::admit(0, 2, kMax, kMax, kMax - 1), &r,
                          2000));
  EXPECT_EQ(r.status, Status::kBadRequest);
  ASSERT_TRUE(client.call(Request::admit(0, 3, 2, 10), &r, 2000));
  EXPECT_EQ(r.status, Status::kAdmitted);
  server.request_stop();
  server.wait();

  // Only the valid admit reached the controller and the WAL.
  OnlinePartitioner twin(pf, AdmissionKind::kEdf, 1.0,
                         PartitionEngine::kAuto, cfg);
  twin.admit(Task{2, 10});
  EXPECT_EQ(server.shard_core(0).controller().decision_seq(), 1u);
  EXPECT_EQ(server.shard_core(0).controller().decision_checksum(),
            twin.decision_checksum());
  EXPECT_EQ(server.stats().wal_records, 1u);
}

// A served constrained trace folds the same decision checksum as the
// offline tiered controller — the minor-3 path keeps the bit-exactness
// contract the implicit path has.
TEST(AdmitE2E, ConstrainedTraceChecksumMatchesOffline) {
  const Platform pf = Platform::from_speeds({1.0, 1.0});
  const AdmitConfig cfg = cfg_of(AdmissionKind::kAuto);

  Rng rng(0xC0FFEE);
  ChurnSpec spec;
  spec.arrivals = 120;
  spec.constrained_fraction = 0.6;
  const ChurnTrace trace = generate_churn_trace(rng, spec);

  ServerOptions opts;
  opts.shards = 1;
  opts.admit = cfg;
  opts.queue_depth = 256;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;

  const ReplaySummary sum =
      replay_trace_over_client(client, trace, 0, 16, 5000);
  ASSERT_TRUE(sum.ok) << client.last_error();
  ASSERT_EQ(sum.retried, 0u);
  EXPECT_GT(sum.admitted, 0u);

  EXPECT_EQ(sum.checksum, offline_decision_checksum(
                              pf, trace, AdmissionKind::kEdf, 1.0,
                              PartitionEngine::kAuto, cfg));
  // And a different test kind produces a different decision stream for
  // this trace (the QPA-only acceptances move the fold).
  EXPECT_NE(sum.checksum,
            offline_decision_checksum(pf, trace, AdmissionKind::kEdf, 1.0,
                                      PartitionEngine::kAuto,
                                      cfg_of(AdmissionKind::kBound)));
  server.request_stop();
  server.wait();
}

// ---------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------

// The headline acceptance scenario end to end: an `auto` server admits a
// stream that includes the bound-rejected/QPA-accepted pair, is SIGKILLed
// mid-churn, and recovery with the matching admit config lands on a
// bit-identical acknowledged prefix (per-record seq/checksum/tier asserts
// run inside recover_shard_set); the recovered machine sets simulate
// miss-free at the machines' speeds.
TEST(AdmitRecovery, KillNineRecoversConstrainedStreamBitExactly) {
  TempDir dir("admit-kill9");
  const Platform pf = Platform::from_speeds({1.0});
  const AdmitConfig cfg = cfg_of(AdmissionKind::kAuto);

  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(pipefd[0]);
    ServerOptions opts;
    opts.shards = 1;
    opts.admit = cfg;
    opts.wal_dir = dir.path();
    opts.wal_sync = io::WalSync::kBatch;
    opts.snapshot_every = 32;
    Server server(pf, opts);
    std::string err;
    if (!server.start(&err)) ::_exit(2);
    const std::uint16_t port = static_cast<std::uint16_t>(server.port());
    if (::write(pipefd[1], &port, sizeof port) != sizeof port) ::_exit(3);
    ::close(pipefd[1]);
    for (;;) ::pause();
  }
  ::close(pipefd[1]);
  std::uint16_t port = 0;
  ASSERT_EQ(::read(pipefd[0], &port, sizeof port),
            static_cast<ssize_t>(sizeof port));
  ::close(pipefd[0]);

  // The op stream: starts with the crafted tier-2 pair, then mixed
  // implicit/constrained admits and departs of earlier acks.
  struct Op {
    bool is_admit;
    std::int64_t exec, period, deadline;
    std::uint64_t depart_ix;
  };
  std::vector<Op> ops;
  ops.push_back({true, 5, 10, 5, 0});
  ops.push_back({true, 4, 10, 9, 0});
  Rng rng(0xADE14);
  for (int i = 2; i < 300; ++i) {
    if (i >= 10 && rng.next_u64() % 3 == 0) {
      ops.push_back({false, 0, 0, 0,
                     rng.next_u64() % static_cast<std::uint64_t>(i * 3 / 4)});
    } else {
      const std::int64_t period =
          10 + static_cast<std::int64_t>(rng.next_u64() % 90);
      const std::int64_t deadline =
          rng.next_u64() % 4 == 0
              ? 0
              : 2 + static_cast<std::int64_t>(
                        rng.next_u64() %
                        static_cast<std::uint64_t>(period - 1));
      const std::int64_t cap = deadline == 0 ? period / 2 : deadline;
      const std::int64_t exec =
          1 + static_cast<std::int64_t>(
                  rng.next_u64() % static_cast<std::uint64_t>(
                                       std::max<std::int64_t>(1, cap)));
      ops.push_back({true, exec, period, deadline, 0});
    }
  }

  Client client;
  std::string err;
  ASSERT_TRUE(client.connect("127.0.0.1:" + std::to_string(port), 5000, &err))
      << err;
  std::vector<std::uint64_t> admit_ids;
  std::size_t acked = 0;
  bool pair_admitted = false;
  for (const Op& op : ops) {
    Response r;
    const Request req =
        op.is_admit
            ? Request::admit(0, acked, op.exec, op.period, op.deadline)
            : Request::depart(0, acked,
                              admit_ids[op.depart_ix %
                                        std::max<std::size_t>(
                                            1, admit_ids.size())]);
    if (!client.call(req, &r, 5000)) break;  // killed under us — fine
    ++acked;
    if (op.is_admit && r.status == Status::kAdmitted) {
      admit_ids.push_back(r.task_id);
    } else if (op.is_admit) {
      admit_ids.push_back(kInvalidOnlineTaskId);
    }
    if (acked == 2) pair_admitted = r.status == Status::kAdmitted;
    if (acked == 200) ::kill(child, SIGKILL);
  }
  ::kill(child, SIGKILL);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_GE(acked, 200u);
  // The QPA-only admission really happened on the live server.
  EXPECT_TRUE(pair_admitted);

  // Recover with the MATCHING admit config; per-record (seq, checksum,
  // tier) parity is asserted inside recover_shard_set.
  ShardCore core(pf, recovery_options(dir.path(), cfg), 0);
  const ShardSetRecovery rec = recover_one(core, /*rotate=*/false);
  ASSERT_TRUE(rec.ok) << rec.error;
  const OnlinePartitioner& recovered = core.controller();

  const std::uint64_t n = recovered.decision_seq();
  ASSERT_GE(n, acked);  // WAL-before-reply: no acknowledged op is lost
  ASSERT_LE(n, ops.size());

  // Twin-replay the first n ops offline and demand bit-exact agreement.
  OnlinePartitioner twin(pf, AdmissionKind::kEdf, 1.0, PartitionEngine::kAuto,
                         cfg);
  std::vector<std::uint64_t> twin_ids;
  std::size_t live_count = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Op& op = ops[i];
    if (op.is_admit) {
      const AdmitDecision d =
          twin.admit(Task{op.exec, op.period, op.deadline});
      twin_ids.push_back(d.admitted ? d.id : kInvalidOnlineTaskId);
    } else {
      const std::uint64_t id =
          twin_ids[op.depart_ix % std::max<std::size_t>(1, twin_ids.size())];
      twin.depart(id);
    }
  }
  live_count = twin.resident_count();
  EXPECT_EQ(recovered.decision_checksum(), twin.decision_checksum());
  EXPECT_EQ(recovered.resident_count(), live_count);

  // The recovered resident sets are genuinely schedulable: simulate each
  // machine's inflated tasks at its speed and demand zero misses.
  for (std::size_t j = 0; j < pf.size(); ++j) {
    std::vector<Task> cts;
    for (const Task& t : recovered.machine_tasks(j)) {
      cts.push_back(*admit::inflate(cfg, t));
    }
    if (cts.empty()) continue;
    SimLimits limits;
    limits.max_jobs = 200'000;  // periods are arbitrary: cap, don't prove
    const SimOutcome out = simulate_uniproc(
        cts, pf.speed_exact(j), SchedPolicy::kEdf, limits);
    EXPECT_TRUE(out.schedulable) << "machine " << j;
  }
}

// Recovery with a DIFFERENT admit config than the WAL was written under
// must fail loudly (verdicts or tiers disagree), not silently diverge.
TEST(AdmitRecovery, ConfigDriftFailsVerification) {
  TempDir dir("admit-drift");
  const Platform pf = Platform::from_speeds({1.0});

  {
    ServerOptions opts;
    opts.shards = 1;
    opts.admit = cfg_of(AdmissionKind::kQpa);
    opts.wal_dir = dir.path();
    opts.wal_sync = io::WalSync::kOff;
    opts.snapshot_every = 0;  // keep every decision in the WAL tail
    Server server(pf, opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    Client client;
    ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;
    Response r;
    // The tier-2 pair: under kQpa the second admit succeeds; a bound-only
    // replay of the same WAL must disagree.
    ASSERT_TRUE(client.call(Request::admit(0, 1, 5, 10, 5), &r, 2000));
    ASSERT_EQ(r.status, Status::kAdmitted);
    ASSERT_TRUE(client.call(Request::admit(0, 2, 4, 10, 9), &r, 2000));
    ASSERT_EQ(r.status, Status::kAdmitted);
    server.request_stop();
    server.wait();
  }

  ShardCore wrong(pf, recovery_options(dir.path(), cfg_of(AdmissionKind::kBound)),
                  0);
  const ShardSetRecovery rec = recover_one(wrong, /*rotate=*/false);
  EXPECT_FALSE(rec.ok);
  EXPECT_FALSE(rec.error.empty());

  // The matching config replays the same directory cleanly — and rotates,
  // so from here on the state lives only in the snapshot.
  ShardCore right(pf, recovery_options(dir.path(), cfg_of(AdmissionKind::kQpa)),
                  0);
  const ShardSetRecovery ok = recover_one(right, /*rotate=*/true);
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(right.controller().resident_count(), 2u);

  // Post-rotation drift: the WAL is truncated and the snapshot is the
  // only copy of the state.  A mismatched config must still fail loudly —
  // skipping the snapshot like a corrupt file would "recover" an empty
  // shard with exit success and silently drop both residents.
  ShardCore drifted(
      pf, recovery_options(dir.path(), cfg_of(AdmissionKind::kBound)), 0);
  const ShardSetRecovery snap_drift = recover_one(drifted, /*rotate=*/false);
  EXPECT_FALSE(snap_drift.ok);
  EXPECT_NE(snap_drift.error.find("differently configured"), std::string::npos)
      << snap_drift.error;
  EXPECT_EQ(drifted.controller().resident_count(), 0u);

  // And the matching config restores from the rotated snapshot alone.
  ShardCore again(pf, recovery_options(dir.path(), cfg_of(AdmissionKind::kQpa)),
                  0);
  const ShardSetRecovery from_snap = recover_one(again, /*rotate=*/false);
  ASSERT_TRUE(from_snap.ok) << from_snap.error;
  EXPECT_EQ(again.controller().resident_count(), 2u);
  EXPECT_EQ(again.controller().decision_checksum(),
            right.controller().decision_checksum());
}

}  // namespace
}  // namespace hetsched::net
