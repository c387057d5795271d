// Tests for the durability plane: WAL framing and torn-tail truncation,
// snapshot files with corrupt-newest fallback, controller snapshot
// round-trips under churn (both engines), crash recovery via
// recover_shard_set into fresh ShardCores — including a fork+SIGKILL crash whose recovered
// state is checked bit-exactly against a twin replay — and the live
// split/merge resize protocol.  `ctest -L dur` is the CI gate.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "gen/churn_gen.h"
#include "gen/platform_gen.h"
#include "io/snapshot_format.h"
#include "io/wal.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/shard_core.h"
#include "net/trace_replay.h"
#include "online/online_partitioner.h"
#include "util/rng.h"

namespace hetsched::net {
namespace {

// Fresh directory under the test's cwd (the build tree), removed on
// destruction — WAL/snapshot files never leak between tests or runs.
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

ChurnTrace make_trace(std::uint64_t seed, std::size_t arrivals) {
  Rng rng(seed);
  ChurnSpec spec;
  spec.arrivals = arrivals;
  return generate_churn_trace(rng, spec);
}

// Options for a one-shard recovery of `dir` into a fresh ShardCore: the
// EDF controller the servers below run, the WAL left closed.
ServerOptions recovery_options(const std::string& dir) {
  ServerOptions opts;
  opts.wal_dir = dir;
  opts.wal_sync = io::WalSync::kOff;
  return opts;
}

ShardSetRecovery recover_one(ShardCore& core) {
  ShardCore* ptr = &core;
  return recover_shard_set(std::span<ShardCore* const>(&ptr, 1),
                           /*rotate=*/false);
}

// Applies a churn trace to a controller the way the server does: admit on
// arrival (remembering the id), depart on departure of an admitted task.
void apply_trace(OnlinePartitioner& c, const ChurnTrace& trace) {
  std::vector<OnlineTaskId> ids(trace.arrivals, kInvalidOnlineTaskId);
  for (const ChurnEvent& ev : trace.events) {
    if (ev.kind == ChurnEvent::Kind::kArrival) {
      const AdmitDecision d = c.admit(ev.params);
      if (d.admitted) ids[ev.task] = d.id;
    } else if (ids[ev.task] != kInvalidOnlineTaskId) {
      c.depart(ids[ev.task]);
    }
  }
}

// ---------------------------------------------------------------------
// WAL framing
// ---------------------------------------------------------------------

TEST(Wal, RoundTripsEveryRecordType) {
  TempDir dir("durtest-wal-rt");
  const std::string path = io::wal_path(dir.path(), 0);

  io::WalWriter w;
  ASSERT_TRUE(w.open(path, /*epoch=*/3, io::WalSync::kOff));
  w.append_admit(5, 20, 1, 0x1111);
  w.append_depart(42, 2, 0x2222);
  w.append_rebalance(3, 0x3333);
  const io::WalMovedTask moved[] = {{7, 1, 9, 30}, {8, 2, 4, 50}};
  w.append_move(io::WalRecordType::kMoveOut, /*peer=*/5,
                io::kWalFlagDeactivate, moved, 5, 0x4444);
  w.append_move(io::WalRecordType::kMoveIn, /*peer=*/0, 0, {}, 6, 0x5555);
  ASSERT_TRUE(w.commit(/*force_sync=*/true));
  EXPECT_EQ(w.records_appended(), 5u);
  w.close();

  std::vector<io::WalRecord> recs;
  std::uint64_t truncated = ~0ULL;
  std::string err;
  ASSERT_TRUE(io::wal_load(path, &recs, &truncated, &err)) << err;
  EXPECT_EQ(truncated, 0u);
  ASSERT_EQ(recs.size(), 5u);

  EXPECT_EQ(recs[0].type, io::WalRecordType::kAdmit);
  EXPECT_EQ(recs[0].epoch, 3u);
  EXPECT_EQ(recs[0].exec, 5);
  EXPECT_EQ(recs[0].period, 20);
  EXPECT_EQ(recs[0].seq, 1u);
  EXPECT_EQ(recs[0].checksum, 0x1111u);

  EXPECT_EQ(recs[1].type, io::WalRecordType::kDepart);
  EXPECT_EQ(recs[1].task_id, 42u);

  EXPECT_EQ(recs[2].type, io::WalRecordType::kRebalance);
  EXPECT_EQ(recs[2].seq, 3u);

  EXPECT_EQ(recs[3].type, io::WalRecordType::kMoveOut);
  EXPECT_EQ(recs[3].flags, io::kWalFlagDeactivate);
  EXPECT_EQ(recs[3].peer, 5u);
  ASSERT_EQ(recs[3].moved.size(), 2u);
  EXPECT_EQ(recs[3].moved[0].old_id, 7u);
  EXPECT_EQ(recs[3].moved[0].new_id, 1u);
  EXPECT_EQ(recs[3].moved[1].exec, 4);
  EXPECT_EQ(recs[3].moved[1].period, 50);

  EXPECT_EQ(recs[4].type, io::WalRecordType::kMoveIn);
  EXPECT_TRUE(recs[4].moved.empty());
}

TEST(Wal, TornTailIsTruncatedInPlace) {
  TempDir dir("durtest-wal-torn");
  const std::string path = io::wal_path(dir.path(), 0);

  io::WalWriter w;
  ASSERT_TRUE(w.open(path, 1, io::WalSync::kOff));
  for (int i = 0; i < 10; ++i) {
    w.append_admit(i + 1, 100, static_cast<std::uint64_t>(i + 1),
                   static_cast<std::uint64_t>(7 * i));
  }
  ASSERT_TRUE(w.commit());
  w.close();

  // A crash mid-write leaves a partial frame: half a header plus garbage.
  {
    const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
    ASSERT_GE(fd, 0);
    const unsigned char tear[] = {0x20, 0x00, 0x00, 0x00, 0xAB, 0xCD};
    ASSERT_EQ(::write(fd, tear, sizeof tear),
              static_cast<ssize_t>(sizeof tear));
    ::close(fd);
  }

  std::vector<io::WalRecord> recs;
  std::uint64_t truncated = 0;
  std::string err;
  ASSERT_TRUE(io::wal_load(path, &recs, &truncated, &err)) << err;
  EXPECT_EQ(recs.size(), 10u);
  EXPECT_EQ(truncated, 6u);

  // The load repaired the file: a second load sees a clean log.
  recs.clear();
  ASSERT_TRUE(io::wal_load(path, &recs, &truncated, &err)) << err;
  EXPECT_EQ(recs.size(), 10u);
  EXPECT_EQ(truncated, 0u);
}

TEST(Wal, CorruptTailRecordIsDiscarded) {
  TempDir dir("durtest-wal-crc");
  const std::string path = io::wal_path(dir.path(), 0);

  io::WalWriter w;
  ASSERT_TRUE(w.open(path, 1, io::WalSync::kOff));
  w.append_admit(1, 10, 1, 1);
  w.append_admit(2, 10, 2, 2);
  ASSERT_TRUE(w.commit());
  w.close();

  // Flip one byte in the last record's payload: CRC must catch it.
  {
    const int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    const off_t size = ::lseek(fd, 0, SEEK_END);
    ASSERT_GT(size, 0);
    unsigned char b = 0;
    ASSERT_EQ(::pread(fd, &b, 1, size - 3), 1);
    b ^= 0xFF;
    ASSERT_EQ(::pwrite(fd, &b, 1, size - 3), 1);
    ::close(fd);
  }

  std::vector<io::WalRecord> recs;
  std::uint64_t truncated = 0;
  std::string err;
  ASSERT_TRUE(io::wal_load(path, &recs, &truncated, &err)) << err;
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].seq, 1u);
  EXPECT_GT(truncated, 0u);
}

TEST(Wal, MissingFileIsAnEmptyLog) {
  std::vector<io::WalRecord> recs;
  std::uint64_t truncated = 9;
  std::string err;
  ASSERT_TRUE(io::wal_load("durtest-no-such-dir/shard-000.wal", &recs,
                           &truncated, &err))
      << err;
  EXPECT_TRUE(recs.empty());
  EXPECT_EQ(truncated, 0u);
}

TEST(Wal, TruncateRestartEmptiesAndRestamps) {
  TempDir dir("durtest-wal-rot");
  const std::string path = io::wal_path(dir.path(), 0);

  io::WalWriter w;
  ASSERT_TRUE(w.open(path, 1, io::WalSync::kOff));
  w.append_admit(1, 10, 1, 1);
  ASSERT_TRUE(w.commit());
  ASSERT_TRUE(w.truncate_restart(/*epoch=*/2));
  w.append_depart(1, 2, 2);
  ASSERT_TRUE(w.commit());
  w.close();

  std::vector<io::WalRecord> recs;
  std::string err;
  ASSERT_TRUE(io::wal_load(path, &recs, nullptr, &err)) << err;
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].type, io::WalRecordType::kDepart);
  EXPECT_EQ(recs[0].epoch, 2u);
}

// ---------------------------------------------------------------------
// snapshot files
// ---------------------------------------------------------------------

TEST(SnapshotFile, RoundTripsMetaAndPayload) {
  TempDir dir("durtest-snap-rt");

  io::SnapshotFileMeta meta;
  meta.shard = 7;
  meta.epoch = 2;
  meta.decision_seq = 123;
  meta.decision_checksum = 0xFEEDFACE;
  meta.active = false;
  meta.forwards = {{11, 1, 5}, {12, 3, 0}};
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};

  std::string err;
  const std::string path =
      io::write_snapshot_file(dir.path(), meta, payload, /*keep=*/2,
                              /*durable=*/true, &err);
  ASSERT_FALSE(path.empty()) << err;

  io::SnapshotFileMeta got;
  std::vector<std::uint8_t> got_payload;
  ASSERT_TRUE(io::read_snapshot_file(path, &got, &got_payload, &err)) << err;
  EXPECT_EQ(got.shard, 7u);
  EXPECT_EQ(got.epoch, 2u);
  EXPECT_EQ(got.decision_seq, 123u);
  EXPECT_EQ(got.decision_checksum, 0xFEEDFACEu);
  EXPECT_FALSE(got.active);
  ASSERT_EQ(got.forwards.size(), 2u);
  EXPECT_EQ(got.forwards[0].old_id, 11u);
  EXPECT_EQ(got.forwards[0].peer_shard, 1u);
  EXPECT_EQ(got.forwards[1].new_id, 0u);
  EXPECT_EQ(got_payload, payload);
}

TEST(SnapshotFile, NewestFirstListingAndPruning) {
  TempDir dir("durtest-snap-list");
  io::SnapshotFileMeta meta;
  meta.shard = 0;
  std::string err;
  for (std::uint64_t seq : {10u, 30u, 20u}) {
    meta.decision_seq = seq;
    ASSERT_FALSE(
        io::write_snapshot_file(dir.path(), meta, {}, /*keep=*/2,
                                /*durable=*/true, &err)
            .empty())
        << err;
  }
  // keep=2 pruned down to the two newest after the last write.
  const std::vector<std::string> snaps = io::list_snapshots(dir.path(), 0);
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0], io::snapshot_path(dir.path(), 0, 30));
  EXPECT_EQ(snaps[1], io::snapshot_path(dir.path(), 0, 20));
}

TEST(SnapshotFile, CorruptFileFailsValidationCleanly) {
  TempDir dir("durtest-snap-bad");
  io::SnapshotFileMeta meta;
  meta.decision_seq = 5;
  std::string err;
  const std::string path = io::write_snapshot_file(
      dir.path(), meta, std::vector<std::uint8_t>(64, 0xAA), 2,
      /*durable=*/false, &err);
  ASSERT_FALSE(path.empty()) << err;

  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  unsigned char b = 0;
  ASSERT_EQ(::pread(fd, &b, 1, 40), 1);
  b ^= 0x01;
  ASSERT_EQ(::pwrite(fd, &b, 1, 40), 1);
  ::close(fd);

  io::SnapshotFileMeta got;
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(io::read_snapshot_file(path, &got, &payload, &err));
}

TEST(SnapshotFile, DiscoverShardCountSpansWalsAndSnapshots) {
  TempDir dir("durtest-discover");
  EXPECT_EQ(io::discover_shard_count(dir.path()), 0u);
  EXPECT_EQ(io::discover_shard_count("durtest-no-such-dir"), 0u);

  io::WalWriter w;
  ASSERT_TRUE(w.open(io::wal_path(dir.path(), 2), 1, io::WalSync::kOff));
  w.close();
  io::SnapshotFileMeta meta;
  meta.shard = 4;
  std::string err;
  ASSERT_FALSE(
      io::write_snapshot_file(dir.path(), meta, {}, 2, /*durable=*/true, &err)
          .empty());
  EXPECT_EQ(io::discover_shard_count(dir.path()), 5u);
}

// ---------------------------------------------------------------------
// controller snapshot round-trips (both engines)
// ---------------------------------------------------------------------

class SnapshotChurn : public ::testing::TestWithParam<PartitionEngine> {};

// A controller serialized mid-churn and restored into a fresh instance
// stays on the same decision stream through another thousand operations —
// seq and checksum compared after every event.
TEST_P(SnapshotChurn, RestoredTwinTracksBitExactlyUnderMoreChurn) {
  const Platform pf = geometric_platform(4, 1.5);
  OnlinePartitioner a(pf, AdmissionKind::kEdf, 1.0, GetParam());
  apply_trace(a, make_trace(101, 400));

  const std::vector<std::uint8_t> bytes = a.serialize_snapshot();
  OnlinePartitioner b(pf, AdmissionKind::kEdf, 1.0, GetParam());
  ASSERT_TRUE(b.restore_bytes(bytes.data(), bytes.size()));
  ASSERT_EQ(b.decision_seq(), a.decision_seq());
  ASSERT_EQ(b.decision_checksum(), a.decision_checksum());

  const ChurnTrace more = make_trace(202, 500);
  std::vector<OnlineTaskId> ids_a(more.arrivals, kInvalidOnlineTaskId);
  std::vector<OnlineTaskId> ids_b(more.arrivals, kInvalidOnlineTaskId);
  for (const ChurnEvent& ev : more.events) {
    if (ev.kind == ChurnEvent::Kind::kArrival) {
      const AdmitDecision da = a.admit(ev.params);
      const AdmitDecision db = b.admit(ev.params);
      ASSERT_EQ(da.admitted, db.admitted);
      ASSERT_EQ(da.id, db.id);
      ASSERT_EQ(da.machine, db.machine);
      if (da.admitted) {
        ids_a[ev.task] = da.id;
        ids_b[ev.task] = db.id;
      }
    } else if (ids_a[ev.task] != kInvalidOnlineTaskId) {
      ASSERT_EQ(a.depart(ids_a[ev.task]), b.depart(ids_b[ev.task]));
    }
    ASSERT_EQ(a.decision_seq(), b.decision_seq());
    ASSERT_EQ(a.decision_checksum(), b.decision_checksum());
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, SnapshotChurn,
                         ::testing::Values(PartitionEngine::kNaive,
                                           PartitionEngine::kSegmentTree),
                         [](const auto& pinfo) {
                           return pinfo.param == PartitionEngine::kNaive
                                      ? "Naive"
                                      : "SegmentTree";
                         });

TEST(SnapshotChurn, RestoreRejectsMachineCountMismatch) {
  OnlinePartitioner four(geometric_platform(4, 1.5), AdmissionKind::kEdf,
                         1.0);
  apply_trace(four, make_trace(5, 50));
  const OnlinePartitioner::Snapshot snap = four.snapshot();

  OnlinePartitioner three(geometric_platform(3, 1.5), AdmissionKind::kEdf,
                          1.0);
  const std::uint64_t seq_before = three.decision_seq();
  EXPECT_FALSE(three.restore(snap));
  EXPECT_EQ(three.decision_seq(), seq_before);  // rejected, untouched

  const std::vector<std::uint8_t> bytes = four.serialize_snapshot();
  EXPECT_FALSE(three.restore_bytes(bytes.data(), bytes.size()));
}

TEST(SnapshotChurn, RestoreBytesRejectsCorruptPayload) {
  const Platform pf = geometric_platform(4, 1.5);
  OnlinePartitioner a(pf, AdmissionKind::kEdf, 1.0);
  apply_trace(a, make_trace(6, 80));

  std::vector<std::uint8_t> bytes = a.serialize_snapshot();
  ASSERT_GT(bytes.size(), 16u);

  OnlinePartitioner b(pf, AdmissionKind::kEdf, 1.0);
  EXPECT_FALSE(b.restore_bytes(bytes.data(), bytes.size() - 1));  // short
  EXPECT_FALSE(b.restore_bytes(bytes.data(), 7));  // truncated header

  bytes[0] ^= 0x80;  // broken magic
  EXPECT_FALSE(b.restore_bytes(bytes.data(), bytes.size()));
  bytes[0] ^= 0x80;
  bytes[8] ^= 0x01;  // wrong admission kind
  EXPECT_FALSE(b.restore_bytes(bytes.data(), bytes.size()));

  // A rejected restore leaves the controller on its own stream.
  EXPECT_EQ(b.decision_seq(), 0u);
}

// ---------------------------------------------------------------------
// resize protocol frames
// ---------------------------------------------------------------------

TEST(DurProtocol, ResizeRequestsRoundTrip) {
  const Request cases[] = {
      Request::split(3, 90),
      Request::merge(5, 2, 91),
  };
  for (const Request& r : cases) {
    unsigned char buf[kFrameSize];
    ASSERT_EQ(encode_request(r, buf), kFrameSize);
    Request out;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_request(buf, kFrameSize, &out, &consumed),
              DecodeResult::kOk);
    EXPECT_EQ(out.type, r.type);
    EXPECT_EQ(out.shard, r.shard);
    EXPECT_EQ(out.request_id, r.request_id);
    EXPECT_EQ(out.a, r.a);
  }
  EXPECT_EQ(Request::merge(5, 2, 91).merge_target(), 2u);
}

TEST(DurProtocol, ResizeStatusesRoundTrip) {
  for (const Status st : {Status::kResized, Status::kResizeFailed}) {
    Response r;
    r.type = MsgType::kSplitShard;
    r.status = st;
    r.machine = 2;       // target shard
    r.task_id = 17;      // tenants migrated
    r.request_id = 1234;
    unsigned char buf[kFrameSize];
    ASSERT_EQ(encode_response(r, buf), kFrameSize);
    Response out;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_response(buf, kFrameSize, &out, &consumed),
              DecodeResult::kOk);
    EXPECT_EQ(out.status, st);
    EXPECT_EQ(out.machine, 2u);
    EXPECT_EQ(out.task_id, 17u);
  }
}

// ---------------------------------------------------------------------
// live split / merge
// ---------------------------------------------------------------------

TEST(Resize, SplitMovesTenantsAndForwardsDeparts) {
  const Platform pf = geometric_platform(4, 1.5);
  ServerOptions opts;
  opts.shards = 1;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 12; ++i) {
    Response r;
    ASSERT_TRUE(client.call(Request::admit(0, 100u + static_cast<unsigned>(i), 1, 50), &r, 2000));
    ASSERT_EQ(r.status, Status::kAdmitted);
    ids.push_back(r.task_id);
  }

  Response r;
  ASSERT_TRUE(client.call(Request::split(0, 200), &r, 2000));
  ASSERT_EQ(r.status, Status::kResized);
  EXPECT_EQ(r.machine, 1u);     // the new shard's index
  EXPECT_EQ(r.task_id, 6u);     // half the tenants moved
  EXPECT_EQ(server.shard_count(), 2u);

  // Every pre-split id still departs through shard 0: moved tenants are
  // forwarded to the new shard, the rest depart locally.
  for (std::uint64_t id : ids) {
    ASSERT_TRUE(client.call(Request::depart(0, 300, id), &r, 2000));
    EXPECT_EQ(r.status, Status::kDeparted) << "task " << id;
  }
  server.request_stop();
  server.wait();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.resizes, 1u);
  EXPECT_EQ(s.forwarded, 6u);
  EXPECT_EQ(s.departed, 12u);
}

TEST(Resize, MergeRetiresSourceShard) {
  const Platform pf = geometric_platform(4, 1.5);
  ServerOptions opts;
  opts.shards = 2;
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    Response r;
    ASSERT_TRUE(client.call(Request::admit(1, 100u + static_cast<unsigned>(i), 1, 40), &r, 2000));
    ASSERT_EQ(r.status, Status::kAdmitted);
    ids.push_back(r.task_id);
  }

  Response r;
  ASSERT_TRUE(client.call(Request::merge(1, 0, 200), &r, 2000));
  ASSERT_EQ(r.status, Status::kResized);
  EXPECT_EQ(r.machine, 0u);
  EXPECT_EQ(r.task_id, 5u);

  // The retired shard rejects new admits but still forwards departs.
  ASSERT_TRUE(client.call(Request::admit(1, 300, 1, 40), &r, 2000));
  EXPECT_EQ(r.status, Status::kBadShard);
  for (std::uint64_t id : ids) {
    ASSERT_TRUE(client.call(Request::depart(1, 400, id), &r, 2000));
    EXPECT_EQ(r.status, Status::kDeparted);
  }

  // Self-merge and out-of-range targets are rejected without mutation.
  ASSERT_TRUE(client.call(Request::merge(0, 0, 500), &r, 2000));
  EXPECT_EQ(r.status, Status::kBadShard);
  ASSERT_TRUE(client.call(Request::merge(0, 9, 501), &r, 2000));
  EXPECT_EQ(r.status, Status::kBadShard);

  server.request_stop();
  server.wait();
  EXPECT_FALSE(server.shard_core(1).active());
  EXPECT_TRUE(server.shard_core(0).active());
  EXPECT_EQ(server.stats().resizes, 1u);
}

// ---------------------------------------------------------------------
// recovery
// ---------------------------------------------------------------------

// Served churn + a split + a merge, graceful stop, then recover_shard_set
// into fresh shard cores: every shard's (seq, checksum, active) must equal
// the live server's final state — through mid-run snapshots (tiny
// snapshot_every) AND WAL tail replay.
TEST(Recovery, GracefulStopRecoversBitExactState) {
  TempDir dir("durtest-graceful");
  const Platform pf = geometric_platform(4, 1.5);

  ServerOptions opts;
  opts.shards = 2;
  opts.wal_dir = dir.path();
  opts.wal_sync = io::WalSync::kOff;  // durability knob, not a format knob
  opts.snapshot_every = 16;           // force mid-run snapshot + tail replay
  Server server(pf, opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;
  const ChurnTrace traces[2] = {make_trace(31, 120), make_trace(32, 120)};
  for (int sidx = 0; sidx < 2; ++sidx) {
    const ReplaySummary sum = replay_trace_over_client(
        client, traces[sidx], static_cast<std::uint16_t>(sidx), 32, 5000);
    ASSERT_TRUE(sum.ok) << client.last_error();
  }
  Response r;
  ASSERT_TRUE(client.call(Request::split(0, 900), &r, 5000));
  ASSERT_EQ(r.status, Status::kResized);
  ASSERT_TRUE(client.call(Request::merge(1, 2, 901), &r, 5000));
  ASSERT_EQ(r.status, Status::kResized);
  // More traffic after the resizes so the WAL tail crosses them.
  const ReplaySummary tail =
      replay_trace_over_client(client, make_trace(33, 60), 0, 32, 5000);
  ASSERT_TRUE(tail.ok) << client.last_error();

  server.request_stop();
  server.wait();
  const std::size_t n = server.shard_count();
  ASSERT_EQ(n, 3u);

  std::vector<std::unique_ptr<ShardCore>> fresh;
  std::vector<ShardCore*> ptrs;
  for (std::size_t i = 0; i < n; ++i) {
    fresh.push_back(
        std::make_unique<ShardCore>(pf, opts, static_cast<std::uint32_t>(i)));
    ptrs.push_back(fresh.back().get());
  }
  const ShardSetRecovery rec = recover_shard_set(ptrs, /*rotate=*/false);
  ASSERT_TRUE(rec.ok) << rec.error;
  ASSERT_EQ(rec.shards.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const ShardCore& live = server.shard_core(i);
    EXPECT_EQ(fresh[i]->controller().decision_seq(),
              live.controller().decision_seq())
        << "shard " << i;
    EXPECT_EQ(fresh[i]->controller().decision_checksum(),
              live.controller().decision_checksum())
        << "shard " << i;
    EXPECT_EQ(fresh[i]->active(), live.active()) << "shard " << i;
    EXPECT_EQ(fresh[i]->controller().resident_count(),
              live.controller().resident_count())
        << "shard " << i;
  }
  // Mid-run snapshots actually happened: some shard recovered from a
  // non-zero cut instead of replaying from the beginning of time.
  bool any_snapshot_base = false;
  for (const ShardRecoveryInfo& info : rec.shards) {
    if (info.snapshot_seq > 0) any_snapshot_base = true;
  }
  EXPECT_TRUE(any_snapshot_base);
}

// A server re-start over the same --wal-dir adopts the recovered state:
// the same ids keep departing, the split-grown shard count persists.
TEST(Recovery, RestartAdoptsRecoveredShards) {
  TempDir dir("durtest-restart");
  const Platform pf = geometric_platform(4, 1.5);
  ServerOptions opts;
  opts.shards = 1;
  opts.wal_dir = dir.path();
  opts.wal_sync = io::WalSync::kOff;

  std::vector<std::uint64_t> ids;
  {
    Server server(pf, opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    Client client;
    ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;
    Response r;
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(client.call(Request::admit(0, 10u + static_cast<unsigned>(i), 1, 30), &r, 2000));
      ASSERT_EQ(r.status, Status::kAdmitted);
      ids.push_back(r.task_id);
    }
    ASSERT_TRUE(client.call(Request::split(0, 50), &r, 2000));
    ASSERT_EQ(r.status, Status::kResized);
    server.request_stop();
    server.wait();
  }

  Server server(pf, opts);  // options still say 1 shard...
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  EXPECT_EQ(server.shard_count(), 2u);  // ...the directory says 2
  EXPECT_GT(server.stats().recovered, 0u);
  Client client;
  ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;
  Response r;
  for (std::uint64_t id : ids) {
    ASSERT_TRUE(client.call(Request::depart(0, 60, id), &r, 2000));
    EXPECT_EQ(r.status, Status::kDeparted) << "task " << id;
  }
  server.request_stop();
  server.wait();
}

// The crash test: a forked child serves with a WAL, the parent drives a
// known op stream over loopback and SIGKILLs the child mid-churn.  The
// recovered controller must sit exactly at some prefix of that stream —
// at least every acknowledged op (WAL-before-reply) — and a twin replay
// of that prefix must reproduce seq, checksum, and the resident set
// bit-exactly: no lost acks, no double admits.
TEST(Recovery, KillNineRecoversAcknowledgedPrefixBitExactly) {
  TempDir dir("durtest-kill9");
  const Platform pf = geometric_platform(4, 1.5);

  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: serve until killed.  _exit on any failure — no gtest teardown.
    ::close(pipefd[0]);
    ServerOptions opts;
    opts.shards = 1;
    opts.wal_dir = dir.path();
    opts.wal_sync = io::WalSync::kBatch;
    opts.snapshot_every = 64;
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

  // The op stream, known to the parent: admits with varied params and
  // departs of earlier acks.  One connection, one shard — the processing
  // order is the send order, so the recovered state must be a prefix.
  struct Op {
    bool is_admit;
    std::int64_t exec, period;  // admit
    std::uint64_t depart_ix;    // index into acked admit ids
  };
  std::vector<Op> ops;
  Rng rng(0xD00D);
  for (int i = 0; i < 400; ++i) {
    if (i >= 10 && rng.next_u64() % 3 == 0) {
      ops.push_back({false, 0, 0, rng.next_u64() %
                                      static_cast<std::uint64_t>(i * 3 / 4)});
    } else {
      const std::int64_t period =
          10 + static_cast<std::int64_t>(rng.next_u64() % 90);
      const std::int64_t exec =
          1 + static_cast<std::int64_t>(rng.next_u64() %
                                        static_cast<std::uint64_t>(period / 2));
      ops.push_back({true, exec, period, 0});
    }
  }

  Client client;
  std::string err;
  ASSERT_TRUE(client.connect("127.0.0.1:" + std::to_string(port), 5000,
                             &err))
      << err;
  std::vector<std::uint64_t> admit_ids;  // id per acked admit, in order
  std::size_t acked = 0;
  for (const Op& op : ops) {
    Response r;
    const Request req =
        op.is_admit
            ? Request::admit(0, acked, op.exec, op.period)
            : Request::depart(
                  0, acked,
                  admit_ids[op.depart_ix % std::max<std::size_t>(
                                               1, admit_ids.size())]);
    if (!client.call(req, &r, 5000)) break;  // killed under us — fine
    ++acked;
    if (op.is_admit && r.status == Status::kAdmitted) {
      admit_ids.push_back(r.task_id);
    } else if (op.is_admit) {
      admit_ids.push_back(kInvalidOnlineTaskId);  // keep indices aligned
    }
    if (acked == 250) ::kill(child, SIGKILL);  // mid-churn, no drain
  }
  ::kill(child, SIGKILL);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_GE(acked, 250u);

  // Recover.  recover_shard_set asserts per-record (seq, checksum) parity
  // internally; ok=true already proves the replay was bit-exact.
  ShardCore core(pf, recovery_options(dir.path()), 0);
  const ShardSetRecovery rec = recover_one(core);
  ASSERT_TRUE(rec.ok) << rec.error;
  const OnlinePartitioner& recovered = core.controller();

  // WAL-before-reply: nothing acknowledged may be lost.
  const std::uint64_t n = recovered.decision_seq();
  ASSERT_GE(n, acked);
  ASSERT_LE(n, ops.size());

  // Twin-replay the first n ops and demand bit-exact agreement.
  OnlinePartitioner twin(pf, AdmissionKind::kEdf, 1.0);
  std::vector<std::uint64_t> twin_ids;
  std::unordered_set<std::uint64_t> live;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Op& op = ops[i];
    if (op.is_admit) {
      const AdmitDecision d = twin.admit(Task{op.exec, op.period});
      twin_ids.push_back(d.admitted ? d.id : kInvalidOnlineTaskId);
      if (d.admitted) live.insert(d.id);
    } else {
      const std::uint64_t id =
          twin_ids[op.depart_ix %
                   std::max<std::size_t>(1, twin_ids.size())];
      if (twin.depart(id)) live.erase(id);
    }
  }
  EXPECT_EQ(recovered.decision_checksum(), twin.decision_checksum());
  EXPECT_EQ(recovered.resident_count(), live.size());
  for (const std::uint64_t id : live) {  // zero double admits, zero losses
    EXPECT_TRUE(recovered.machine_of(id).has_value()) << "task " << id;
    EXPECT_EQ(recovered.machine_of(id), twin.machine_of(id));
  }
}

// Snapshot cuts are a function of the decision stream.  One fixed frame
// stream — admits to two shards, and departs of the ids a twin controller
// per shard assigns — is served once with one frame per write and once
// with ten, each write waiting for its answers.  Both runs must leave the
// same WAL bytes and the same snapshot files, names and bytes, on every
// shard.
TEST(Recovery, SnapshotCutsIgnoreFrameBatching) {
  const Platform pf = geometric_platform(4, 1.5);
  std::vector<Request> frames;
  std::vector<Response> expected;  // status and task id, by request id
  {
    OnlinePartitioner twin0(pf, AdmissionKind::kEdf, 1.0);
    OnlinePartitioner twin1(pf, AdmissionKind::kEdf, 1.0);
    OnlinePartitioner* twins[2] = {&twin0, &twin1};
    std::vector<OnlineTaskId> live[2];
    Rng rng(0x5EED);
    for (std::uint64_t i = 0; i < 600; ++i) {
      const std::uint16_t shard = static_cast<std::uint16_t>(i % 2);
      Response want;
      if (!live[shard].empty() && rng.next_u64() % 4 == 0) {
        const std::size_t k = rng.next_u64() % live[shard].size();
        const OnlineTaskId id = live[shard][k];
        live[shard].erase(live[shard].begin() +
                          static_cast<std::ptrdiff_t>(k));
        ASSERT_TRUE(twins[shard]->depart(id));
        frames.push_back(Request::depart(shard, i, id));
        want.status = Status::kDeparted;
      } else {
        const std::int64_t period = rng.uniform_int(16, 400);
        const std::int64_t exec = rng.uniform_int(1, period / 8);
        const AdmitDecision d = twins[shard]->admit(Task{exec, period});
        if (d.admitted) live[shard].push_back(d.id);
        frames.push_back(Request::admit(shard, i, exec, period));
        want.status = d.admitted ? Status::kAdmitted : Status::kRejected;
        want.task_id = d.admitted ? d.id : 0;
      }
      expected.push_back(want);
    }
  }

  const auto serve = [&](const std::string& dir, std::size_t per_write) {
    ServerOptions opts;
    opts.shards = 2;
    opts.wal_dir = dir;
    opts.wal_sync = io::WalSync::kOff;
    opts.snapshot_every = 32;
    Server server(pf, opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    Client client;
    ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;
    for (std::size_t i = 0; i < frames.size(); i += per_write) {
      const std::size_t end = std::min(frames.size(), i + per_write);
      for (std::size_t j = i; j < end; ++j) client.queue_request(frames[j]);
      ASSERT_TRUE(client.flush(5000)) << client.last_error();
      for (std::size_t j = i; j < end; ++j) {
        Response r;
        ASSERT_TRUE(client.recv_response(&r, 5000)) << client.last_error();
        ASSERT_LT(r.request_id, expected.size());
        EXPECT_EQ(r.status, expected[r.request_id].status);
        EXPECT_EQ(r.task_id, expected[r.request_id].task_id);
      }
    }
    server.request_stop();
    server.wait();
  };
  TempDir one("durtest-cuts-one");
  TempDir ten("durtest-cuts-ten");
  serve(one.path(), 1);
  serve(ten.path(), 10);

  const auto bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  };
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    SCOPED_TRACE("shard " + std::to_string(shard));
    const std::vector<char> wal = bytes(io::wal_path(one.path(), shard));
    EXPECT_FALSE(wal.empty());
    EXPECT_EQ(wal, bytes(io::wal_path(ten.path(), shard)));
    const std::vector<std::string> a = io::list_snapshots(one.path(), shard);
    const std::vector<std::string> b = io::list_snapshots(ten.path(), shard);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(std::filesystem::path(a[i]).filename(),
                std::filesystem::path(b[i]).filename());
      EXPECT_EQ(bytes(a[i]), bytes(b[i])) << a[i];
    }
  }
}

// A corrupt newest snapshot falls back to the previous one; the WAL tail
// from the older cut replays the difference.
TEST(Recovery, CorruptNewestSnapshotFallsBackToOlder) {
  TempDir dir("durtest-fallback");
  const Platform pf = geometric_platform(4, 1.5);

  {
    ServerOptions opts;
    opts.shards = 1;
    opts.wal_dir = dir.path();
    opts.wal_sync = io::WalSync::kOff;
    opts.snapshot_every = 8;  // several snapshot generations
    Server server(pf, opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    Client client;
    ASSERT_TRUE(client.connect(loopback_addr(server), 2000, &err)) << err;
    const ReplaySummary sum =
        replay_trace_over_client(client, make_trace(77, 100), 0, 16, 5000);
    ASSERT_TRUE(sum.ok) << client.last_error();
    server.request_stop();
    server.wait();
  }

  const std::vector<std::string> snaps = io::list_snapshots(dir.path(), 0);
  ASSERT_GE(snaps.size(), 2u);

  // Recover once, cleanly, to fix the expected end state.
  ShardCore clean_core(pf, recovery_options(dir.path()), 0);
  ShardSetRecovery rec = recover_one(clean_core);
  ASSERT_TRUE(rec.ok) << rec.error;
  const OnlinePartitioner& clean = clean_core.controller();

  // Corrupt the newest snapshot's interior.
  {
    const int fd = ::open(snaps[0].c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    unsigned char b = 0;
    ASSERT_EQ(::pread(fd, &b, 1, 24), 1);
    b ^= 0x5A;
    ASSERT_EQ(::pwrite(fd, &b, 1, 24), 1);
    ::close(fd);
  }

  ShardCore fallback_core(pf, recovery_options(dir.path()), 0);
  rec = recover_one(fallback_core);
  ASSERT_TRUE(rec.ok) << rec.error;
  const OnlinePartitioner& fallback = fallback_core.controller();
  EXPECT_GT(rec.shards[0].replayed, 0u);  // older cut -> longer replay
  EXPECT_EQ(fallback.decision_seq(), clean.decision_seq());
  EXPECT_EQ(fallback.decision_checksum(), clean.decision_checksum());
}

}  // namespace
}  // namespace hetsched::net
