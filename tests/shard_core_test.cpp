// ShardCore without sockets or threads: two cores driven by a seeded
// stream of served frames (admits, departs, rebalances) and one split-
// style move between them, stopped at a random point, then recovered into
// fresh cores and compared with twins (cores with no WAL) driven to the
// same point.  One stop falls between the target's MoveIn and the
// source's MoveOut, so recovery's cross-shard reconciliation runs.
// `ctest -L dur`.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "gen/platform_gen.h"
#include "io/snapshot_format.h"
#include "io/wal.h"
#include "net/protocol.h"
#include "net/shard_core.h"
#include "util/rng.h"

namespace hetsched::net {
namespace {

constexpr std::size_t kOps = 400;
constexpr std::size_t kMoveAt = 200;  // op index of the one move
constexpr std::size_t kSnapshotEvery = 16;

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

ServerOptions core_options(const std::string& wal_dir) {
  ServerOptions opts;
  opts.wal_dir = wal_dir;
  opts.wal_sync = io::WalSync::kOff;
  opts.snapshot_every = kSnapshotEvery;
  return opts;
}

struct CorePair {
  CorePair(const Platform& pf, const ServerOptions& opts)
      : s0(pf, opts, 0), s1(pf, opts, 1) {}
  ShardCore s0;
  ShardCore s1;
};

// Drives ops [0, stop) of the stream `seed` names.  Ops are drawn from the
// driven cores' own state (a depart names one of the shard's residents),
// so every pair driven with one seed sees the same stream.  Commits come
// every few ops, as group commits would.  With `stop_after_move_in`, the
// run ends right after the target's MoveIn of op kMoveAt.
void drive(CorePair& p, std::uint64_t seed, std::size_t stop,
           bool stop_after_move_in = false) {
  Rng rng(seed);
  ShardCore* cores[2] = {&p.s0, &p.s1};
  for (std::size_t op = 0; op < stop; ++op) {
    if (op == kMoveAt) {
      std::vector<io::WalMovedTask> moved = p.s0.movers(/*split=*/true);
      ASSERT_FALSE(moved.empty());
      ASSERT_TRUE(p.s1.move_in(0, 0, moved));
      if (stop_after_move_in) return;
      ASSERT_TRUE(p.s0.move_out(1, 0, moved));
      continue;
    }
    const std::uint16_t shard = static_cast<std::uint16_t>(rng.next_u64() % 2);
    ShardCore& c = *cores[shard];
    const std::uint64_t kind = rng.next_u64() % 10;
    Request req;
    if (kind < 6) {
      // Light tasks: both shards stay well under capacity, so the move
      // of half of shard 0 always fits into shard 1.
      const std::int64_t period = rng.uniform_int(16, 400);
      req = Request::admit(shard, op, rng.uniform_int(1, period / 16), period);
    } else if (kind < 9) {
      const auto residents = c.controller().residents();
      const std::uint64_t pick = rng.next_u64();
      const OnlineTaskId id =
          residents.empty() || kind == 8
              ? pick  // almost surely stale: a logged decision all the same
              : residents[pick % residents.size()].first;
      req = Request::depart(shard, op, id);
    } else {
      req = Request::rebalance(shard, op);
    }
    const Response resp = c.apply(req);
    ASSERT_NE(resp.status, Status::kBadRequest) << "op " << op;
    if (rng.next_u64() % 4 == 0) {
      p.s0.commit();
      p.s1.commit();
    }
  }
  p.s0.commit();
  p.s1.commit();
}

// A recovered core against its twin; `moved` names the tenants the move
// took from shard 0 (empty when the stop came before it).
void expect_same_core(const ShardCore& got, const ShardCore& want,
                      const std::vector<io::WalMovedTask>& moved) {
  SCOPED_TRACE("shard " + std::to_string(got.index()));
  EXPECT_EQ(got.controller().decision_seq(), want.controller().decision_seq());
  EXPECT_EQ(got.controller().decision_checksum(),
            want.controller().decision_checksum());
  EXPECT_EQ(got.controller().residents(), want.controller().residents());
  for (const auto& [id, task] : want.controller().residents()) {
    EXPECT_EQ(got.controller().machine_of(id), want.controller().machine_of(id))
        << "task " << id;
  }
  EXPECT_EQ(got.active(), want.active());
  EXPECT_EQ(got.forward_count(), want.forward_count());
  for (const io::WalMovedTask& mt : moved) {
    ShardCore::Forward g;
    ShardCore::Forward w;
    const bool has = want.forward(mt.old_id, &w);
    ASSERT_EQ(got.forward(mt.old_id, &g), has) << "task " << mt.old_id;
    if (has) {
      EXPECT_EQ(g.peer, w.peer);
      EXPECT_EQ(g.new_id, w.new_id);
    }
  }
}

// Drives a WAL-backed pair to `stop`, drops it (pending snapshot cuts are
// lost, as in a crash after the last group commit), recovers fresh cores
// and compares them with twins driven to `twin_stop`.
void crash_and_recover(std::uint64_t seed, std::size_t stop,
                       bool stop_after_move_in, std::size_t twin_stop,
                       std::uint64_t* snapshot_bases) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " stop " +
               std::to_string(stop));
  TempDir dir("coretest");
  const Platform pf = geometric_platform(4, 1.5);
  const ServerOptions opts = core_options(dir.path());
  {
    CorePair live(pf, opts);
    ASSERT_TRUE(live.s0.open_wal(1));
    ASSERT_TRUE(live.s1.open_wal(1));
    drive(live, seed, stop, stop_after_move_in);
  }
  CorePair rec(pf, opts);
  ShardCore* ptrs[2] = {&rec.s0, &rec.s1};
  const ShardSetRecovery out = recover_shard_set(ptrs, /*rotate=*/false);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.shards[0].reconciled, stop_after_move_in ? 1u : 0u);
  for (const ShardRecoveryInfo& info : out.shards) {
    // Before the move every decision steps the sequence by one, so cuts
    // land on multiples; the move may step over one.
    if (stop <= kMoveAt) {
      EXPECT_EQ(info.snapshot_seq % kSnapshotEvery, 0u);
    }
    if (info.snapshot_seq > 0) ++*snapshot_bases;
  }

  CorePair twin(pf, core_options(""));
  drive(twin, seed, twin_stop);
  std::vector<io::WalMovedTask> moved;
  if (twin_stop > kMoveAt) {
    CorePair probe(pf, core_options(""));
    drive(probe, seed, kMoveAt);
    moved = probe.s0.movers(/*split=*/true);
  }
  expect_same_core(rec.s0, twin.s0, moved);
  expect_same_core(rec.s1, twin.s1, moved);
}

TEST(ShardCoreRecovery, RandomStopsRecoverToTheTwinsState) {
  Rng pick(20261019);
  std::uint64_t snapshot_bases = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const std::uint64_t seed = pick.next_u64();
    const std::size_t stop =
        1 + static_cast<std::size_t>(pick.next_u64() % kOps);
    crash_and_recover(seed, stop, false, stop, &snapshot_bases);
  }
  // Recovery started from snapshots cut on the stream, not only from the
  // beginning of the log.
  EXPECT_GT(snapshot_bases, 0u);
}

TEST(ShardCoreRecovery, CrashBetweenMoveInAndMoveOutIsReconciled) {
  std::uint64_t snapshot_bases = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    crash_and_recover(seed, kMoveAt + 1, /*stop_after_move_in=*/true,
                      kMoveAt + 1, &snapshot_bases);
  }
}

// Snapshot files are named by the multiples of snapshot_every the stream
// passed, whatever the commit pattern: commits after every op and commits
// only at the end of the stream leave the same files and bytes.
TEST(ShardCoreSnapshots, CutsDependOnTheDecisionStreamOnly) {
  const Platform pf = geometric_platform(4, 1.5);
  TempDir a("coretest-cuts-a");
  TempDir b("coretest-cuts-b");
  for (const std::string* dir : {&a.path(), &b.path()}) {
    ShardCore core(pf, core_options(*dir), 0);
    ASSERT_TRUE(core.open_wal(1));
    Rng rng(7);
    for (std::uint64_t i = 0; i < 100; ++i) {
      const std::int64_t period = rng.uniform_int(10, 200);
      core.apply(Request::admit(0, i, rng.uniform_int(1, period / 4), period));
      if (dir == &a.path()) core.commit();
    }
    core.commit();
  }
  const std::vector<std::string> snaps_a = io::list_snapshots(a.path(), 0);
  const std::vector<std::string> snaps_b = io::list_snapshots(b.path(), 0);
  ASSERT_EQ(snaps_a.size(), 2u);  // keep=2 of the cuts at 16, 32, ..., 96
  ASSERT_EQ(snaps_b.size(), snaps_a.size());
  for (std::size_t i = 0; i < snaps_a.size(); ++i) {
    const std::filesystem::path pa(snaps_a[i]);
    const std::filesystem::path pb(snaps_b[i]);
    EXPECT_EQ(pa.filename(), pb.filename());
    io::SnapshotFileMeta ma;
    io::SnapshotFileMeta mb;
    std::vector<std::uint8_t> bytes_a;
    std::vector<std::uint8_t> bytes_b;
    std::string err;
    ASSERT_TRUE(io::read_snapshot_file(snaps_a[i], &ma, &bytes_a, &err)) << err;
    ASSERT_TRUE(io::read_snapshot_file(snaps_b[i], &mb, &bytes_b, &err)) << err;
    EXPECT_EQ(ma.decision_seq, 96u - 16u * i);
    EXPECT_EQ(mb.decision_seq, ma.decision_seq);
    EXPECT_EQ(mb.decision_checksum, ma.decision_checksum);
    EXPECT_EQ(bytes_b, bytes_a);
  }
}

}  // namespace
}  // namespace hetsched::net
