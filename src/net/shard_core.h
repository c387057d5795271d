// One shard's decision state, without sockets or threads.
//
// A ShardCore owns the online controller, its write-ahead log (io/wal.h),
// the snapshot policy, the flight ring, the `active` flag and the
// forwarding table.  Five entry points change the controller, and each
// appends its WAL record while the log is open:
//   admit / depart / rebalance   what apply() runs for a decoded frame;
//   move_in / move_out           the two halves of a split or merge, run
//                                by the server's resize coordinator.
// recover_shard_set() replays a --wal-dir through the same five entry
// points with the WAL closed, so served, resized and recovered decisions
// take one code path.  The server (net/server.h) adds what is about
// threads and sockets: queues, loops, placement, the resize handshake.
//
// One writer at a time: the shard's owner loop, the resize coordinator
// while the shard is quiesced, or single-threaded recovery.  Any thread
// may read active(), forward() and the counters.
//
// Snapshots are cut on the decision stream.  The entry point whose
// decision makes decision_seq reach or pass the next multiple of
// ServerOptions::snapshot_every serializes the shard right there (a move
// of k tenants steps the sequence by k, so it may pass a multiple).  The
// bytes wait for the group commit that covers the cut: commit() writes
// them once the WAL write succeeded and drops them if it failed, which
// only lengthens replay.  Which snapshot files exist, and their bytes,
// therefore depend on the decisions alone, not on how a client batched
// its frames.  Runtime snapshots are not fsynced: the log is never
// truncated at runtime, so a snapshot lost to a power cut only lengthens
// the next replay, and a torn one fails its CRC and recovery falls back.
// Forcing syncs on the owner loop measured ~30-40% off sustained
// throughput (megabytes of unsynced kOff/kBatch log per threshold).
//
// Recovery (recover_shard_set) is strictly single-threaded, shared by
// Server::start() (recover-then-serve) and `hetsched_cli recover`
// (recover-then-exit).  Per shard:
//   1. Try snapshots newest-first (list_snapshots); the first one whose
//      file CRC validates AND whose payload restore_bytes() accepts wins.
//      A corrupt newest snapshot falls back to the previous one — the WAL
//      is never truncated mid-run, so an older base just replays more.
//      No valid snapshot at all means a fresh controller (full replay),
//      which is only sound if the WAL actually starts at seq 1; a WAL
//      whose first record's seq is beyond that proves lost history and
//      fails recovery.
//   2. wal_load() the shard's WAL (truncating a torn tail in place) and
//      re-apply every record with seq > the base snapshot's seq through
//      the entry point that logged it, then assert the controller's
//      (decision_seq, decision_checksum) equal the record's — bit-exact
//      recovery is verified record by record, not assumed.  An admit
//      also asserts the persisted tier; a MoveIn asserts the assigned ids
//      (migrations do not fold the checksum).
//   3. Cross-shard reconciliation: a crash between the target's kMoveIn
//      fsync and the source's kMoveOut fsync leaves the move applied on
//      one side only.  Both shards are quiesced for the whole resize, so
//      the missing kMoveOut is necessarily *after* everything in the
//      source's log: running move_out at the end of the source's replay
//      reproduces the pre-crash state exactly.  A MoveIn whose source
//      old_ids are no longer live was already reconciled by the source's
//      own log.  (A cut that falls on a MoveIn is written only after the
//      source's MoveOut, so the MoveIn stays in the replayed tail.)
//   4. With `rotate` set, write a fresh durable snapshot per shard (the
//      recovered cut), truncate-restart each WAL at epoch+1 and leave it
//      open for serving, and prune snapshots older than the new one — so
//      the next crash replays from here, not from the beginning of time.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/snapshot_format.h"
#include "io/wal.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/flight_recorder.h"
#include "online/online_partitioner.h"

namespace hetsched::net {

// One event on a counter only the calling thread writes: a relaxed load
// and store compile to a plain add, not a lock-prefixed read-modify-write,
// and readers on other threads still see whole values.
inline void bump(std::atomic<std::uint64_t>& c) {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

// A traced frame's warm-admit span, which its WAL-append span parents to
// (zeros: untraced, or not a served frame).
struct WalSpan {
  std::uint64_t trace_id = 0;
  std::uint64_t parent = 0;
};

class ShardCore {
 public:
  // Departs naming a tenant migrated away are rewritten to this target.
  struct Forward {
    std::uint32_t peer = 0;    // shard the tenant moved to
    std::uint64_t new_id = 0;  // its id there
  };
  // The controller is built from the options' kind, alpha, engine and
  // admit config; wal_dir, wal_sync and snapshot_every drive the log.
  ShardCore(const Platform& platform, const ServerOptions& options,
            std::uint32_t index);

  // One decoded admit/depart/rebalance frame: validation, the decision,
  // its WAL record and a flight-ring entry.  Responses that never reach
  // the controller (bad request, merged-away shard) fold nothing and log
  // nothing.  `parent_span` is the frame's decode span id (0 when the
  // frame is untraced or spans are disarmed).
  Response apply(const Request& req, std::uint64_t parent_span = 0);

  // The decision entry points.  `t` must pass accepts_input().
  AdmitDecision admit(const Task& t, WalSpan span = {});
  // Stale departs are decisions too: the outcome is checksum-folded, so
  // they reach the log for replay to stay bit-exact.
  bool depart(OnlineTaskId id, WalSpan span = {});
  RebalanceReport rebalance(WalSpan span = {});

  // Resize, target side: admits every task of `moved` as a migration,
  // fills in the new ids, logs one MoveIn naming `peer` and force-syncs
  // it — the resize commit point.  On a rejection or a failed commit the
  // controller is restored and false returned (a failed commit may still
  // have put the record on disk; a crash before the next rotation then
  // fails recovery loudly instead of silently diverging).  An empty
  // `moved` logs nothing.
  bool move_in(std::uint32_t peer, std::uint8_t flags,
               std::span<io::WalMovedTask> moved);
  // Resize, source side: departs the movers, forwards their ids to
  // `peer`, leaves service when `flags` holds kWalFlagDeactivate, and
  // logs one MoveOut (a failed commit is tolerated: recovery reconciles
  // it from the durable MoveIn).  With no movers a deactivation rides a
  // snapshot instead: an empty move carries no sequence step for replay
  // to anchor on.  False if a mover is not resident.
  bool move_out(std::uint32_t peer, std::uint8_t flags,
                std::span<const io::WalMovedTask> moved);
  // The tenants a resize moves out of this shard: every resident (merge),
  // or every second tenant of the canonical order, utilization descending
  // so the halves balance (split; churn-stranded states the canonical
  // re-pack cannot reproduce fall back to slot order).
  std::vector<io::WalMovedTask> movers(bool split);

  // Opens <wal_dir>/shard-NNN.wal for appending at `epoch` (paced under
  // kBatch: the server's pacer thread owns the periodic fsync).
  bool open_wal(std::uint32_t epoch);
  // Closes and deletes a log that holds no committed history (an aborted
  // split), so recovery never sees the shard.
  void discard_wal();
  bool dirty() const { return wal_.dirty(); }
  // Group commit — write(2), plus fsync per the sync policy or when
  // forced — then the snapshot cuts it covers.  False if the commit
  // failed (those cuts are dropped) or the WAL is not open.
  bool commit(bool force_sync = false);
  // The pacer thread's fsync tick (io::WalWriter::pace_sync).
  void pace_sync() { wal_.pace_sync(); }

  // Recovery's side: installs a snapshot file (controller payload,
  // active flag, forwards).  False, changing nothing, if the payload does
  // not restore.
  bool restore(const io::SnapshotFileMeta& meta,
               const std::vector<std::uint8_t>& payload);
  // Writes a durable snapshot of the current state at `epoch`, then opens
  // and truncates the WAL at that epoch and prunes older snapshots.
  bool rotate(std::uint32_t epoch, std::string* error);

  std::uint32_t index() const { return index_; }
  const ServerOptions& options() const { return options_; }
  const OnlinePartitioner& controller() const { return controller_; }
  // False once merged away: admits and rebalances answer kBadShard,
  // departs still resolve through the forwarding table.
  bool active() const { return active_.load(std::memory_order_acquire); }
  // The forwarding entry for `old_id`, if that tenant migrated away.  One
  // relaxed flag load when no tenant of this shard ever did.
  bool forward(std::uint64_t old_id, Forward* to) const;
  std::size_t forward_count() const;
  // Served decisions appended to the WAL, and snapshot files written
  // since start (recovery's rotation snapshot excluded).
  std::uint64_t wal_records() const {
    return wal_records_.load(std::memory_order_relaxed);
  }
  std::uint64_t snapshots() const {
    return snapshots_.load(std::memory_order_relaxed);
  }

 private:
  struct Cut {
    io::SnapshotFileMeta meta;
    std::vector<std::uint8_t> payload;
  };

  // Appends one record through `append` while the WAL is open, inside the
  // WAL-append span, then cuts a snapshot when the stream is due.
  template <class Append>
  void log(WalSpan span, Append&& append);
  // Serializes the shard at the current decision (cold path).
  Cut cut() const;
  // Queues a cut of the current state for the next commit.
  void cut_now();
  void install_forward(std::uint64_t old_id, Forward to);
  // The smallest multiple of snapshot_every above decision_seq.
  std::uint64_t next_cut() const;

  ServerOptions options_;
  std::uint32_t index_;
  OnlinePartitioner controller_;
  io::WalWriter wal_;
  std::uint32_t epoch_ = 0;
  std::uint64_t next_cut_ = 0;
  std::vector<Cut> pending_;  // cut, awaiting the commit that covers them

  std::atomic<bool> active_{true};
  // The flag makes the common case (no tenant of this shard ever
  // migrated) one relaxed load on the depart path; the map is read under
  // the mutex only when the flag is set.
  std::atomic<bool> has_forwards_{false};
  mutable std::mutex forward_mu_;
  std::unordered_map<std::uint64_t, Forward> forwards_;

  std::atomic<std::uint64_t> wal_records_{0};
  std::atomic<std::uint64_t> snapshots_{0};

  // Last-decisions ring (obs/flight_recorder.h): one fixed-size record per
  // answered frame, dumped on SIGUSR1 or a fatal signal; last, so its
  // 48 KB do not separate the fields every frame touches.  Recording is
  // compiled out with the metrics kill switch.
  obs::FlightRecorder flight_;
};

// Per-shard outcome of recover_shard_set; the recovered state itself
// (controller, active flag, forwards) lives in the core.
struct ShardRecoveryInfo {
  std::uint64_t snapshot_seq = 0;     // base snapshot cut (0 = fresh start)
  std::uint64_t replayed = 0;         // WAL records re-applied
  std::uint64_t truncated_bytes = 0;  // torn tail discarded from the WAL
  std::uint64_t reconciled = 0;       // move-outs applied by reconciliation
};

struct ShardSetRecovery {
  bool ok = false;
  std::string error;
  // Epoch every recovered WAL/snapshot is (re)stamped with: one past the
  // largest epoch seen anywhere in the directory.
  std::uint32_t next_epoch = 1;
  std::vector<ShardRecoveryInfo> shards;
};

// Rebuilds cores[0..n) — shard i is cores[i], all freshly constructed with
// the options the logs were written under (a snapshot from a different
// configuration fails validation) — from their options' wal_dir.  On
// failure returns ok=false with `error` set; the cores' states are
// unspecified and must be discarded.
ShardSetRecovery recover_shard_set(std::span<ShardCore* const> cores,
                                   bool rotate);

}  // namespace hetsched::net
