#include "net/shard_core.h"

#include <unistd.h>

#include <algorithm>
#include <bit>

#include "obs/metrics.h"
#include "obs/span.h"
#include "util/check.h"

namespace hetsched::net {

namespace {

#if HETSCHED_METRICS_ENABLED
struct RecoveryMetrics {
  obs::Counter replayed = obs::registry().counter(
      "hetsched_wal_replayed_records_total",
      "WAL records re-applied during crash recovery");
  obs::Counter reconciled = obs::registry().counter(
      "hetsched_wal_reconciled_moves_total",
      "Move-outs applied by cross-shard recovery reconciliation");
};
const RecoveryMetrics& recovery_metrics() {
  static const RecoveryMetrics m;
  return m;
}
#endif  // HETSCHED_METRICS_ENABLED

}  // namespace

ShardCore::ShardCore(const Platform& platform, const ServerOptions& options,
                     std::uint32_t index)
    : options_(options),
      index_(index),
      controller_(platform, options.kind, options.alpha, options.engine,
                  options.admit) {
  // Warm the controller arena so steady-state admits take the
  // allocation-free path from the first request.
  controller_.reserve(options.queue_depth);
  flight_.set_shard(static_cast<std::uint16_t>(index));
}

// HETSCHED_OWNER_LOOP (per-frame decision: runs inline on the decoding
// loop for same-loop shards and on the owner's drain pass otherwise)
// HETSCHED_NOALLOC (per-frame decision on the loop hot path: warm admits
// and departs run the controller's allocation-free paths, and the WAL
// append encodes into a preallocated arena)
Response ShardCore::apply(const Request& req, std::uint64_t parent_span) {
  Response resp;
  resp.type = req.type;
  resp.request_id = req.request_id;
  // Warm-admit span: one clock read on entry and one on exit, paid only
  // by traced frames while spans are armed.  Its id is taken up front so
  // the WAL-append span can parent to it.
  const bool traced = obs::span_traced(req.trace_id);
  const std::uint64_t sp_t0 = obs::span_clock_if(traced);
  const WalSpan span{req.trace_id, traced ? obs::span_next_id() : 0};
  bool decided = false;
  switch (req.type) {
    case MsgType::kAdmit: {
      // Deadline validity (minor 3): a constrained deadline must lie in
      // (0, period], and only a tiered controller knows how to test it —
      // a legacy shard answers kBadRequest, which a deadline-aware client
      // reads as "server not configured for constrained deadlines".  A
      // WCET the overhead model cannot inflate within int64 is refused the
      // same way: no decision, no WAL record, checksum untouched.
      const Task t{req.exec(), req.period(), req.deadline_val()};
      if ((req.deadline != 0 && !controller_.tiered()) ||
          !controller_.accepts_input(t)) {
        resp.status = Status::kBadRequest;
        break;
      }
      if (!active_.load(std::memory_order_relaxed)) {
        // Merged away: the shard no longer accepts tenants.
        resp.status = Status::kBadShard;
        break;
      }
      const AdmitDecision d = admit(t, span);
      decided = true;
      resp.value = std::bit_cast<std::uint64_t>(d.utilization);
      if (d.admitted) {
        resp.status = Status::kAdmitted;
        resp.machine = static_cast<std::uint32_t>(d.machine);
        resp.task_id = d.id;
      } else {
        resp.status = Status::kRejected;
      }
      break;
    }
    case MsgType::kDepart:
      resp.status =
          depart(req.task_id(), span) ? Status::kDeparted : Status::kStaleId;
      decided = true;
      break;
    case MsgType::kRebalance: {
      if (!active_.load(std::memory_order_relaxed)) {
        resp.status = Status::kBadShard;
        break;
      }
      const RebalanceReport r = rebalance(span);
      decided = true;
      resp.status = r.applied ? Status::kRebalanced : Status::kRebalanceSkipped;
      resp.task_id = r.migrations;
      break;
    }
    case MsgType::kSplitShard:
    case MsgType::kMergeShards:
    case MsgType::kGetStats:
    case MsgType::kGetTracez:
      // Resize and introspection frames run inline on the decoding loop
      // (Server::handle_resize, handle_introspect) and never reach a shard.
      resp.status = Status::kBadRequest;
      break;
  }
  if (decided && wal_.is_open()) bump(wal_records_);
  // Flight recorder: every answered frame lands one fixed-size record in
  // the shard's last-decisions ring (compiled out with the kill switch).
  HETSCHED_FLIGHT_RECORD(flight_, resp.type, resp.status, resp.machine,
                         resp.request_id, resp.value, req.trace_id);
  if (span.parent != 0) {
    obs::span_record(req.trace_id, span.parent, parent_span,
                     obs::SpanStage::kWarmAdmit, sp_t0, obs::now_ns());
  }
  return resp;
}

template <class Append>
void ShardCore::log(WalSpan span, Append&& append) {
  if (!wal_.is_open()) return;
  const std::uint64_t t0 = obs::span_clock_if(span.parent != 0);
  append();
  obs::span_close(span.parent != 0, span.trace_id, span.parent,
                  obs::SpanStage::kWalAppend, t0);
  if (controller_.decision_seq() >= next_cut_) cut_now();
}

AdmitDecision ShardCore::admit(const Task& t, WalSpan span) {
  const AdmitDecision d = controller_.admit(t);
  log(span, [&] {
    wal_.append_admit(t.exec, t.period, controller_.decision_seq(),
                      controller_.decision_checksum(), t.deadline, d.tier);
  });
  return d;
}

bool ShardCore::depart(OnlineTaskId id, WalSpan span) {
  const bool departed = controller_.depart(id);
  log(span, [&] {
    wal_.append_depart(id, controller_.decision_seq(),
                       controller_.decision_checksum());
  });
  return departed;
}

RebalanceReport ShardCore::rebalance(WalSpan span) {
  const RebalanceReport r = controller_.rebalance();
  log(span, [&] {
    wal_.append_rebalance(controller_.decision_seq(),
                          controller_.decision_checksum());
  });
  return r;
}

bool ShardCore::move_in(std::uint32_t peer, std::uint8_t flags,
                        std::span<io::WalMovedTask> moved) {
  if (moved.empty()) return true;
  // Rolls back with a restore rather than departs: departs would advance
  // the decision stream with no WAL trace, which replay could never
  // reproduce.
  const OnlinePartitioner::Snapshot undo = controller_.snapshot();
  const auto roll_back = [&] {
    HETSCHED_CHECK(controller_.restore(undo));
    next_cut_ = next_cut();
    return false;
  };
  for (io::WalMovedTask& mt : moved) {
    const AdmitDecision d =
        controller_.admit_migrated(Task{mt.exec, mt.period, mt.deadline});
    if (!d.admitted) return roll_back();
    mt.new_id = d.id;
  }
  log({}, [&] {
    wal_.append_move(io::WalRecordType::kMoveIn,
                     static_cast<std::uint16_t>(peer), flags, moved,
                     controller_.decision_seq(),
                     controller_.decision_checksum());
  });
  // The commit point: once the MoveIn is durable the move survives any
  // crash.  A cut made here waits for the owner's next group commit, by
  // which time the source's MoveOut is logged too: a durable snapshot
  // past a MoveIn whose MoveOut is missing would hide the move from
  // recovery's reconciliation, which reads only the tail above the cut.
  if (wal_.is_open() && !wal_.commit(/*force_sync=*/true)) {
    pending_.clear();
    return roll_back();
  }
  return true;
}

bool ShardCore::move_out(std::uint32_t peer, std::uint8_t flags,
                         std::span<const io::WalMovedTask> moved) {
  for (const io::WalMovedTask& mt : moved) {
    if (!controller_.depart_migrated(mt.old_id)) return false;
    install_forward(mt.old_id, Forward{peer, mt.new_id});
  }
  const bool deactivate = (flags & io::kWalFlagDeactivate) != 0;
  if (deactivate) active_.store(false, std::memory_order_release);
  if (!wal_.is_open() || (moved.empty() && !deactivate)) return true;
  if (moved.empty()) {
    cut_now();
  } else {
    log({}, [&] {
      wal_.append_move(io::WalRecordType::kMoveOut,
                       static_cast<std::uint16_t>(peer), flags, moved,
                       controller_.decision_seq(),
                       controller_.decision_checksum());
    });
  }
  commit(/*force_sync=*/true);
  return true;
}

std::vector<io::WalMovedTask> ShardCore::movers(bool split) {
  std::vector<std::pair<OnlineTaskId, Task>> order;
  const MigrationPlan plan =
      split ? controller_.migration_plan() : MigrationPlan{};
  if (plan.feasible) {
    order.reserve(plan.moves.size());
    for (const MigrationPlan::Move& mv : plan.moves) {
      order.emplace_back(mv.id, mv.task);
    }
  } else {
    order = controller_.residents();
  }
  std::vector<io::WalMovedTask> moved;
  for (std::size_t i = split ? 1 : 0; i < order.size(); i += split ? 2 : 1) {
    const Task& t = order[i].second;
    moved.push_back({order[i].first, 0, t.exec, t.period, t.deadline});
  }
  return moved;
}

bool ShardCore::open_wal(std::uint32_t epoch) {
  if (!wal_.open(io::wal_path(options_.wal_dir, index_), epoch,
                 options_.wal_sync)) {
    return false;
  }
  // Under kBatch the server's pacer thread owns the fsync interval, so
  // the owner loop never pays the time-based fsync inline.
  wal_.set_paced(options_.wal_sync == io::WalSync::kBatch);
  epoch_ = epoch;
  next_cut_ = next_cut();
  return true;
}

void ShardCore::discard_wal() {
  const std::string path = wal_.path();
  wal_.close();
  ::unlink(path.c_str());
}

bool ShardCore::commit(bool force_sync) {
  const bool ok = wal_.commit(force_sync);
  for (const Cut& c : pending_) {
    std::string err;
    if (ok && !io::write_snapshot_file(options_.wal_dir, c.meta, c.payload,
                                       /*keep=*/2, /*durable=*/false, &err)
                   .empty()) {
      bump(snapshots_);
    }
  }
  pending_.clear();
  return ok;
}

ShardCore::Cut ShardCore::cut() const {
  Cut c;
  c.meta.shard = index_;
  c.meta.epoch = epoch_;
  c.meta.decision_seq = controller_.decision_seq();
  c.meta.decision_checksum = controller_.decision_checksum();
  c.meta.active = active_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(forward_mu_);
    c.meta.forwards.reserve(forwards_.size());
    for (const auto& [old_id, f] : forwards_) {
      c.meta.forwards.push_back({old_id, f.peer, f.new_id});
    }
  }
  c.payload = controller_.serialize_snapshot();
  return c;
}

void ShardCore::cut_now() {
  pending_.push_back(cut());
  next_cut_ = next_cut();
}

std::uint64_t ShardCore::next_cut() const {
  const std::uint64_t every = options_.snapshot_every;
  if (every == 0) return ~std::uint64_t{0};
  return (controller_.decision_seq() / every + 1) * every;
}

void ShardCore::install_forward(std::uint64_t old_id, Forward to) {
  std::lock_guard<std::mutex> lock(forward_mu_);
  forwards_[old_id] = to;
  has_forwards_.store(true, std::memory_order_release);
}

bool ShardCore::forward(std::uint64_t old_id, Forward* to) const {
  if (!has_forwards_.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(forward_mu_);
  const auto it = forwards_.find(old_id);
  if (it == forwards_.end()) return false;
  *to = it->second;
  return true;
}

std::size_t ShardCore::forward_count() const {
  std::lock_guard<std::mutex> lock(forward_mu_);
  return forwards_.size();
}

bool ShardCore::restore(const io::SnapshotFileMeta& meta,
                        const std::vector<std::uint8_t>& payload) {
  if (!controller_.restore_bytes(payload.data(), payload.size())) return false;
  active_.store(meta.active, std::memory_order_release);
  for (const io::SnapshotForward& f : meta.forwards) {
    install_forward(f.old_id, Forward{f.peer_shard, f.new_id});
  }
  return true;
}

// Fresh snapshot first (the new recovery base), WAL truncation only once
// that snapshot is durable, older snapshots pruned last.  A crash anywhere
// in this sequence leaves a recoverable state.
bool ShardCore::rotate(std::uint32_t epoch, std::string* error) {
  epoch_ = epoch;
  const Cut c = cut();
  const std::string path = io::write_snapshot_file(
      options_.wal_dir, c.meta, c.payload, 0, /*durable=*/true, error);
  if (path.empty()) return false;
  if (!open_wal(epoch) || !wal_.truncate_restart(epoch)) {
    *error = "WAL rotation failed";
    return false;
  }
  io::prune_snapshots_except(options_.wal_dir, index_, path);
  return true;
}

namespace {

// Re-applies one WAL record through the entry point that logged it and
// checks the result against the record.  Returns what diverged, or
// nullptr.
const char* replay(ShardCore& core, const io::WalRecord& rec) {
  // Every operation — including each migrated task of a move record —
  // advances decision_seq by exactly one, so the record must continue the
  // controller's stream with no gap.  A gap means lost history (e.g. a
  // deleted snapshot the tail depended on): refuse.
  const bool move = rec.type == io::WalRecordType::kMoveIn ||
                    rec.type == io::WalRecordType::kMoveOut;
  const std::uint64_t step = move ? rec.moved.size() : 1;
  if (rec.seq != core.controller().decision_seq() + step) {
    return "WAL decision-sequence gap (lost history)";
  }
  switch (rec.type) {
    case io::WalRecordType::kAdmit:
      // The checksum parity below proves the verdict matched; the
      // persisted tier additionally pins *which* test decided it, so a
      // config drift that happens to agree on the verdict via a different
      // tier still fails loudly.
      if (core.admit(Task{rec.exec, rec.period, rec.deadline}).tier !=
          rec.tier()) {
        return "replayed admission tier disagrees with the WAL record";
      }
      break;
    case io::WalRecordType::kDepart:
      (void)core.depart(rec.task_id);  // stale outcome is checksum-folded
      break;
    case io::WalRecordType::kRebalance:
      (void)core.rebalance();
      break;
    case io::WalRecordType::kMoveIn: {
      std::vector<io::WalMovedTask> moved = rec.moved;
      if (!core.move_in(rec.peer, rec.flags, moved) ||
          !std::equal(moved.begin(), moved.end(), rec.moved.begin(),
                      [](const io::WalMovedTask& a,
                         const io::WalMovedTask& b) {
                        return a.new_id == b.new_id;
                      })) {
        return "move-in replay diverged from the record";
      }
      break;
    }
    case io::WalRecordType::kMoveOut:
      if (!core.move_out(rec.peer, rec.flags, rec.moved)) {
        return "move-out replay diverged from the record";
      }
      break;
  }
  if (core.controller().decision_seq() != rec.seq ||
      core.controller().decision_checksum() != rec.checksum) {
    return "replay decision stream diverged from the WAL record — the log "
           "does not reproduce the acknowledged decisions";
  }
  return nullptr;
}

}  // namespace

ShardSetRecovery recover_shard_set(std::span<ShardCore* const> cores,
                                   bool rotate) {
  ShardSetRecovery out;
  const std::size_t n = cores.size();
  out.shards.resize(n);
  std::vector<std::vector<io::WalRecord>> logs(n);
  std::uint32_t max_epoch = 0;
  const auto fail = [&out](std::size_t shard, const std::string& what) {
    out.error = "shard " + std::to_string(shard) + ": " + what;
    return out;
  };

  // Pass 1 — per shard: newest valid snapshot, then WAL tail replay with
  // per-record (seq, checksum) parity assertions.
  for (std::size_t s = 0; s < n; ++s) {
    ShardCore& core = *cores[s];
    HETSCHED_CHECK(core.index() == s);
    ShardRecoveryInfo& info = out.shards[s];
    const std::string& dir = core.options().wal_dir;

    for (const std::string& path : io::list_snapshots(dir, core.index())) {
      io::SnapshotFileMeta meta;
      std::vector<std::uint8_t> payload;
      std::string snap_err;
      if (!io::read_snapshot_file(path, &meta, &payload, &snap_err)) continue;
      if (meta.shard != core.index()) continue;
      if (!core.restore(meta, payload)) {
        // The file-level CRC already passed, so a payload whose identity
        // header names a *different* configuration is config drift, not
        // disk rot: refuse loudly.  Skipping it like a torn file would
        // silently restart empty once rotation has truncated the WAL the
        // state came from.
        if (core.controller().snapshot_config_mismatch(payload.data(),
                                                       payload.size())) {
          return fail(s, path + ": snapshot was written by a differently "
                                "configured controller (admission test / "
                                "platform drift)");
        }
        continue;
      }
      if (core.controller().decision_seq() != meta.decision_seq ||
          core.controller().decision_checksum() != meta.decision_checksum) {
        return fail(s, path + ": payload decision stream disagrees with "
                              "file header");
      }
      info.snapshot_seq = meta.decision_seq;
      if (meta.epoch > max_epoch) max_epoch = meta.epoch;
      break;
    }

    std::string wal_err;
    if (!io::wal_load(io::wal_path(dir, core.index()), &logs[s],
                      &info.truncated_bytes, &wal_err)) {
      return fail(s, wal_err);
    }

    for (const io::WalRecord& rec : logs[s]) {
      if (rec.epoch > max_epoch) max_epoch = rec.epoch;
      if (rec.seq <= info.snapshot_seq) continue;
      if (const char* diverged = replay(core, rec)) return fail(s, diverged);
      ++info.replayed;
      HETSCHED_COUNT(recovery_metrics().replayed);
    }
  }

  // Pass 2 — cross-shard reconciliation: a MoveIn in a replayed tail whose
  // source shard still holds the moved tenants proves the crash landed
  // between the target's fsync and the source's.  Both shards were
  // quiesced for the resize, so the missing MoveOut is after everything in
  // the source's log; running it now reproduces the pre-crash state.
  for (std::size_t t = 0; t < n; ++t) {
    for (const io::WalRecord& rec : logs[t]) {
      if (rec.type != io::WalRecordType::kMoveIn) continue;
      if (rec.seq <= out.shards[t].snapshot_seq) continue;
      if (rec.peer >= n) {
        return fail(t, "move-in names an unknown source shard");
      }
      ShardCore& src = *cores[rec.peer];
      std::size_t live = 0;
      for (const io::WalMovedTask& mt : rec.moved) {
        if (src.controller().machine_of(mt.old_id).has_value()) ++live;
      }
      if (live == 0) continue;  // the source's own log already moved them
      if (live != rec.moved.size()) {
        return fail(rec.peer, "partially applied shard move");
      }
      if (!src.move_out(static_cast<std::uint32_t>(t), rec.flags,
                        rec.moved)) {
        return fail(rec.peer, "reconciliation move-out diverged");
      }
      ++out.shards[rec.peer].reconciled;
      HETSCHED_COUNT(recovery_metrics().reconciled);
    }
  }
  out.next_epoch = max_epoch + 1;

  // Pass 3 — rotation: every recovered shard becomes its own snapshot, and
  // its WAL restarts empty at the new epoch.
  if (rotate) {
    for (std::size_t s = 0; s < n; ++s) {
      std::string err;
      if (!cores[s]->rotate(out.next_epoch, &err)) return fail(s, err);
    }
  }
  out.ok = true;
  return out;
}

}  // namespace hetsched::net
