#include "io/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/eintr.h"
#include "util/little_endian.h"

namespace hetsched::io {

namespace {

#if HETSCHED_METRICS_ENABLED
// Pre-registered handles (lint rule [metric-handle]).
struct WalMetrics {
  obs::Counter records = obs::registry().counter(
      "hetsched_wal_records_total", "WAL records appended");
  obs::Counter commits = obs::registry().counter(
      "hetsched_wal_commits_total", "WAL group commits (write batches)");
  obs::Counter fsyncs = obs::registry().counter(
      "hetsched_wal_fsyncs_total", "WAL fsync(2) calls");
  obs::LatencyHistogram fsync_ns = obs::registry().histogram(
      "hetsched_wal_fsync_ns", "fsync(2) latency on the WAL fd");
};
const WalMetrics g_wal_metrics;
#endif

// Fixed append arena: large enough for a full drain batch of warm-path
// records (<= 48 bytes each); overflow just flushes early with write(2).
constexpr std::size_t kWalArenaBytes = 64 * 1024;
// Largest record wal_load will believe; anything bigger is a torn tail.
constexpr std::size_t kMaxWalRecordBytes = 1 << 20;
// kBatch sync pacing: fsync when this much is unsynced or this much time
// passed since the last sync, whichever first.
constexpr std::uint64_t kBatchSyncBytes = 1 << 20;
constexpr std::uint64_t kBatchSyncNs = 5'000'000;  // 5 ms

constexpr std::size_t kWalHeaderBytes = 24;  // type..checksum
constexpr std::size_t kWalMovedTaskBytes = 32;
// Constrained move entries (kWalFlagConstrainedMoves) append a deadline.
constexpr std::size_t kWalMovedTaskConstrainedBytes = 40;

}  // namespace

bool parse_wal_sync(const std::string& text, WalSync* out) {
  if (text == "always") {
    *out = WalSync::kAlways;
  } else if (text == "batch") {
    *out = WalSync::kBatch;
  } else if (text == "off") {
    *out = WalSync::kOff;
  } else {
    return false;
  }
  return true;
}

const char* to_string(WalSync sync) {
  switch (sync) {
    case WalSync::kAlways:
      return "always";
    case WalSync::kBatch:
      return "batch";
    case WalSync::kOff:
      return "off";
  }
  return "?";
}

WalWriter::~WalWriter() { close(); }

bool WalWriter::open(const std::string& path, std::uint32_t epoch,
                     WalSync sync) {
  close();
  fd_ = util::retry_eintr([&] {
    return ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC,
                  0644);
  });
  if (fd_ < 0) return false;
  path_ = path;
  sync_ = sync;
  epoch_ = epoch;
  buf_.resize(kWalArenaBytes);
  used_ = 0;
  unsynced_bytes_ = 0;
  last_sync_ns_ = obs::now_ns();
  failed_ = false;
  return true;
}

void WalWriter::close() {
  if (fd_ >= 0) {
    commit(/*force_sync=*/true);  // graceful close leaves a durable log
    ::close(fd_);
    fd_ = -1;
  }
  path_.clear();
  used_ = 0;
}

bool WalWriter::write_all(const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd_, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      failed_ = true;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool WalWriter::sync_now() {
  HETSCHED_TIMED(g_wal_metrics.fsync_ns);
  HETSCHED_COUNT(g_wal_metrics.fsyncs);
  if (util::retry_eintr([this] { return ::fsync(fd_); }) != 0) {
    failed_.store(true, std::memory_order_relaxed);
    return false;
  }
  unsynced_bytes_.store(0, std::memory_order_relaxed);
  last_sync_ns_.store(obs::now_ns(), std::memory_order_relaxed);
  return true;
}

bool WalWriter::pace_sync() {
  if (fd_ < 0) return true;
  // Snapshot first, subtract after: bytes written between the load and
  // the fsync stay accounted and the next tick covers them.
  const std::uint64_t covered =
      unsynced_bytes_.load(std::memory_order_relaxed);
  if (covered == 0) return true;
  HETSCHED_TIMED(g_wal_metrics.fsync_ns);
  HETSCHED_COUNT(g_wal_metrics.fsyncs);
  // A paced sync interrupted by a signal has simply not happened yet;
  // reporting it as a commit failure would fail the whole shard, so retry
  // until the kernel gives a real answer.
  if (util::retry_eintr([this] { return ::fsync(fd_); }) != 0) {
    failed_.store(true, std::memory_order_relaxed);
    return false;
  }
  // CAS with a clamp instead of fetch_sub: an owner-side sync_now() may
  // have already zeroed the counter while we were in fsync.
  std::uint64_t cur = unsynced_bytes_.load(std::memory_order_relaxed);
  while (!unsynced_bytes_.compare_exchange_weak(
      cur, cur - std::min(cur, covered), std::memory_order_relaxed)) {
  }
  last_sync_ns_.store(obs::now_ns(), std::memory_order_relaxed);
  return true;
}

// HETSCHED_NOALLOC — early flush writes the arena, never grows it.
void WalWriter::reserve_for(std::size_t bytes) {
  if (used_ + bytes <= buf_.size()) return;
  if (write_all(buf_.data(), used_)) {
    unsynced_bytes_.fetch_add(used_, std::memory_order_relaxed);
  }
  used_ = 0;
}

// HETSCHED_NOALLOC
void WalWriter::put_header(std::size_t payload_len, WalRecordType type,
                           std::uint8_t flags, std::uint64_t seq,
                           std::uint64_t checksum) {
  std::uint8_t* p = buf_.data() + used_;
  put_u32(p, static_cast<std::uint32_t>(payload_len));
  // CRC patched after the payload is fully encoded (append_* fills it).
  put_u32(p + 4, 0);
  p[8] = static_cast<std::uint8_t>(type);
  p[9] = flags;
  put_u16(p + 10, 0);
  put_u32(p + 12, epoch_);
  put_u64(p + 16, seq);
  put_u64(p + 24, checksum);
}

// HETSCHED_NOALLOC
void WalWriter::append_admit(std::int64_t exec, std::int64_t period,
                             std::uint64_t seq, std::uint64_t checksum,
                             std::int64_t deadline, std::uint8_t tier) {
  if (fd_ < 0) return;
  const bool constrained = deadline != 0;
  const std::size_t payload = kWalHeaderBytes + (constrained ? 24 : 16);
  const std::uint8_t flags = static_cast<std::uint8_t>(
      (tier & kWalAdmitTierMask) << kWalAdmitTierShift);
  reserve_for(payload + 8);
  put_header(payload, WalRecordType::kAdmit, flags, seq, checksum);
  std::uint8_t* p = buf_.data() + used_;
  put_u64(p + 32, static_cast<std::uint64_t>(exec));
  put_u64(p + 40, static_cast<std::uint64_t>(period));
  if (constrained) put_u64(p + 48, static_cast<std::uint64_t>(deadline));
  put_u32(p + 4, crc32(p + 8, payload));
  used_ += payload + 8;
  ++records_;
  HETSCHED_COUNT(g_wal_metrics.records);
}

// HETSCHED_NOALLOC
void WalWriter::append_depart(std::uint64_t task_id, std::uint64_t seq,
                              std::uint64_t checksum) {
  if (fd_ < 0) return;
  const std::size_t payload = kWalHeaderBytes + 8;
  reserve_for(payload + 8);
  put_header(payload, WalRecordType::kDepart, 0, seq, checksum);
  std::uint8_t* p = buf_.data() + used_;
  put_u64(p + 32, task_id);
  put_u32(p + 4, crc32(p + 8, payload));
  used_ += payload + 8;
  ++records_;
  HETSCHED_COUNT(g_wal_metrics.records);
}

// HETSCHED_NOALLOC
void WalWriter::append_rebalance(std::uint64_t seq, std::uint64_t checksum) {
  if (fd_ < 0) return;
  const std::size_t payload = kWalHeaderBytes;
  reserve_for(payload + 8);
  put_header(payload, WalRecordType::kRebalance, 0, seq, checksum);
  std::uint8_t* p = buf_.data() + used_;
  put_u32(p + 4, crc32(p + 8, payload));
  used_ += payload + 8;
  ++records_;
  HETSCHED_COUNT(g_wal_metrics.records);
}

void WalWriter::append_move(WalRecordType type, std::uint16_t peer,
                            std::uint8_t flags,
                            std::span<const WalMovedTask> moved,
                            std::uint64_t seq, std::uint64_t checksum) {
  if (fd_ < 0) return;
  HETSCHED_CHECK(type == WalRecordType::kMoveOut ||
                 type == WalRecordType::kMoveIn);
  // The constrained entry shape is chosen per record, not per entry, so
  // the loader can size-check the whole body off one flag bit; records
  // with only implicit deadlines keep the legacy 32-byte entries.
  bool constrained = false;
  for (const WalMovedTask& mt : moved) constrained |= mt.deadline != 0;
  const std::size_t entry_bytes =
      constrained ? kWalMovedTaskConstrainedBytes : kWalMovedTaskBytes;
  if (constrained) flags |= kWalFlagConstrainedMoves;
  const std::size_t payload = kWalHeaderBytes + 8 + moved.size() * entry_bytes;
  HETSCHED_CHECK(payload <= kMaxWalRecordBytes);
  if (payload + 8 > buf_.size()) buf_.resize(payload + 8);  // cold path
  reserve_for(payload + 8);
  put_header(payload, type, flags, seq, checksum);
  std::uint8_t* p = buf_.data() + used_;
  put_u16(p + 32, peer);
  put_u16(p + 34, 0);
  put_u32(p + 36, static_cast<std::uint32_t>(moved.size()));
  std::size_t off = 40;
  for (const WalMovedTask& mt : moved) {
    put_u64(p + off, mt.old_id);
    put_u64(p + off + 8, mt.new_id);
    put_u64(p + off + 16, static_cast<std::uint64_t>(mt.exec));
    put_u64(p + off + 24, static_cast<std::uint64_t>(mt.period));
    if (constrained) {
      put_u64(p + off + 32, static_cast<std::uint64_t>(mt.deadline));
    }
    off += entry_bytes;
  }
  put_u32(p + 4, crc32(p + 8, payload));
  used_ += payload + 8;
  ++records_;
  HETSCHED_COUNT(g_wal_metrics.records);
}

bool WalWriter::commit(bool force_sync) {
  if (fd_ < 0) return false;
  if (used_ > 0) {
    if (!write_all(buf_.data(), used_)) {
      used_ = 0;
      return false;
    }
    unsynced_bytes_.fetch_add(used_, std::memory_order_relaxed);
    used_ = 0;
    ++commits_;
    HETSCHED_COUNT(g_wal_metrics.commits);
  }
  const std::uint64_t unsynced =
      unsynced_bytes_.load(std::memory_order_relaxed);
  if (unsynced > 0) {
    // With a pacer thread running, its ticks keep last_sync_ns_ fresh, so
    // this inline time check almost never fires — it is the fallback for
    // pacer-less writers (recovery, tools) and a stalled pacer.
    const bool want_sync =
        force_sync || sync_ == WalSync::kAlways ||
        (sync_ == WalSync::kBatch &&
         (unsynced >= kBatchSyncBytes ||
          (!paced_ &&
           obs::now_ns() - last_sync_ns_.load(std::memory_order_relaxed) >=
               kBatchSyncNs)));
    if (want_sync && !sync_now()) return false;
  }
  return !failed_.load(std::memory_order_relaxed);
}

bool WalWriter::truncate_restart(std::uint32_t epoch) {
  if (fd_ < 0) return false;
  used_ = 0;
  if (util::retry_eintr([this] { return ::ftruncate(fd_, 0); }) != 0) {
    failed_ = true;
    return false;
  }
  epoch_ = epoch;
  unsynced_bytes_ = 0;
  return sync_now();
}

bool wal_load(const std::string& path, std::vector<WalRecord>* out,
              std::uint64_t* truncated_bytes, std::string* error) {
  out->clear();
  if (truncated_bytes != nullptr) *truncated_bytes = 0;
  const int fd = util::retry_eintr(
      [&] { return ::open(path.c_str(), O_RDWR | O_CLOEXEC); });
  if (fd < 0) {
    if (errno == ENOENT) return true;  // no log yet: empty history
    if (error != nullptr) *error = path + ": " + std::strerror(errno);
    return false;
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = path + ": " + std::strerror(errno);
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), chunk, chunk + n);
  }

  std::size_t off = 0;
  const std::size_t size = bytes.size();
  while (off + 8 <= size) {
    const std::uint8_t* frame = bytes.data() + off;
    const std::uint32_t len = get_u32(frame);
    const std::uint32_t crc = get_u32(frame + 4);
    if (len < kWalHeaderBytes || len > kMaxWalRecordBytes ||
        off + 8 + len > size) {
      break;  // torn tail
    }
    const std::uint8_t* p = frame + 8;
    if (crc32(p, len) != crc) break;  // corrupt: everything after is suspect
    WalRecord rec;
    const std::uint8_t type = p[0];
    if (type < 1 || type > 5) break;
    rec.type = static_cast<WalRecordType>(type);
    rec.flags = p[1];
    rec.epoch = get_u32(p + 4);
    rec.seq = get_u64(p + 8);
    rec.checksum = get_u64(p + 16);
    bool shape_ok = true;
    switch (rec.type) {
      case WalRecordType::kAdmit:
        // 16-byte body: implicit deadline; 24-byte: constrained (the
        // trailing deadline must be nonzero — a zero one would alias the
        // legacy image and break one-record-one-encoding).
        shape_ok =
            len == kWalHeaderBytes + 16 || len == kWalHeaderBytes + 24;
        if (shape_ok) {
          rec.exec = static_cast<std::int64_t>(get_u64(p + 24));
          rec.period = static_cast<std::int64_t>(get_u64(p + 32));
          if (len == kWalHeaderBytes + 24) {
            rec.deadline = static_cast<std::int64_t>(get_u64(p + 40));
            shape_ok = rec.deadline != 0;
          }
        }
        break;
      case WalRecordType::kDepart:
        shape_ok = len == kWalHeaderBytes + 8;
        if (shape_ok) rec.task_id = get_u64(p + 24);
        break;
      case WalRecordType::kRebalance:
        shape_ok = len == kWalHeaderBytes;
        break;
      case WalRecordType::kMoveOut:
      case WalRecordType::kMoveIn: {
        shape_ok = len >= kWalHeaderBytes + 8;
        if (!shape_ok) break;
        rec.peer = get_u16(p + 24);
        const std::uint32_t count = get_u32(p + 28);
        const std::size_t entry_bytes =
            (rec.flags & kWalFlagConstrainedMoves) != 0
                ? kWalMovedTaskConstrainedBytes
                : kWalMovedTaskBytes;
        shape_ok = len == kWalHeaderBytes + 8 +
                              static_cast<std::size_t>(count) * entry_bytes;
        if (!shape_ok) break;
        rec.moved.resize(count);
        std::size_t moff = kWalHeaderBytes + 8;
        for (WalMovedTask& mt : rec.moved) {
          mt.old_id = get_u64(p + moff);
          mt.new_id = get_u64(p + moff + 8);
          mt.exec = static_cast<std::int64_t>(get_u64(p + moff + 16));
          mt.period = static_cast<std::int64_t>(get_u64(p + moff + 24));
          if (entry_bytes == kWalMovedTaskConstrainedBytes) {
            mt.deadline = static_cast<std::int64_t>(get_u64(p + moff + 32));
          }
          moff += entry_bytes;
        }
        break;
      }
    }
    if (!shape_ok) break;
    out->push_back(std::move(rec));
    off += 8 + len;
  }

  bool ok = true;
  if (off < size) {
    if (truncated_bytes != nullptr) *truncated_bytes = size - off;
    if (util::retry_eintr(
            [&] { return ::ftruncate(fd, static_cast<off_t>(off)); }) != 0 ||
        util::retry_eintr([&] { return ::fsync(fd); }) != 0) {
      if (error != nullptr) *error = path + ": " + std::strerror(errno);
      ok = false;
    }
  }
  ::close(fd);
  return ok;
}

}  // namespace hetsched::io
