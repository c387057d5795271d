// Fuzz target: WAL recovery (io/wal.h) — load, truncate-idempotence, and
// replay of the surviving records through a live controller.
//
// The input bytes become a WAL file.  wal_load must either reject the
// whole file (corrupt prefix) or accept a valid prefix and truncate the
// torn tail in place; in the latter case:
//   - a second load of the now-truncated file must succeed with zero
//     further truncation and bit-identical records (recovery is a fixed
//     point);
//   - the admit/depart/rebalance records must replay cleanly through an
//     OnlinePartitioner with the same guards src/net recovery applies
//     (positive exec/period for admits), exercising the real decision
//     path under ASan/UBSan.
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/platform.h"
#include "core/task.h"
#include "fuzz_driver.h"
#include "io/wal.h"
#include "online/online_partitioner.h"

namespace {

using hetsched::fuzz::require;
namespace io = hetsched::io;

const std::string& scratch_path() {
  static const std::string path = [] {
    const char* tmp = std::getenv("TMPDIR");
    return std::string(tmp != nullptr ? tmp : "/tmp") +
           "/hetsched_fuzz_wal." + std::to_string(::getpid());
  }();
  return path;
}

bool write_input(const std::string& path, const std::uint8_t* data,
                 std::size_t size) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = size == 0 || std::fwrite(data, 1, size, f) == size;
  std::fclose(f);
  return ok;
}

bool records_equal(const io::WalRecord& a, const io::WalRecord& b) {
  if (!(a.type == b.type && a.flags == b.flags && a.epoch == b.epoch &&
        a.seq == b.seq && a.checksum == b.checksum && a.exec == b.exec &&
        a.period == b.period && a.deadline == b.deadline &&
        a.task_id == b.task_id && a.peer == b.peer &&
        a.moved.size() == b.moved.size())) {
    return false;
  }
  for (std::size_t i = 0; i < a.moved.size(); ++i) {
    if (a.moved[i].deadline != b.moved[i].deadline) return false;
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string& path = scratch_path();
  if (!write_input(path, data, size)) return 0;

  std::vector<io::WalRecord> records;
  std::uint64_t truncated = 0;
  std::string error;
  if (!io::wal_load(path, &records, &truncated, &error)) {
    ::unlink(path.c_str());
    return 0;
  }

  // wal_load truncated any torn tail in place: loading again must be a
  // fixed point.
  std::vector<io::WalRecord> again;
  std::uint64_t truncated_again = 0;
  require(io::wal_load(path, &again, &truncated_again, &error),
          "reload of a truncated WAL failed");
  require(truncated_again == 0, "second load truncated more bytes");
  require(again.size() == records.size(), "reload changed the record count");
  for (std::size_t i = 0; i < records.size(); ++i) {
    require(records_equal(records[i], again[i]),
            "reload changed a record's contents");
  }
  ::unlink(path.c_str());

  // Replay through the real controllers, mirroring shard recovery's
  // guards.  Implicit admits run the legacy path; deadline-bearing
  // records (the loader guarantees a nonzero deadline on the long admit
  // body) go through the tiered subsystem, whose controller is the only
  // one allowed to see constrained tasks.
  hetsched::Platform platform =
      hetsched::Platform::from_speeds({1.0, 1.0, 2.0});
  hetsched::OnlinePartitioner controller(platform,
                                         hetsched::AdmissionKind::kEdf, 1.0);
  hetsched::OnlinePartitioner tiered(platform, hetsched::AdmissionKind::kQpa,
                                     1.0);
  std::size_t replayed = 0;
  for (const io::WalRecord& r : records) {
    if (++replayed > 256) break;  // smoke budget: bound per-input work
    switch (r.type) {
      case io::WalRecordType::kAdmit:
        if (r.exec > 0 && r.period > 0) {
          if (r.deadline == 0) {
            (void)controller.admit(hetsched::Task{r.exec, r.period});
          } else if (r.deadline > 0 && r.deadline <= r.period) {
            (void)tiered.admit(
                hetsched::Task{r.exec, r.period, r.deadline});
          }
        }
        break;
      case io::WalRecordType::kDepart:
        (void)controller.depart(r.task_id);
        break;
      case io::WalRecordType::kRebalance:
        (void)controller.rebalance();
        break;
      case io::WalRecordType::kMoveOut:
      case io::WalRecordType::kMoveIn:
        // Moves need a peer controller; the framing and moved-list bounds
        // were already validated by wal_load above.
        break;
    }
  }
  return 0;
}
