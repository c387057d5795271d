// Pins the configuration ids controller snapshots persist.  An empty
// controller of every named admission test, plus an `auto` one with a
// non-default band and overheads, serializes to fixed bytes: version 1
// (the paper's tests) holds the kind id 0-3, version 2 (the tests that
// take deadlines) the tier-0 fold's kind id, the test id 1-5, the band
// bits and the overheads.  Each snapshot restores into a controller of the
// same test, and every other test refuses it as a configuration mismatch.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "admit/admission_test.h"
#include "online/online_partitioner.h"

namespace hetsched {
namespace {

struct Pinned {
  const char* name;
  AdmissionKind kind;  // the --admission kind
  const char* test;    // the --admission-test, nullptr for legacy
  double band;
  std::int64_t release_overhead;
  std::int64_t preempt_overhead;
  const char* header;  // hex of the snapshot header the controller writes
};

// The state of an empty controller on two machines: next_seq,
// decision_seq, the FNV-1a offset basis as the decision checksum,
// resident count, slot and free-list counts, two empty resident lists.
constexpr const char* kEmptyState =
    "0000000000000000" "0000000000000000" "25232284e49cf2cb"
    "0000000000000000" "00000000" "00000000" "00000000" "00000000";

// Header: magic "HOPS", version, kind, machine count, alpha = 1.0 bits;
// version 2 adds the test id, band bits and the two overheads.
const Pinned kPinned[] = {
    {"edf", AdmissionKind::kEdf, nullptr, 0.5, 0, 0,
     "484f5053" "01000000" "00000000" "02000000" "000000000000f03f"},
    {"rms-ll", AdmissionKind::kRmsLiuLayland, nullptr, 0.5, 0, 0,
     "484f5053" "01000000" "01000000" "02000000" "000000000000f03f"},
    {"rms-hb", AdmissionKind::kRmsHyperbolic, nullptr, 0.5, 0, 0,
     "484f5053" "01000000" "02000000" "02000000" "000000000000f03f"},
    {"rms-rta", AdmissionKind::kRmsResponseTime, nullptr, 0.5, 0, 0,
     "484f5053" "01000000" "03000000" "02000000" "000000000000f03f"},
    {"bound", AdmissionKind::kEdf, "bound", 0.5, 0, 0,
     "484f5053" "02000000" "00000000" "02000000" "000000000000f03f"
     "01000000" "000000000000e03f" "0000000000000000" "0000000000000000"},
    {"dbf-approx", AdmissionKind::kEdf, "dbf-approx", 0.5, 0, 0,
     "484f5053" "02000000" "00000000" "02000000" "000000000000f03f"
     "02000000" "000000000000e03f" "0000000000000000" "0000000000000000"},
    {"qpa", AdmissionKind::kEdf, "qpa", 0.5, 0, 0,
     "484f5053" "02000000" "00000000" "02000000" "000000000000f03f"
     "03000000" "000000000000e03f" "0000000000000000" "0000000000000000"},
    {"rta", AdmissionKind::kEdf, "rta", 0.5, 0, 0,
     "484f5053" "02000000" "01000000" "02000000" "000000000000f03f"
     "04000000" "000000000000e03f" "0000000000000000" "0000000000000000"},
    {"auto", AdmissionKind::kEdf, "auto", 0.5, 0, 0,
     "484f5053" "02000000" "00000000" "02000000" "000000000000f03f"
     "05000000" "000000000000e03f" "0000000000000000" "0000000000000000"},
    {"auto-tuned", AdmissionKind::kEdf, "auto", 0.25, 3, 2,
     "484f5053" "02000000" "00000000" "02000000" "000000000000f03f"
     "05000000" "000000000000d03f" "0300000000000000" "0200000000000000"},
};

OnlinePartitioner make(const Pinned& p) {
  admit::AdmitConfig cfg;
  if (p.test != nullptr) cfg.test = *admit::test_from_name(p.test);
  cfg.band = p.band;
  cfg.release_overhead = p.release_overhead;
  cfg.preempt_overhead = p.preempt_overhead;
  return OnlinePartitioner(Platform::from_speeds({1.0, 1.5}), p.kind, 1.0,
                           PartitionEngine::kAuto, cfg);
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  char buf[3];
  for (const std::uint8_t b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

TEST(SnapshotIds, EmptySnapshotBytesArePinned) {
  for (const Pinned& p : kPinned) {
    EXPECT_EQ(hex(make(p).serialize_snapshot()),
              std::string(p.header) + kEmptyState)
        << p.name;
  }
}

TEST(SnapshotIds, OnlyTheSameTestRestores) {
  for (const Pinned& a : kPinned) {
    const std::vector<std::uint8_t> bytes = make(a).serialize_snapshot();
    for (const Pinned& b : kPinned) {
      OnlinePartitioner c = make(b);
      const bool same = &a == &b;
      EXPECT_EQ(c.snapshot_config_mismatch(bytes.data(), bytes.size()), !same)
          << a.name << " read by " << b.name;
      EXPECT_EQ(c.restore_bytes(bytes.data(), bytes.size()), same)
          << a.name << " read by " << b.name;
    }
  }
}

}  // namespace
}  // namespace hetsched
