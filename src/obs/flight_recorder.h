// Per-shard flight recorder: a fixed ring of the last kFlightCapacity
// decisions a shard made, cheap enough to run unconditionally in
// metrics-ON builds (no runtime gate — ~6 relaxed stores per decision)
// and dumped as JSONL:
//
//   * on SIGUSR1 (hetsched_cli serve handles the signal in its wait
//     loop and calls flight_dump_path),
//   * on a fatal signal (flight_install_crash_handler registers
//     SIGSEGV/SIGBUS/SIGABRT handlers that dump and re-raise), and
//   * on demand from tests / `recover` diagnostics.
//
// Concurrency: each recorder is one obs/ring.h AtomicRing with one
// writer (the shard's owner loop — the same single-writer discipline the
// WAL and queue already follow).  Dumpers read the slot atomics relaxed
// from any context, including a signal handler interrupting the writer,
// so a mid-write entry can be read torn; the dump is a diagnostic of
// last resort, not a ledger.
//
// Async-signal-safety: recorders register themselves in a fixed global
// array of atomic pointers (no locks, no allocation), and the dump path
// uses only open(2)/write(2) with hand-rolled integer formatting — every
// step is legal inside a signal handler.
//
// Dump format (one JSON object per line, numeric fields only so the
// formatter stays signal-safe; kind/status are the net/protocol.h
// MsgType/Status values):
//
//   {"seq":12,"t_ns":987,"shard":0,"kind":1,"status":0,"machine":2,
//    "request_id":41,"value":4602891378046628709,"trace_id":0}
//
// When HETSCHED_METRICS is compiled out, HETSCHED_FLIGHT_RECORD is an
// empty statement and dumps emit nothing — the hot path is bit-identical
// to an uninstrumented build (the existing checksum gate proves it).
#pragma once

#include "obs/metrics.h"
#include "obs/ring.h"

#include <cstddef>
#include <cstdint>

namespace hetsched::obs {

inline constexpr std::size_t kFlightCapacity = 256;  // entries per recorder
inline constexpr std::size_t kMaxFlightRecorders = 64;

// One recorded decision, unpacked.
struct FlightEntry {
  std::uint64_t seq = 0;   // per-recorder order of recording
  std::uint64_t t_ns = 0;  // steady-clock timestamp
  std::uint16_t shard = 0;
  std::uint8_t kind = 0;    // net::MsgType value
  std::uint8_t status = 0;  // net::Status value
  std::uint32_t machine = 0;
  std::uint64_t request_id = 0;
  std::uint64_t value = 0;
  std::uint64_t trace_id = 0;
};

class FlightRecorder {
 public:
  // Claims a slot in the global dump table; recorders beyond
  // kMaxFlightRecorders still record but are invisible to dumps.
  FlightRecorder();
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // The shard index stamped on every entry (set once at wiring time,
  // before the owner loop starts writing).
  void set_shard(std::uint16_t shard) { shard_ = shard; }
  std::uint16_t shard() const { return shard_; }

  // Single-writer append (owner loop only).  Prefer the
  // HETSCHED_FLIGHT_RECORD macro, which compiles out with the metrics
  // kill switch.
  void record(std::uint8_t kind, std::uint8_t status, std::uint32_t machine,
              std::uint64_t request_id, std::uint64_t value,
              std::uint64_t trace_id);

  // Oldest-to-newest readout into `out` (at most `max` entries); returns
  // the count.  Relaxed reads — exact when the writer is quiescent.
  std::size_t collect(FlightEntry* out, std::size_t max) const;

  // Total entries ever recorded.
  std::uint64_t recorded() const { return ring_.pushed(); }

 private:
  friend std::size_t flight_dump_fd(int fd);

  // Slot words: [t_ns, (shard<<32)|(kind<<8)|status, machine,
  //              request_id, value, trace_id]; seq is the ring index.
  AtomicRing<6, kFlightCapacity> ring_;
  std::uint16_t shard_ = 0;
  int table_slot_ = -1;
};

// Dumps every registered recorder's entries as JSONL to `fd`; returns
// the number of lines written.  Async-signal-safe (write(2) only).
std::size_t flight_dump_fd(int fd);

// open(2)s `path` (O_CREAT|O_TRUNC) and dumps into it; returns false if
// the open fails.  Async-signal-safe.
bool flight_dump_path(const char* path);

// Installs SIGSEGV/SIGBUS/SIGABRT handlers that dump all recorders to
// `path` (copied into a fixed internal buffer; truncated past 511
// bytes) and then re-raise with the default action, so the crash still
// produces its normal core/exit status.  Idempotent; pass the path the
// serve loop also uses for SIGUSR1 dumps.
void flight_install_crash_handler(const char* path);

}  // namespace hetsched::obs

// Appends one decision to a pre-wired FlightRecorder handle.  Like the
// metric macros, call sites inside HETSCHED_NOALLOC / HETSCHED_OWNER_LOOP
// functions must use a pre-registered recorder (a member wired at
// startup), never a by-name lookup — lint rule [metric-handle].
#if HETSCHED_METRICS_ENABLED
#define HETSCHED_FLIGHT_RECORD(rec, kind, status, machine, request_id, value, \
                               trace_id)                                      \
  ((rec).record(static_cast<std::uint8_t>(kind),                              \
                static_cast<std::uint8_t>(status),                            \
                static_cast<std::uint32_t>(machine),                          \
                static_cast<std::uint64_t>(request_id),                       \
                static_cast<std::uint64_t>(value),                            \
                static_cast<std::uint64_t>(trace_id)))
#else
#define HETSCHED_FLIGHT_RECORD(rec, kind, status, machine, request_id, value, \
                               trace_id)                                      \
  do {                                                                        \
  } while (false)
#endif
