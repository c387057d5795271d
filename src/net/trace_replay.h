// Bridge between io/trace_format churn traces and the wire protocol:
// replay a text trace against a live server and prove the served decision
// sequence bit-identical to an offline replay on the same platform.
//
// Both sides fold the same FNV-1a checksum (the decision_checksum fold of
// bench/bench_obs_overhead.cpp):
//
//   per arrival:    h = fnv1a(h, admitted ? 1 : 0)
//                   h = fnv1a(h, admitted ? machine : 0)
//                   h = fnv1a(h, bit pattern of the task utilization)
//   per departure of an ADMITTED task:
//                   h = fnv1a(h, departed-ok ? 1 : 0)
//
// Departures of rejected arrivals are skipped on both sides (the client
// never learned a server id for them, and the offline controller never
// held the task).  The served checksum is comparable to the offline one
// only when retries == 0 — a kRetryLater answer drops the request from
// the decision stream, so integration tests size the shard queue at least
// as large as the pipeline window and assert retries == 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "admit/admission_test.h"
#include "core/platform.h"
#include "gen/churn_gen.h"
#include "net/client.h"
#include "partition/admission.h"
#include "partition/engine.h"
#include "util/fnv.h"

namespace hetsched::net {

// FNV-1a over the 8 bytes of `v`, little-endian byte order — the shared
// util/fnv.h fold, so checksums stay comparable repo-wide (bench, WAL,
// controller decision checksum).
inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  return ::hetsched::fnv1a_u64(h, v);
}

inline constexpr std::uint64_t kFnv1aSeed = kFnv1aOffsetBasis;

// Replays the trace through a local OnlinePartitioner and returns the
// decision checksum — the reference value a served replay must reproduce.
// `admit_cfg` selects the tiered admission test (src/admit); the default,
// with no test, matches a server started without --admission-test.
std::uint64_t offline_decision_checksum(
    const Platform& platform, const ChurnTrace& trace, AdmissionKind kind,
    double alpha, PartitionEngine engine = PartitionEngine::kAuto,
    const admit::AdmitConfig& admit_cfg = {});

struct ReplaySummary {
  bool ok = false;  // transport-level success (every request answered)
  std::uint64_t checksum = kFnv1aSeed;
  std::uint64_t requests = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t departed = 0;
  std::uint64_t stale = 0;
  std::uint64_t retried = 0;  // > 0 makes `checksum` incomparable
  std::uint64_t bad = 0;
  // Client-side queue-to-response latency per request, filled only when
  // collect_latency (the load generator merges these into percentiles).
  std::vector<std::uint64_t> latencies_ns;
};

// Resumable, non-blocking replay driver: one instance per connection,
// advanced by step() whenever the socket is ready.  One thread can
// multiplex thousands of replaying connections over poll(2) — the load
// generator's connection-scaling matrix is built on this.
//
// Protocol per step(): submit due trace events while the pipeline window
// has room (departures wait until their arrival's response assigned a
// server-side id), try_flush the queued frames, and drain every response
// the socket already holds.  step() never blocks; when it returns
// kRunning, poll the client's fd for POLLIN when want_read() and POLLOUT
// when want_write(), then step again.
class PipelinedReplay {
 public:
  enum class State : std::uint8_t {
    kRunning,  // in progress — poll per want_read()/want_write(), re-step
    kDone,     // trace fully replayed; summary().ok is true
    kError,    // transport failure; summary() holds the partial counts
  };

  // The trace must outlive the replay.  `window` is the max requests in
  // flight (>= 1).
  PipelinedReplay(const ChurnTrace& trace, std::uint16_t shard,
                  std::size_t window, bool collect_latency = false);

  // Advances as far as the socket allows right now.  `client` must be the
  // same connected client on every call.
  State step(Client& client);

  State state() const { return state_; }
  bool want_read() const { return !pending_.empty(); }
  bool want_write() const { return unflushed_; }
  // Monotonic count of submits + responses — callers use deltas to detect
  // a stalled connection and apply their own no-progress timeout.
  std::uint64_t progress() const { return progress_; }
  // Final after kDone / kError; running totals while kRunning.
  const ReplaySummary& summary() const { return sum_; }

 private:
  // Per-arrival outcome as the driver learns it from responses.
  enum class Outcome : std::uint8_t {
    kPending,  // admit request sent, response not yet seen
    kAdmitted,
    kLost,  // rejected, retried, or errored — no server-side id exists
  };
  struct TaskState {
    Outcome outcome = Outcome::kPending;
    std::uint64_t server_id = 0;
  };
  struct Pending {
    bool arrival = true;
    std::uint64_t task = 0;     // trace-local task number
    std::uint64_t send_ns = 0;  // nonzero when latency collection is on
  };

  bool resolve(const Response& resp);  // false on a protocol violation

  const ChurnTrace& trace_;
  std::uint16_t shard_;
  std::size_t window_;
  bool collect_latency_;
  State state_ = State::kRunning;
  bool unflushed_ = false;
  std::size_t next_event_ = 0;
  std::uint64_t next_request_id_ = 0;
  std::uint64_t progress_ = 0;
  ReplaySummary sum_;
  std::vector<TaskState> tasks_;
  std::deque<Pending> pending_;
};

// Drives the trace through `client` with up to `window` requests in
// flight, routing everything to `shard` — the blocking convenience
// wrapper over PipelinedReplay (one poll'd connection).  `timeout_ms` is
// a no-progress budget: the replay fails if the server makes no progress
// for that long, not if the whole trace takes longer.  The client must
// already be connected.
ReplaySummary replay_trace_over_client(Client& client,
                                       const ChurnTrace& trace,
                                       std::uint16_t shard, std::size_t window,
                                       int timeout_ms,
                                       bool collect_latency = false);

}  // namespace hetsched::net
