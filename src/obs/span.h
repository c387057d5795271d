// Per-request span tracing for the admission service: fixed-size span
// records (trace id, parent, stage, t0/t1 ns) written lock-free to
// per-thread rings, on the same machinery as obs/trace.h.
//
// A *trace* is one client request followed across the server's pipeline
// stages (SpanStage); the client stamps an 8-byte nonzero trace id into
// the request frame (net/protocol.h, protocol minor 2) and every stage
// the frame passes through records one span.  Untraced requests (trace
// id 0 — everything an old minor-1 client sends) record nothing.
//
// Hot-path contract: while spans are disabled at runtime, the only cost
// at an instrumented site is one relaxed atomic bool load; when
// HETSCHED_METRICS is compiled out the macros below are empty
// statements.  With spans enabled, untraced requests pay the gate load
// plus (at some sites) one clock read; only requests that carry a trace
// id pay the full record: six relaxed stores into the calling thread's
// ring plus one shared fetch_add for the span id.
//
// The rings are obs/ring.h's ThreadRingSet, the same per-thread rings
// the decision trace uses: one writer per ring (the owning thread), drain
// reads live rings relaxed (torn reads possible while writers run —
// span_drain is exact once writers are quiescent, and best-effort for
// live `tracez` inspection), and rings of exited threads are folded into
// a retired list so no span is lost at thread exit.
#pragma once

#include "obs/metrics.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace hetsched::obs {

inline constexpr std::size_t kSpanCapacity = 1024;  // spans per thread

// Pipeline stages of one request through net/server.cc, in wire order.
// kQueueHop only appears for requests that crossed loops through a shard
// queue; kGroupCommit/kSendmsg are batch-level — every traced frame in
// the batch records the same [t0, t1] interval.
enum class SpanStage : std::uint8_t {
  kDecode = 0,       // bytes off the socket -> decoded Request
  kQueueHop = 1,     // cross-loop shard-queue residency
  kWarmAdmit = 2,    // partitioner decision (admit/depart/...)
  kWalAppend = 3,    // WAL record append (child of kWarmAdmit)
  kGroupCommit = 4,  // batch fsync/commit before responses leave
  kEncode = 5,       // Response -> bytes
  kSendmsg = 6,      // staged bytes -> kernel
};
inline constexpr std::size_t kSpanStageCount = 7;

const char* to_string(SpanStage s);

// One completed stage interval of one traced request.
struct SpanRecord {
  std::uint64_t trace_id = 0;   // client-stamped, nonzero
  std::uint64_t span_id = 0;    // process-unique, nonzero
  std::uint64_t parent_id = 0;  // 0 for stage roots; kWalAppend parents
                                // to its kWarmAdmit span
  SpanStage stage = SpanStage::kDecode;
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
};

namespace detail {
// Runtime span gate, read inline at call sites like g_trace_enabled.
extern constinit std::atomic<bool> g_span_enabled;
}  // namespace detail

// Runtime gate, independent of set_trace_enabled: decision tracing and
// span tracing toggle separately.  Off by default; safe to flip from any
// thread at any time.
void set_span_enabled(bool on);
inline bool span_enabled() {
  return detail::g_span_enabled.load(std::memory_order_relaxed);
}

// Process-unique nonzero span id (shared fetch_add).
std::uint64_t span_next_id();

// Records one completed span into the calling thread's ring.  Callers
// gate on span_enabled() and a nonzero trace id themselves (they already
// branched to take the clock reads); the HETSCHED_SPAN_RECORD macro
// wraps both checks for one-shot sites.
void span_record(std::uint64_t trace_id, std::uint64_t span_id,
                 std::uint64_t parent_id, SpanStage stage, std::uint64_t t0_ns,
                 std::uint64_t t1_ns);

// Spans currently held (live rings plus the retired fold of exited
// threads), ordered by t0.  `clear` empties rings and the retired list.
// Exact once writers are quiescent; best-effort (torn reads possible)
// while they run — live readers should discard records with t1 < t0 or
// a zero trace id.
std::vector<SpanRecord> span_drain(bool clear = true);

// Total spans overwritten before they could be drained.
std::uint64_t span_dropped();

// Span-site helpers for the server pipeline (net/server.cc).  A site
// stamps a start time, runs its stage, then records [t0, now]; the
// helpers carry the gates so the sites need no #if.  With HETSCHED_METRICS
// compiled out each is a constant 0 or an empty body, and the clock
// reads, id allocations and gate loads fold away with it.

// Whether a frame carrying `trace_id` records spans: compiled in, armed
// at runtime, and traced (nonzero id).
inline bool span_traced(std::uint64_t trace_id) {
  return kMetricsCompiled && trace_id != 0 && span_enabled();
}

// Start stamp for a span whose trace id is not known yet (a frame about
// to be decoded): now_ns() while spans are armed, else 0.
inline std::uint64_t span_clock() {
  return kMetricsCompiled && span_enabled() ? now_ns() : 0;
}

// Start stamp when `on` (the site's gate held), else 0.
inline std::uint64_t span_clock_if(bool on) {
  return kMetricsCompiled && on ? now_ns() : 0;
}

// When `on`, records [t0_ns, now] as a fresh span of `trace_id` under
// `parent_id` and returns its id; otherwise records nothing, returns 0.
inline std::uint64_t span_close(bool on, std::uint64_t trace_id,
                                std::uint64_t parent_id, SpanStage stage,
                                std::uint64_t t0_ns) {
  if (!kMetricsCompiled || !on) return 0;
  const std::uint64_t id = span_next_id();
  span_record(trace_id, id, parent_id, stage, t0_ns, now_ns());
  return id;
}

// One trace reassembled from its spans, for `tracez`-style inspection.
struct TraceSummary {
  std::uint64_t trace_id = 0;
  std::uint64_t t0_ns = 0;  // min span t0
  std::uint64_t t1_ns = 0;  // max span t1
  std::vector<SpanRecord> spans;  // t0 order

  std::uint64_t duration_ns() const { return t1_ns - t0_ns; }
};

// Groups spans by trace id and returns the k slowest traces (by end-to-
// end duration), slowest first.  Records that look torn (t1 < t0 or
// trace id 0) are discarded.  Cold path: allocates freely.
std::vector<TraceSummary> slowest_traces(std::vector<SpanRecord> spans,
                                         std::size_t k);

}  // namespace hetsched::obs

// Records a completed span interval iff spans are compiled in, enabled at
// runtime, and `trace_id` is nonzero.  Instrumentation inside
// HETSCHED_NOALLOC / HETSCHED_OWNER_LOOP functions must pass plain
// values — never a by-name registry lookup; tools/lint/hetsched_lint
// rule [metric-handle] enforces this.
#if HETSCHED_METRICS_ENABLED
#define HETSCHED_SPAN_RECORD(trace_id, span_id, parent_id, stage, t0, t1)   \
  do {                                                                      \
    if ((trace_id) != 0 && ::hetsched::obs::span_enabled()) [[unlikely]] {  \
      ::hetsched::obs::span_record((trace_id), (span_id), (parent_id),      \
                                   (stage), (t0), (t1));                    \
    }                                                                       \
  } while (false)
#else
#define HETSCHED_SPAN_RECORD(trace_id, span_id, parent_id, stage, t0, t1) \
  do {                                                                    \
  } while (false)
#endif
