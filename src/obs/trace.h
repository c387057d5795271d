// Structured event tracing for admission decisions: a fixed-capacity
// per-thread ring of packed trace records, drained to JSONL via
// io/obs_jsonl.
//
// Hot-path contract: HETSCHED_TRACE_EVENT costs one relaxed atomic bool
// load (~1 ns) while tracing is disabled at runtime, and nothing at all
// when HETSCHED_METRICS is compiled out.  When enabled, recording an
// event is four relaxed stores into the calling thread's ring plus one
// shared fetch_add for the global sequence number — no locks, no
// allocation (the rings are embedded arrays).
//
// The rings are obs/ring.h's ThreadRingSet, shared with the span rings:
// one writer per ring (its owning thread), relaxed reads that can be torn
// while writers run — drain() is meant for end-of-run or paused-process
// inspection, where every read is exact — and rings of exited threads
// folded into a retired list, losing nothing.
//
// Capacity: each ring holds kTraceCapacity most-recent events; older
// events are overwritten and counted in trace_dropped().
#pragma once

#include "obs/metrics.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace hetsched::obs {

inline constexpr std::size_t kTraceCapacity = 1024;  // events per thread

enum class TraceKind : std::uint8_t {
  kAdmit = 0,
  kDepart = 1,
  kRebalance = 2,
};

const char* to_string(TraceKind k);

// One admission-control decision.  `value` is kind-specific: the task id
// for admit/depart, the migration count for rebalance.
struct TraceEvent {
  std::uint64_t seq = 0;   // global order of recording
  std::uint64_t t_ns = 0;  // steady-clock timestamp
  TraceKind kind = TraceKind::kAdmit;
  bool ok = false;          // admitted / departed / rebalance applied
  std::uint32_t machine = 0;  // target machine (admit) or 0
  std::uint64_t value = 0;
};

namespace detail {
// Runtime trace gate.  A process-global atomic read inline at the call
// site: a function call per gated event would cost more than the gate.
extern constinit std::atomic<bool> g_trace_enabled;
}  // namespace detail

// Runtime gate.  Tracing starts disabled; flipping it on/off is safe at
// any time from any thread.
void set_trace_enabled(bool on);
inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

// Records an event into the calling thread's ring (no-op unless tracing
// is enabled).  Prefer the HETSCHED_TRACE_EVENT macro, which compiles out
// with the metrics kill switch.
void trace_record(TraceKind kind, bool ok, std::uint32_t machine,
                  std::uint64_t value);

// Events currently held (per-thread rings of live threads plus flushed
// rings of exited threads), ordered by seq.  `clear` empties the rings
// and the retired list.  Call with writers quiescent for exact contents.
std::vector<TraceEvent> trace_drain(bool clear = true);

// Total events overwritten before they could be drained.
std::uint64_t trace_dropped();

}  // namespace hetsched::obs

#if HETSCHED_METRICS_ENABLED
#define HETSCHED_TRACE_EVENT(kind, ok, machine, value)                     \
  do {                                                                     \
    if (::hetsched::obs::trace_enabled()) [[unlikely]] {                   \
      ::hetsched::obs::trace_record((kind), (ok),                          \
                                    static_cast<std::uint32_t>(machine),   \
                                    static_cast<std::uint64_t>(value));    \
    }                                                                      \
  } while (false)
#else
#define HETSCHED_TRACE_EVENT(kind, ok, machine, value) \
  do {                                                 \
  } while (false)
#endif
