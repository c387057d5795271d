#include "obs/trace.h"

#include <algorithm>

#include "obs/ring.h"

namespace hetsched::obs {

const char* to_string(TraceKind k) {
  switch (k) {
    case TraceKind::kAdmit:
      return "admit";
    case TraceKind::kDepart:
      return "depart";
    case TraceKind::kRebalance:
      return "rebalance";
  }
  return "?";
}

namespace {

// Ring slot: [seq, t_ns, (machine << 32) | (kind << 8) | ok, value].
struct TraceCodec {
  using Record = TraceEvent;
  static constexpr std::size_t kWords = 4;
  static constexpr std::size_t kCapacity = kTraceCapacity;

  static TraceEvent unpack(const std::atomic<std::uint64_t> (&slot)[kWords]) {
    TraceEvent ev;
    ev.seq = slot[0].load(std::memory_order_relaxed);
    ev.t_ns = slot[1].load(std::memory_order_relaxed);
    const std::uint64_t packed = slot[2].load(std::memory_order_relaxed);
    ev.machine = static_cast<std::uint32_t>(packed >> 32);
    ev.kind = static_cast<TraceKind>((packed >> 8) & 0xff);
    ev.ok = (packed & 1) != 0;
    ev.value = slot[3].load(std::memory_order_relaxed);
    return ev;
  }
};
using TraceRings = ThreadRingSet<TraceCodec>;

constinit std::atomic<std::uint64_t> g_seq{0};

}  // namespace

namespace detail {
constinit std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

void set_trace_enabled(bool on) {
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

void trace_record(TraceKind kind, bool ok, std::uint32_t machine,
                  std::uint64_t value) {
  const std::uint64_t seq = g_seq.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t packed =
      (std::uint64_t{machine} << 32) |
      (std::uint64_t{static_cast<std::uint8_t>(kind)} << 8) | (ok ? 1u : 0u);
  TraceRings::local().push({seq, now_ns(), packed, value});
}

std::vector<TraceEvent> trace_drain(bool clear) {
  std::vector<TraceEvent> out = TraceRings::get().drain(clear);
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::uint64_t trace_dropped() { return TraceRings::get().dropped(); }

}  // namespace hetsched::obs
