#include "obs/span.h"

#include <algorithm>
#include <unordered_map>

#include "obs/ring.h"

namespace hetsched::obs {

const char* to_string(SpanStage s) {
  switch (s) {
    case SpanStage::kDecode:
      return "decode";
    case SpanStage::kQueueHop:
      return "queue-hop";
    case SpanStage::kWarmAdmit:
      return "warm-admit";
    case SpanStage::kWalAppend:
      return "wal-append";
    case SpanStage::kGroupCommit:
      return "group-commit";
    case SpanStage::kEncode:
      return "encode";
    case SpanStage::kSendmsg:
      return "sendmsg";
  }
  return "?";
}

namespace {

// Ring slot: [trace_id, span_id, parent_id, t0_ns, t1_ns, stage].
// Parent ids are full 64-bit values, so nothing packs; the slot spends
// six words.
struct SpanCodec {
  using Record = SpanRecord;
  static constexpr std::size_t kWords = 6;
  static constexpr std::size_t kCapacity = kSpanCapacity;

  static SpanRecord unpack(const std::atomic<std::uint64_t> (&slot)[kWords]) {
    SpanRecord r;
    r.trace_id = slot[0].load(std::memory_order_relaxed);
    r.span_id = slot[1].load(std::memory_order_relaxed);
    r.parent_id = slot[2].load(std::memory_order_relaxed);
    r.t0_ns = slot[3].load(std::memory_order_relaxed);
    r.t1_ns = slot[4].load(std::memory_order_relaxed);
    r.stage =
        static_cast<SpanStage>(slot[5].load(std::memory_order_relaxed) & 0xff);
    return r;
  }
};
using SpanRings = ThreadRingSet<SpanCodec>;

constinit std::atomic<std::uint64_t> g_next_span_id{1};

}  // namespace

namespace detail {
constinit std::atomic<bool> g_span_enabled{false};
}  // namespace detail

void set_span_enabled(bool on) {
  detail::g_span_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t span_next_id() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

void span_record(std::uint64_t trace_id, std::uint64_t span_id,
                 std::uint64_t parent_id, SpanStage stage, std::uint64_t t0_ns,
                 std::uint64_t t1_ns) {
  SpanRings::local().push({trace_id, span_id, parent_id, t0_ns, t1_ns,
                           static_cast<std::uint64_t>(stage)});
}

std::vector<SpanRecord> span_drain(bool clear) {
  std::vector<SpanRecord> out = SpanRings::get().drain(clear);
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.t0_ns < b.t0_ns;
            });
  return out;
}

std::uint64_t span_dropped() { return SpanRings::get().dropped(); }

std::vector<TraceSummary> slowest_traces(std::vector<SpanRecord> spans,
                                         std::size_t k) {
  std::unordered_map<std::uint64_t, TraceSummary> by_trace;
  for (const SpanRecord& sp : spans) {
    if (sp.trace_id == 0 || sp.t1_ns < sp.t0_ns) continue;  // torn / untraced
    TraceSummary& t = by_trace[sp.trace_id];
    if (t.spans.empty()) {
      t.trace_id = sp.trace_id;
      t.t0_ns = sp.t0_ns;
      t.t1_ns = sp.t1_ns;
    } else {
      t.t0_ns = std::min(t.t0_ns, sp.t0_ns);
      t.t1_ns = std::max(t.t1_ns, sp.t1_ns);
    }
    t.spans.push_back(sp);
  }
  std::vector<TraceSummary> out;
  out.reserve(by_trace.size());
  for (auto& [id, t] : by_trace) {
    std::sort(t.spans.begin(), t.spans.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                return a.t0_ns < b.t0_ns;
              });
    out.push_back(std::move(t));
  }
  std::sort(out.begin(), out.end(),
            [](const TraceSummary& a, const TraceSummary& b) {
              return a.duration_ns() > b.duration_ns();
            });
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace hetsched::obs
