// Zero-overhead-when-off observability: counters, gauges, and log-spaced
// latency histograms behind a preallocated, lock-free registry.
//
// Design (mirrors the per-CPU counter idiom of production allocators):
//   * Every metric is a small value handle (an index into fixed-capacity
//     arrays) obtained from registry() at registration time.  Registration
//     is mutex-protected and idempotent by name; it happens once per
//     process in cold code (function-local statics in the instrumented
//     TUs), never on a hot path.
//   * Writes go to a thread-local block of relaxed atomics: an increment
//     is a plain load/store pair on memory only this thread writes, so the
//     hot path takes no lock, no lock-prefixed RMW, and allocates nothing.
//     Readers (snapshot/expose) sum across all live thread blocks plus the
//     fold of exited threads; totals are eventually consistent while
//     writers run and exact after the writing threads are joined.
//   * Latency histograms use log-spaced ns buckets: bucket b counts
//     samples in [2^b, 2^{b+1}) ns (bucket 0 also absorbs 0).  This is
//     exactly the bucket a stats::Histogram(0, 64, 64) over log2(ns)
//     selects, so tests cross-check the two implementations bucket by
//     bucket (tests/obs_test.cpp).
//   * Timing hot operations with two clock reads per call would dwarf a
//     ~100 ns warm admit, so HETSCHED_TIMED_SAMPLED times one call in
//     kLatencySamplePeriod (per call site, per thread) and the others pay
//     only a thread-local tick increment.  HETSCHED_TIMED times every
//     call; use it where the operation is micro-seconds or rarer.
//
// Kill switch (same pattern as partition/audit.h): unless the build
// defines HETSCHED_METRICS (-DHETSCHED_METRICS=ON in CMake), every
// HETSCHED_COUNT / HETSCHED_COUNT_ADD / HETSCHED_GAUGE_SET /
// HETSCHED_GAUGE_REGISTER / HETSCHED_HIST_RECORD / HETSCHED_TIMED /
// HETSCHED_TIMED_SAMPLED / HETSCHED_TRACE_EVENT use compiles to an empty
// statement, so default Release binaries carry no instrumentation at all
// — bench_obs_overhead proves the OFF build makes bit-identical
// decisions at unchanged latency.  Wrap the handle definitions
// themselves in `#if HETSCHED_METRICS_ENABLED` blocks, again like the
// audit hooks.
//
// Instrumentation inside HETSCHED_NOALLOC-annotated functions must pass a
// pre-registered handle to these macros, never a by-name registry lookup;
// tools/lint/hetsched_lint rule [metric-handle] enforces this.
#pragma once

#ifdef HETSCHED_METRICS
#define HETSCHED_METRICS_ENABLED 1
#else
#define HETSCHED_METRICS_ENABLED 0
#endif

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hetsched::obs {

// True when the instrumentation macros are compiled in.
inline constexpr bool kMetricsCompiled = HETSCHED_METRICS_ENABLED != 0;

// Fixed registry capacities; registration past these aborts (bump the
// constant — the point is that capacity is a compile-time decision, not a
// runtime reallocation under concurrent readers).
inline constexpr std::size_t kMaxCounters = 128;
inline constexpr std::size_t kMaxGauges = 64;
inline constexpr std::size_t kMaxHistograms = 16;
// One bucket per power of two of nanoseconds: bucket b counts
// [2^b, 2^{b+1}) ns; bucket 0 also absorbs 0 ns; bucket 63 is open-ended.
inline constexpr std::size_t kHistogramBuckets = 64;
// HETSCHED_TIMED_SAMPLED times 1 call in this many (power of two).  The
// period is sized for ~100 ns operations under a slow clock source: some
// virtualized hosts make a steady_clock read cost several hundred ns, so
// even a 1-in-64 sampling rate is a measurable tax on a warm admit.  At
// 1/1024 the amortized clock cost is well under 1 ns while any sustained
// workload still collects thousands of samples per second.
inline constexpr std::uint32_t kLatencySamplePeriod = 1024;

// Monotonic nanoseconds (steady_clock); the epoch is arbitrary, only
// differences and ordering are meaningful.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// floor(log2(ns)) clamped to the bucket range; 0 for ns == 0.
inline std::size_t latency_bucket(std::uint64_t ns) {
  return ns == 0 ? 0 : static_cast<std::size_t>(std::bit_width(ns)) - 1;
}

// Inclusive lower / exclusive upper edge of bucket b, in ns.
inline std::uint64_t bucket_lo_ns(std::size_t b) {
  return b == 0 ? 0 : std::uint64_t{1} << b;
}
inline std::uint64_t bucket_hi_ns(std::size_t b) {
  return b + 1 >= kHistogramBuckets ? ~std::uint64_t{0}
                                    : std::uint64_t{1} << (b + 1);
}

class Registry;
Registry& registry();

namespace detail {

// Per-thread metric storage.  Only the owning thread writes; the registry
// reads everything with relaxed loads, so all fields are atomics (no data
// race) but no write ever needs a lock-prefixed instruction.
struct ThreadBlock {
  std::atomic<std::uint64_t> counters[kMaxCounters] = {};
  std::atomic<std::uint64_t> hist_buckets[kMaxHistograms][kHistogramBuckets] =
      {};
  std::atomic<std::uint64_t> hist_count[kMaxHistograms] = {};
  std::atomic<std::uint64_t> hist_sum[kMaxHistograms] = {};

  // Single-writer increment: relaxed load + store, no RMW.
  static void bump(std::atomic<std::uint64_t>& cell, std::uint64_t n) {
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }
};

// Registers the block with the registry on first use and folds it into the
// registry's retired totals on thread exit.
struct ThreadBlockHolder {
  ThreadBlockHolder();
  ~ThreadBlockHolder();
  ThreadBlockHolder(const ThreadBlockHolder&) = delete;
  ThreadBlockHolder& operator=(const ThreadBlockHolder&) = delete;
  ThreadBlock block;
};

// Raw-pointer fast path: a trivially-initialized thread_local needs no
// init guard, so the common case is one TLS load and a predictable null
// test.  (A function-local `thread_local ThreadBlockHolder` would pay a
// guard check per call — measurable at ~5 bumps per ~40 ns warm admit.)
// attach_local_block (cold, metrics.cc) constructs the holder, which
// registers with the registry and folds into its retired totals on
// thread exit.  Bumps after the holder's destruction land in the dead
// block and are dropped — same loss window the guarded variant had.
// constinit matters: without it every cross-TU access pays the C++
// thread-local init-wrapper check (load, test, conditional call) and the
// compiler cannot CSE the TLS load across adjacent bumps.
extern thread_local constinit ThreadBlock* t_block;
ThreadBlock& attach_local_block();

inline ThreadBlock& local_block() {
  ThreadBlock* b = t_block;
  if (b == nullptr) [[unlikely]] return attach_local_block();
  return *b;
}

// Gauge cells are process-global atomics owned by the registry (gauges are
// cold: queue depths, worker counts).  Defined in metrics.cc.
void gauge_store(std::uint32_t id, std::int64_t v);
void gauge_add(std::uint32_t id, std::int64_t delta);

}  // namespace detail

// Monotonic counter handle.  Copyable, trivially small; obtain from
// Registry::counter() once (cold) and keep it.
class Counter {
 public:
  Counter() = default;
  void inc() const { add(1); }
  void add(std::uint64_t n) const {
    detail::ThreadBlock::bump(detail::local_block().counters[id_], n);
  }
  std::uint32_t id() const { return id_; }

 private:
  friend class Registry;
  explicit Counter(std::uint32_t id) : id_(id) {}
  std::uint32_t id_ = 0;
};

// Last-write-wins gauge.  Gauges are not hot-path objects (queue depths,
// worker counts), so they live as plain process-global atomics.
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v) const { detail::gauge_store(id_, v); }
  void add(std::int64_t delta) const { detail::gauge_add(id_, delta); }
  std::uint32_t id() const { return id_; }

 private:
  friend class Registry;
  explicit Gauge(std::uint32_t id) : id_(id) {}
  std::uint32_t id_ = 0;
};

// Log-spaced latency histogram handle (see the bucket map above).
class LatencyHistogram {
 public:
  LatencyHistogram() = default;
  void record_ns(std::uint64_t ns) const {
    detail::ThreadBlock& tb = detail::local_block();
    detail::ThreadBlock::bump(tb.hist_buckets[id_][latency_bucket(ns)], 1);
    detail::ThreadBlock::bump(tb.hist_count[id_], 1);
    detail::ThreadBlock::bump(tb.hist_sum[id_], ns);
  }
  std::uint32_t id() const { return id_; }

 private:
  friend class Registry;
  explicit LatencyHistogram(std::uint32_t id) : id_(id) {}
  std::uint32_t id_ = 0;
};

// Aggregated view of one histogram at one instant.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::uint64_t buckets[kHistogramBuckets] = {};

  double mean_ns() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum_ns) /
                            static_cast<double>(count);
  }
  // Percentile estimate (p in [0, 100]): walks the cumulative bucket
  // counts and interpolates linearly inside the covering bucket.  The
  // error is bounded by the bucket width (a factor of 2 in ns).
  double percentile_ns(double p) const;
};

class Registry {
 public:
  // Registration is idempotent by name: re-registering returns the same
  // handle, so function-local static handle structs are safe everywhere.
  // Aborts (HETSCHED_CHECK) on capacity overflow or on a name collision
  // across metric types.
  Counter counter(std::string_view name, std::string_view help);
  Gauge gauge(std::string_view name, std::string_view help);
  LatencyHistogram histogram(std::string_view name, std::string_view help);

  // --- aggregation (locks; never called from hot paths) ---------------
  std::uint64_t counter_value(Counter c) const;
  std::int64_t gauge_value(Gauge g) const;
  HistogramSnapshot histogram_snapshot(LatencyHistogram h) const;

  // Prometheus-style text snapshot of every registered metric, plus a
  // `# percentiles <name> p50=... p95=... p99=... p999=...` comment per
  // histogram (README "Observability" documents the format).
  std::string expose() const;

  // Zeroes every counter/gauge/histogram (live blocks and retired
  // totals).  Test scaffolding only: callers must ensure no other thread
  // is concurrently writing, or the zeroing is merely best-effort.
  void reset();

 private:
  friend struct detail::ThreadBlockHolder;
  struct Meta {
    std::string name;
    std::string help;
  };

  void attach(detail::ThreadBlock* block);
  void detach(detail::ThreadBlock* block);

  std::uint64_t locked_counter_value(std::uint32_t id) const;
  HistogramSnapshot locked_histogram_snapshot(std::uint32_t id) const;

  mutable std::mutex mu_;
  std::vector<Meta> counter_meta_;
  std::vector<Meta> gauge_meta_;
  std::vector<Meta> histogram_meta_;
  std::vector<detail::ThreadBlock*> blocks_;
  detail::ThreadBlock retired_;  // folded totals of exited threads
};

// RAII timer feeding a LatencyHistogram.  `armed == false` makes both the
// constructor and destructor near-free (no clock read) — that is how
// HETSCHED_TIMED_SAMPLED skips most calls.  The armed paths are outlined
// cold functions (metrics.cc): inlining the clock calls into a ~40 ns
// instrumented function costs more in register pressure than the outline
// call costs the rare armed invocation.
class ScopedLatencyTimer {
 public:
  ScopedLatencyTimer(LatencyHistogram h, bool armed) : h_(h), armed_(armed) {
    if (armed) [[unlikely]] arm();
  }
  ~ScopedLatencyTimer() {
    if (armed_) [[unlikely]] finish();
  }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  void arm();     // start_ns_ = now_ns()
  void finish();  // record now_ns() - start_ns_ into h_

  LatencyHistogram h_;
  bool armed_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace hetsched::obs

// ---------------------------------------------------------------------------
// Instrumentation macros.  When HETSCHED_METRICS is off, every one of these
// expands to an empty statement and the argument expressions are discarded
// textually — the handles they name need not even exist.
// ---------------------------------------------------------------------------

#if HETSCHED_METRICS_ENABLED

#define HETSCHED_OBS_CAT2(a, b) a##b
#define HETSCHED_OBS_CAT(a, b) HETSCHED_OBS_CAT2(a, b)

// Bump a pre-registered Counter handle by 1 / by n.
#define HETSCHED_COUNT(handle) ((handle).inc())
#define HETSCHED_COUNT_ADD(handle, n) \
  ((handle).add(static_cast<std::uint64_t>(n)))

// Store / adjust a pre-registered Gauge handle.
#define HETSCHED_GAUGE_SET(handle, v) \
  ((handle).set(static_cast<std::int64_t>(v)))
#define HETSCHED_GAUGE_ADD(handle, d) \
  ((handle).add(static_cast<std::int64_t>(d)))

// Register a gauge whose name is built at runtime (a per-instance gauge
// carrying a shard or loop index) into `handle`.  Cold code only: the
// registration locks and allocates.
#define HETSCHED_GAUGE_REGISTER(handle, name, help) \
  ((handle) = ::hetsched::obs::registry().gauge((name), (help)))

// Record one sample into a pre-registered LatencyHistogram handle.
#define HETSCHED_HIST_RECORD(handle, v) \
  ((handle).record_ns(static_cast<std::uint64_t>(v)))

// Time the rest of the enclosing scope into a pre-registered
// LatencyHistogram handle.  Every call is timed — use only where the
// operation is long (micro-seconds+) relative to two clock reads.
#define HETSCHED_TIMED(handle)                      \
  ::hetsched::obs::ScopedLatencyTimer HETSCHED_OBS_CAT( \
      hetsched_obs_timer_, __LINE__)((handle), true)

// Like HETSCHED_TIMED but arms the clock for only 1 call in
// kLatencySamplePeriod per call site per thread; the remaining calls pay a
// thread-local tick increment (~1 ns).  This is the variant for ~100 ns
// hot paths (warm admit), where unsampled timing would dominate.
#define HETSCHED_TIMED_SAMPLED(handle)                                        \
  static thread_local std::uint32_t HETSCHED_OBS_CAT(hetsched_obs_tick_,      \
                                                     __LINE__) = 0;           \
  ::hetsched::obs::ScopedLatencyTimer HETSCHED_OBS_CAT(                       \
      hetsched_obs_timer_, __LINE__)(                                         \
      (handle), (++HETSCHED_OBS_CAT(hetsched_obs_tick_, __LINE__) &           \
                 (::hetsched::obs::kLatencySamplePeriod - 1)) == 0)

#else  // !HETSCHED_METRICS_ENABLED

#define HETSCHED_COUNT(handle) \
  do {                         \
  } while (false)
#define HETSCHED_COUNT_ADD(handle, n) \
  do {                                \
  } while (false)
#define HETSCHED_GAUGE_SET(handle, v) \
  do {                                \
  } while (false)
#define HETSCHED_GAUGE_ADD(handle, d) \
  do {                                \
  } while (false)
#define HETSCHED_GAUGE_REGISTER(handle, name, help) \
  do {                                              \
  } while (false)
#define HETSCHED_HIST_RECORD(handle, v) \
  do {                                  \
  } while (false)
#define HETSCHED_TIMED(handle) \
  do {                         \
  } while (false)
#define HETSCHED_TIMED_SAMPLED(handle) \
  do {                                 \
  } while (false)

#endif  // HETSCHED_METRICS_ENABLED
