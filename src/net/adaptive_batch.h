// Adaptive batch sizing for the thread-per-core network plane (server.h).
//
// A shard queue pop, and a readable socket's frame run while the loop
// keeps reading that one connection, are bounded by a frame budget: each
// budget's worth of answers is group-committed and sent before the next
// frame is decided.  (A read on a different connection from the loop's
// previous read ignores the budget and flushes once at its end, or when
// the staging buffer fills: there an early flush only delays the other
// connection.)  The right budget depends on load, and the two ends of the
// trade-off pull in opposite directions:
//
//   * idle / trickle traffic: a budget of 1 means every decision is
//     encoded and flushed immediately — minimum added latency, and the
//     extra syscalls are free because the loop was about to sleep anyway.
//   * saturation: a large budget coalesces a full run of responses into
//     one writev, cutting the syscall count per frame by the batch size —
//     exactly the overhead BENCH_net.json shows dominating served p50.
//
// AdaptiveBatch walks the budget between kMinFrames and kMaxFrames with
// two rules applied after every drain round:
//
//   grow:   a round that used its whole budget (drained >= limit) means
//           more work was pending — double the budget immediately.  Under
//           sustained depth the budget reaches the cap in log2(max/min)
//           rounds.
//   shrink: a round that found the queue nearly empty (drained <=
//           kShrinkDepth) is evidence the batch is oversized; after
//           kShrinkPatience consecutive such rounds the budget halves.
//           Patience keeps one idle gap in a busy stream from collapsing
//           the batch (and the syscall amortization) instantly.
//
// Rounds in between (partial but non-trivial batches) leave the budget
// alone and reset the patience counter.
//
// Not thread-safe: one instance per event loop, touched only by it.
#pragma once

#include <algorithm>
#include <cstddef>

namespace hetsched::net {

class AdaptiveBatch {
 public:
  // The budget's floor (flush every decision at once) and ceiling (the
  // frames one drain round may coalesce into a single sendmsg).
  static constexpr std::size_t kMinFrames = 1;
  static constexpr std::size_t kMaxFrames = 64;
  // A drain that finds at most this many frames counts as an idle round.
  static constexpr std::size_t kShrinkDepth = 1;
  // Consecutive idle rounds required before the budget halves.
  static constexpr std::size_t kShrinkPatience = 4;

  // Current frame budget for the next drain round.
  std::size_t limit() const { return limit_; }

  // Feed the number of frames one drain round actually handled.
  void observe(std::size_t drained) {
    if (drained >= limit_) {
      limit_ = std::min(limit_ * 2, kMaxFrames);
      idle_rounds_ = 0;
    } else if (drained <= kShrinkDepth) {
      if (++idle_rounds_ >= kShrinkPatience) {
        limit_ = std::max(limit_ / 2, kMinFrames);
        idle_rounds_ = 0;
      }
    } else {
      idle_rounds_ = 0;
    }
  }

 private:
  std::size_t limit_ = kMinFrames;
  std::size_t idle_rounds_ = 0;
};

}  // namespace hetsched::net
