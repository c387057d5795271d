// The one ring type of the observability layer: a fixed-capacity ring of
// fixed-size records, each `Words` 64-bit atomics.  The decision-trace
// ring (obs/trace.h), the per-thread span rings (obs/span.h) and every
// shard's flight recorder (obs/flight_recorder.h) are instances of it.
//
// Concurrency: one writer per ring.  push() stores a record's words
// relaxed and then publishes the new head with a release store.  Readers
// may run on any thread, or in a signal handler that interrupted the
// writer: they load the head with acquire and the words relaxed, so a
// record being overwritten meanwhile can be read torn.  A readout is
// exact once the writer is quiescent.  No step locks or allocates, so
// every member is async-signal-safe.
//
// Capacity: the ring keeps the newest `Capacity` records; each push past
// that overwrites the oldest, and overwritten() counts those.
//
// ThreadRingSet below gives each writing thread its own ring of one
// record type and keeps a thread's records after it exits.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace hetsched::obs {

template <std::size_t Words, std::size_t Capacity>
class AtomicRing {
 public:
  using Slot = std::atomic<std::uint64_t>[Words];

  // Single-writer append.
  void push(const std::uint64_t (&words)[Words]) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    store_words(slots_[head % Capacity], words,
                std::make_index_sequence<Words>());
    // Release so a reader that sees the new head also sees the slot words.
    head_.store(head + 1, std::memory_order_release);
  }

  // Calls visit(index, slot) on every held record, oldest first; `index`
  // numbers the records pushed since the last clear() from 0.  Returns
  // how many records were overwritten before this readout.
  template <class Visit>
  std::uint64_t for_each(Visit&& visit) const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t held = std::min<std::uint64_t>(head, Capacity);
    for (std::uint64_t i = head - held; i < head; ++i) {
      visit(i, slots_[i % Capacity]);
    }
    return head - held;
  }

  // Records pushed since construction or the last clear().
  std::uint64_t pushed() const {
    return head_.load(std::memory_order_relaxed);
  }
  std::uint64_t overwritten() const {
    const std::uint64_t head = pushed();
    return head > Capacity ? head - Capacity : 0;
  }

  // Empties the ring.  Exact only while the writer is quiescent.
  void clear() { head_.store(0, std::memory_order_relaxed); }

 private:
  // One store per word, unrolled: compilers keep a loop over atomic
  // stores as a loop, with the record spilled to the stack first.
  template <std::size_t... W>
  static void store_words(Slot& slot, const std::uint64_t (&words)[Words],
                          std::index_sequence<W...>) {
    (slot[W].store(words[W], std::memory_order_relaxed), ...);
  }

  Slot slots_[Capacity] = {};
  std::atomic<std::uint64_t> head_{0};  // records pushed since clear()
};

// Per-thread rings of one record type.  A thread's ring registers with the
// process-wide set on the thread's first record; when the thread exits,
// its records are folded into a retired list under the set's mutex, so
// records of short-lived threads (pool workers, the loop threads of a
// stopped server) survive to the next drain.
//
// `Codec` names the record type and its ring shape:
//   using Record = ...;
//   static constexpr std::size_t kWords = ..., kCapacity = ...;
//   static Record unpack(const AtomicRing<kWords, kCapacity>::Slot&);
// Each codec type gets its own set and its own thread-local ring.
template <class Codec>
class ThreadRingSet {
 public:
  using Record = typename Codec::Record;
  using Ring = AtomicRing<Codec::kWords, Codec::kCapacity>;

  // The process-wide set.  Leaky: it must outlive every writing thread.
  static ThreadRingSet& get() {
    static ThreadRingSet* set = new ThreadRingSet();
    return *set;
  }

  // The calling thread's ring, registered on first use.
  static Ring& local() {
    thread_local Holder holder;
    return holder.ring;
  }

  // Records held by live rings plus the retired fold, unordered.  `clear`
  // empties the rings and the retired list.  Exact once writers are
  // quiescent; best-effort (torn reads possible) while they run.
  std::vector<Record> drain(bool clear) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Record> out = retired_;
    std::uint64_t dropped = 0;
    for (const Ring* ring : rings_) dropped += collect(*ring, &out);
    if (clear) {
      retired_.clear();
      retired_dropped_ += dropped;
      for (Ring* ring : rings_) ring->clear();
    }
    return out;
  }

  // Total records overwritten before they could be drained.
  std::uint64_t dropped() {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t total = retired_dropped_;
    for (const Ring* ring : rings_) total += ring->overwritten();
    return total;
  }

 private:
  struct Holder {
    Holder() {
      ThreadRingSet& set = get();
      std::lock_guard<std::mutex> lock(set.mu_);
      set.rings_.push_back(&ring);
    }
    ~Holder() {
      ThreadRingSet& set = get();
      std::lock_guard<std::mutex> lock(set.mu_);
      auto it = std::find(set.rings_.begin(), set.rings_.end(), &ring);
      if (it == set.rings_.end()) return;
      set.rings_.erase(it);
      set.retired_dropped_ += collect(ring, &set.retired_);
    }
    Holder(const Holder&) = delete;
    Holder& operator=(const Holder&) = delete;
    Ring ring;
  };

  // Appends `ring`'s records oldest first; returns its overwritten count.
  static std::uint64_t collect(const Ring& ring, std::vector<Record>* out) {
    return ring.for_each([out](std::uint64_t, const typename Ring::Slot& s) {
      out->push_back(Codec::unpack(s));
    });
  }

  std::mutex mu_;
  std::vector<Ring*> rings_;
  std::vector<Record> retired_;  // folded rings of exited threads
  std::uint64_t retired_dropped_ = 0;
};

}  // namespace hetsched::obs
