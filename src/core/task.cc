#include "core/task.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <sstream>

namespace hetsched {

namespace {

// Ping-pong buffers for the radix passes, reused across calls per thread so
// large repeated orderings (the partitioning fast path) never reallocate.
struct OrderScratch {
  std::array<std::vector<std::uint64_t>, 2> keys;
  std::array<std::vector<std::uint32_t>, 2> idx;
};

OrderScratch& order_scratch() {
  thread_local OrderScratch s;
  return s;
}

}  // namespace

TaskSet::TaskSet(std::vector<Task> tasks) : tasks_(std::move(tasks)) {
  for (const Task& t : tasks_) {
    HETSCHED_CHECK_MSG(t.valid(), "task with non-positive exec or period");
  }
}

double TaskSet::total_utilization() const {
  double u = 0;
  for (const Task& t : tasks_) u += t.utilization();
  return u;
}

Rational TaskSet::total_utilization_exact() const {
  Rational u;
  for (const Task& t : tasks_) u += t.utilization_exact();
  return u;
}

double TaskSet::max_utilization() const {
  double u = 0;
  for (const Task& t : tasks_) u = std::max(u, t.utilization());
  return u;
}

std::vector<std::size_t> TaskSet::order_by_utilization_desc() const {
  std::vector<std::size_t> order;
  order_by_utilization_desc(order);
  return order;
}

void TaskSet::order_by_utilization_desc(std::vector<std::size_t>& out) const {
  // The permutation is DEFINED as a stable sort under the exact rational
  // comparison c_a/p_a > c_b/p_b (exactness avoids platform-dependent ties
  // from double rounding).  Two implementations produce it:
  //
  //  * small n: comparison sort keyed on the rounded double utilizations
  //    first — rounding is monotone, so a strict double inequality never
  //    contradicts the exact order — with the 128-bit cross multiplication
  //    only for double-equal pairs and the index as the final tiebreak;
  //  * large n: LSD radix sort on the utilization bit patterns (for
  //    positive doubles the bit pattern is order-monotone; complementing
  //    gives descending order).  Counting-scatter passes are stable, so
  //    double-equal tasks emerge in index order, and a repair pass then
  //    stable-sorts each double-equal run with the exact comparison.
  //
  // Both therefore yield the identical permutation.  The radix path is what
  // makes the O(n log n) ordering cheap enough that the segment-tree
  // partitioning engine is sort-bound no more (it was the dominant cost).
  const std::size_t n = tasks_.size();
  out.resize(n);
  const auto exact_desc = [this](std::size_t a, std::size_t b) {
    const int128 lhs = static_cast<int128>(tasks_[a].exec) * tasks_[b].period;
    const int128 rhs = static_cast<int128>(tasks_[b].exec) * tasks_[a].period;
    return lhs > rhs;
  };

  if (n < 128) {
    std::iota(out.begin(), out.end(), std::size_t{0});
    std::sort(out.begin(), out.end(),
              [this, &exact_desc](std::size_t a, std::size_t b) {
                const double ua = tasks_[a].utilization();
                const double ub = tasks_[b].utilization();
                // Exact tie-break: keeps the order deterministic.
                // hetsched-lint: allow(float-compare)
                if (ua != ub) return ua > ub;
                if (exact_desc(a, b)) return true;
                if (exact_desc(b, a)) return false;
                return a < b;
              });
    return;
  }

  HETSCHED_CHECK(n <= 0xFFFFFFFFu);
  OrderScratch& s = order_scratch();
  for (auto& k : s.keys) k.resize(n);
  for (auto& ix : s.idx) ix.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Complement: ascending radix order == descending utilization.
    s.keys[0][i] = ~std::bit_cast<std::uint64_t>(tasks_[i].utilization());
    s.idx[0][i] = static_cast<std::uint32_t>(i);
  }
  std::size_t cur = 0;
  for (int pass = 0; pass < 8; ++pass) {
    const int shift = pass * 8;
    std::array<std::size_t, 256> count{};
    for (std::size_t i = 0; i < n; ++i) {
      ++count[(s.keys[cur][i] >> shift) & 0xFF];
    }
    if (std::any_of(count.begin(), count.end(),
                    [n](std::size_t c) { return c == n; })) {
      continue;  // all keys share this digit; the pass would be a no-op
    }
    std::array<std::size_t, 256> offset{};
    std::size_t sum = 0;
    for (std::size_t d = 0; d < 256; ++d) {
      offset[d] = sum;
      sum += count[d];
    }
    const std::size_t nxt = 1 - cur;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t dst = offset[(s.keys[cur][i] >> shift) & 0xFF]++;
      s.keys[nxt][dst] = s.keys[cur][i];
      s.idx[nxt][dst] = s.idx[cur][i];
    }
    cur = nxt;
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = s.idx[cur][i];
  }
  // Repair double-equal runs with the exact comparison (stable, so the
  // index tiebreak is inherited from the radix passes).  A run already in
  // exact order is a fixed point of stable_sort, so only an out-of-order
  // run is sorted; that also keeps stable_sort's heap-allocated buffer off
  // the common path, where equal doubles are equal rationals.
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && s.keys[cur][j] == s.keys[cur][i]) ++j;
    const auto first = out.begin() + static_cast<std::ptrdiff_t>(i);
    const auto last = out.begin() + static_cast<std::ptrdiff_t>(j);
    if (j - i > 1 && !std::is_sorted(first, last, exact_desc)) {
      std::stable_sort(first, last, exact_desc);
    }
    i = j;
  }
}

void TaskSet::push_back(const Task& t) {
  HETSCHED_CHECK_MSG(t.valid(), "task with non-positive exec or period");
  tasks_.push_back(t);
}

std::string TaskSet::to_string() const {
  std::ostringstream os;
  os << "n=" << tasks_.size() << " U=" << total_utilization() << " {";
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (i > 0) os << ",";
    os << "(" << tasks_[i].exec << "," << tasks_[i].period << ")";
  }
  os << "}";
  return os.str();
}

}  // namespace hetsched
