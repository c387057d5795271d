#include "core/task.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <sstream>

namespace hetsched {

namespace {

// Keys and task indices for the large-n ordering, in ping-pong buffers
// reused across calls per thread so repeated orderings (the partitioning
// fast path) never reallocate.
struct OrderScratch {
  std::array<std::vector<std::uint64_t>, 2> keys;
  std::array<std::vector<std::uint32_t>, 2> idx;
};

OrderScratch& order_scratch() {
  thread_local OrderScratch s;
  return s;
}

// The bucket pass splits on up to this many of the highest varying key
// bits.
constexpr int kBucketBits = 14;
// A bucket up to this size is insertion-sorted; a larger one goes through
// LSD radix passes, so no input is quadratic.
constexpr std::size_t kInsertionMax = 32;

// Stable insertion sort of keys/idx[from, to) of buffer `b` by key.
void insertion_sort(OrderScratch& s, std::size_t b, std::size_t from,
                    std::size_t to) {
  std::uint64_t* key = s.keys[b].data();
  std::uint32_t* idx = s.idx[b].data();
  for (std::size_t i = from + 1; i < to; ++i) {
    const std::uint64_t k = key[i];
    const std::uint32_t x = idx[i];
    std::size_t j = i;
    for (; j > from && key[j - 1] > k; --j) {
      key[j] = key[j - 1];
      idx[j] = idx[j - 1];
    }
    key[j] = k;
    idx[j] = x;
  }
}

// Stable LSD radix sort of keys/idx[from, to) of buffer `b`, 8 bits a
// pass, through the other buffer; the result is left in buffer `b`.  A
// digit all keys share gets no pass, so a bucket of repeats of one
// utilization, the common large bucket, costs one scan.
void radix_sort(OrderScratch& s, std::size_t b, std::size_t from,
                std::size_t to) {
  std::uint64_t varying = 0;
  for (std::size_t i = from; i < to; ++i) {
    varying |= s.keys[b][i] ^ s.keys[b][from];
  }
  std::size_t cur = b;
  for (int shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xFF) == 0) continue;
    std::array<std::size_t, 256> count{};
    for (std::size_t i = from; i < to; ++i) {
      ++count[(s.keys[cur][i] >> shift) & 0xFF];
    }
    std::size_t sum = from;
    for (std::size_t& c : count) {
      const std::size_t digit_count = c;
      c = sum;
      sum += digit_count;
    }
    const std::size_t nxt = 1 - cur;
    for (std::size_t i = from; i < to; ++i) {
      const std::size_t dst = count[(s.keys[cur][i] >> shift) & 0xFF]++;
      s.keys[nxt][dst] = s.keys[cur][i];
      s.idx[nxt][dst] = s.idx[cur][i];
    }
    cur = nxt;
  }
  if (cur != b) {
    std::copy(s.keys[cur].begin() + static_cast<std::ptrdiff_t>(from),
              s.keys[cur].begin() + static_cast<std::ptrdiff_t>(to),
              s.keys[b].begin() + static_cast<std::ptrdiff_t>(from));
    std::copy(s.idx[cur].begin() + static_cast<std::ptrdiff_t>(from),
              s.idx[cur].begin() + static_cast<std::ptrdiff_t>(to),
              s.idx[b].begin() + static_cast<std::ptrdiff_t>(from));
  }
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
  std::vector<double> utils;
  order_by_utilization_desc(order, utils);
  return order;
}

void TaskSet::order_by_utilization_desc(std::vector<std::size_t>& out,
                                        std::vector<double>& utils) const {
  // The permutation is DEFINED as a stable sort under the exact rational
  // comparison c_a/p_a > c_b/p_b (exactness avoids platform-dependent ties
  // from double rounding).  Both paths below sort by the rounded double
  // utilizations first — rounding is monotone, so a strict double
  // inequality never contradicts the exact order — and resolve
  // double-equal tasks by the exact comparison, then by index:
  //
  //  * small n: one comparison sort with exactly that comparator;
  //  * large n: a bucket pass on the utilization bit patterns (for positive
  //    doubles the pattern is order-monotone; complementing gives
  //    descending order), then a stable sort per bucket, so double-equal
  //    tasks emerge in index order; a repair pass then stable-sorts each
  //    double-equal run with the exact comparison, unless no such run can
  //    be out of exact order.
  //
  // Both therefore yield the identical permutation.
  const std::size_t n = tasks_.size();
  out.resize(n);
  utils.resize(n);
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
    for (std::size_t k = 0; k < n; ++k) utils[k] = tasks_[out[k]].utilization();
    return;
  }

  HETSCHED_CHECK(n <= 0xFFFFFFFFu);
  OrderScratch& s = order_scratch();
  for (auto& k : s.keys) k.resize(n);
  for (auto& ix : s.idx) ix.resize(n);
  std::uint64_t* key = s.keys[0].data();
  std::uint64_t varying = 0;  // the key bits that differ between tasks
  std::int64_t p_max = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // Complement: ascending key order == descending utilization.
    key[i] = ~std::bit_cast<std::uint64_t>(tasks_[i].utilization());
    varying |= key[i] ^ key[0];
    p_max = std::max(p_max, tasks_[i].period);
  }

  // One counting pass on the highest varying bits (the bits above them are
  // common to every key, so bucket order is key order), scattering into
  // buffer 1 in index order; then each bucket is sorted on its own.  At
  // most n buckets, so their counts fit in idx[0], which this path does not
  // use until the buckets are sorted.
  std::size_t cur = 0;
  const int width = static_cast<int>(std::bit_width(varying));
  if (width > 0) {
    const int bits = std::min(
        {width, kBucketBits, static_cast<int>(std::bit_width(n)) - 1});
    const int shift = width - bits;
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    std::uint32_t* start = s.idx[0].data();
    std::fill_n(start, mask + 1, std::uint32_t{0});
    for (std::size_t i = 0; i < n; ++i) ++start[(key[i] >> shift) & mask];
    std::uint32_t sum = 0;
    for (std::uint64_t bucket = 0; bucket <= mask; ++bucket) {
      const std::uint32_t size = start[bucket];
      start[bucket] = sum;
      sum += size;
    }
    std::uint64_t* key1 = s.keys[1].data();
    std::uint32_t* idx1 = s.idx[1].data();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t dst = start[(key[i] >> shift) & mask]++;
      key1[dst] = key[i];
      idx1[dst] = static_cast<std::uint32_t>(i);
    }
    cur = 1;
    // A bucket ends where the bits from `shift` up change.
    std::size_t from = 0;
    for (std::size_t i = 1; i <= n; ++i) {
      if (i < n && (key1[i] >> shift) == (key1[from] >> shift)) continue;
      if (i - from > kInsertionMax) {
        radix_sort(s, cur, from, i);
      } else if (i - from > 1) {
        insertion_sort(s, cur, from, i);
      }
      from = i;
    }
  } else {
    std::iota(s.idx[0].begin(), s.idx[0].end(), std::uint32_t{0});
  }
  const std::uint64_t* sorted = s.keys[cur].data();
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = s.idx[cur][k];
    utils[k] = std::bit_cast<double>(~sorted[k]);
  }

  // Repair double-equal runs with the exact comparison (stable, so the
  // index tiebreak is inherited from the bucket pass).  Two tasks whose
  // utilizations are unequal rationals differ by at least 1 / p_max^2, and
  // two reals that round to the same double d differ by at most
  // ulp(d) <= 2^-52 u_max; so when p_max^2 u_max < 2^51 (half of 2^52, a
  // margin for evaluating the product in double) equal doubles are equal
  // rationals and every run is already in exact order.  Otherwise a run
  // already in exact order is a fixed point of stable_sort, so only an
  // out-of-order run is sorted; that also keeps stable_sort's
  // heap-allocated buffer off the common path.
  const double p = static_cast<double>(p_max);
  if (p * p * utils[0] < 0x1p51) return;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && sorted[j] == sorted[i]) ++j;
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
