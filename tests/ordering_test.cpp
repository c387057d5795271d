// Equivalence tests of TaskSet::order_by_utilization_desc against its
// definition: a std::stable_sort of the indices under the exact int128
// comparison c_a p_b > c_b p_a.  The permutation and the utilization bits
// it hands back must match the reference on random inputs and on the
// inputs each stage of the large-n path exists for: double-equal but
// rational-unequal utilizations (the repair), all-equal keys, a tight
// cluster beside one outlier (one bucket holding nearly everything), and
// periods up to 2^62, at n on both sides of the small-n cut-over.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/task.h"
#include "util/int128.h"
#include "util/rng.h"

namespace hetsched {
namespace {

const std::size_t kSizes[] = {127, 128, 129, 16384};

std::vector<std::size_t> reference_order(const TaskSet& tasks) {
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return static_cast<int128>(tasks[a].exec) *
                                tasks[b].period >
                            static_cast<int128>(tasks[b].exec) *
                                tasks[a].period;
                   });
  return order;
}

void expect_reference_order(const std::vector<Task>& list,
                            const std::string& label) {
  const TaskSet tasks(list);
  std::vector<std::size_t> order;
  std::vector<double> utils;
  tasks.order_by_utilization_desc(order, utils);
  const std::vector<std::size_t> want = reference_order(tasks);
  ASSERT_EQ(order, want) << label << " n=" << list.size();
  ASSERT_EQ(utils.size(), want.size()) << label;
  for (std::size_t k = 0; k < want.size(); ++k) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(utils[k]),
              std::bit_cast<std::uint64_t>(tasks[want[k]].utilization()))
        << label << " n=" << list.size() << " position " << k;
  }
  EXPECT_EQ(tasks.order_by_utilization_desc(), want) << label;
}

TEST(UtilizationOrder, RandomTasksMatchTheExactStableSort) {
  Rng rng(0x0DE5);
  for (const std::size_t n : kSizes) {
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<Task> list;
      for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t p = rng.uniform_int(10, 1000);
        list.push_back({rng.uniform_int(1, p), p});
      }
      expect_reference_order(list, "random");
    }
  }
}

TEST(UtilizationOrder, DoubleEqualRunsFollowTheExactOrder) {
  // (c + k) / (3(c + k) + 1) rises with k by about 1 / (9 c^2) ~ 2^-59,
  // far below the ulp of 1/3 (2^-54): runs of these share a double.  They
  // are listed with k rising, so the exact order of each run is against
  // its index order and the repair must reverse it; the periods are
  // >= 2^26, so p_max^2 u_max rules the repair in.
  Rng rng(0xD0B1E);
  for (const std::size_t n : kSizes) {
    std::vector<Task> list;
    const std::int64_t c = std::int64_t{1} << 28;
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 3 == 2) {
        const std::int64_t p = rng.uniform_int(10, 1000);
        list.push_back({rng.uniform_int(1, p), p});
      } else {
        const auto k = static_cast<std::int64_t>(i);
        list.push_back({c + k, 3 * (c + k) + 1});
      }
    }
    expect_reference_order(list, "double-equal");
    // The repair really ran: some double-equal pair is out of index order.
    const TaskSet tasks(list);
    const std::vector<std::size_t> order = tasks.order_by_utilization_desc();
    bool reordered = false;
    for (std::size_t k = 1; k < order.size(); ++k) {
      // hetsched-lint: allow(float-compare) looking for equal doubles
      if (tasks[order[k]].utilization() ==
              tasks[order[k - 1]].utilization() &&
          order[k] < order[k - 1]) {
        reordered = true;
      }
    }
    EXPECT_TRUE(reordered) << "n=" << n;
  }
}

TEST(UtilizationOrder, AllEqualUtilizationsKeepIndexOrder) {
  for (const std::size_t n : kSizes) {
    std::vector<Task> same_rational, same_task;
    for (std::size_t i = 0; i < n; ++i) {
      const auto k = static_cast<std::int64_t>(i % 7 + 1);
      same_rational.push_back({k << 30, 3 * (k << 30)});
      same_task.push_back({1, 2});
    }
    expect_reference_order(same_rational, "equal rationals");
    expect_reference_order(same_task, "equal tasks");
  }
}

TEST(UtilizationOrder, TightClusterBesideOneOutlier) {
  // c / 2^60 is exact for c < 2^53, so these utilizations lie within a few
  // hundred ulps of each other; the outlier 0.9 makes the highest varying
  // bit an exponent bit, which puts the whole cluster in one bucket.
  Rng rng(0xC1A5);
  for (const std::size_t n : kSizes) {
    std::vector<Task> list;
    const std::int64_t base = std::int64_t{1} << 52;
    const std::int64_t period = std::int64_t{1} << 60;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      list.push_back({base + rng.uniform_int(0, 300), period});
    }
    list.insert(list.begin() + static_cast<std::ptrdiff_t>(n / 2), {9, 10});
    expect_reference_order(list, "cluster + outlier");
  }
}

TEST(UtilizationOrder, PeriodsUpToTwoToTheSixtyTwo) {
  Rng rng(0x6262);
  const std::int64_t top = std::int64_t{1} << 62;
  for (const std::size_t n : kSizes) {
    std::vector<Task> list;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t p =
          i % 2 == 0 ? rng.uniform_int(top / 2, top)
                     : rng.uniform_int(1, std::int64_t{1} << 40);
      // Every fourth task repeats an earlier one scaled by 2 when that
      // fits, so equal rationals with unequal integers appear too.
      if (i % 4 == 3 && list.back().period <= top / 2) {
        list.push_back({list.back().exec * 2, list.back().period * 2});
      } else {
        list.push_back({rng.uniform_int(1, p), p});
      }
    }
    expect_reference_order(list, "periods up to 2^62");
  }
}

}  // namespace
}  // namespace hetsched
