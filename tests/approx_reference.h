// Test-only reference: the k-point approximate DBF test that
// edf_dbf_feasible_approx_k (dbf/demand_bound.h) ran before the tiered
// escalation decided k = 1 in linear time — n probe points, each summing
// every task in index order in long double, O(n^2 k) — kept as it was, so
// approx_order_test.cpp can assert the deadline-ordered tier 1 answers
// exactly as it does.
#pragma once

#include <cstddef>
#include <span>

#include "core/task.h"
#include "util/rational.h"

namespace hetsched::approx_reference {

bool edf_dbf_feasible_approx_k(std::span<const Task> tasks,
                               const Rational& speed, std::size_t k);

}  // namespace hetsched::approx_reference
