// Test-only reference: the exact-Rational busy period, DBF check bound,
// QPA, k-point approximate DBF and response-time analysis that the
// integer-time deciders (core/int_time.h) replaced, kept as they were so
// integer_time_test.cpp can assert the two agree on bound values,
// verdicts and response times.  Every operation reduces through a 128-bit
// gcd and aborts on overflow, so only in-range inputs may be fed here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "core/task.h"
#include "util/rational.h"

namespace hetsched::reference {

// Least fixed point of L = (sum_i ceil(L / p_i) c_i) / s from the total
// first-job demand; nullopt past 2^40 or 100 000 iterations.
std::optional<Rational> busy_period(std::span<const Task> tasks,
                                    const Rational& speed);

// min(busy period, La) rounded up, never below d_max; nullopt when
// U > s, or U is within 1e-12 of s and the busy period does not exist.
std::optional<std::int64_t> dbf_check_bound(std::span<const Task> tasks,
                                            const Rational& speed);

bool edf_dbf_feasible_qpa(std::span<const Task> tasks, const Rational& speed);

bool edf_dbf_feasible_approx_k(std::span<const Task> tasks,
                               const Rational& speed, std::size_t k);

std::optional<Rational> response_time(std::span<const Task> tasks,
                                      std::size_t target,
                                      const Rational& speed);

bool rta_schedulable(std::span<const Task> tasks, const Rational& speed);

}  // namespace hetsched::reference
