// Test-only reference: the integer-time QPA that edf_dbf_feasible_qpa
// (dbf/demand_bound.h) ran before its scan became violation-first — one
// scan down from dbf_check_bound to the smallest deadline — kept as it was,
// with its int128 divisions, so qpa_order_test.cpp can assert the staged
// scan and the narrow-division fast paths of core/int_time.h answer
// exactly as it does.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "core/task.h"
#include "util/rational.h"

namespace hetsched::qpa_reference {

// min(busy period stopped at La, La), never below d_max; nullopt when
// U > s beyond the band or when neither bound exists.
std::optional<std::int64_t> dbf_check_bound(std::span<const Task> tasks,
                                            const Rational& speed);

bool edf_dbf_feasible_qpa(std::span<const Task> tasks, const Rational& speed);

}  // namespace hetsched::qpa_reference
