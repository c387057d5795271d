// Constrained-deadline task literals for the tests, written in the
// (c, d, p) order of the demand-bound literature: cdp(c, d, p) is
// Task{c, p, d} in the struct's (exec, period, deadline) field order.
#pragma once

#include <cstdint>

#include "core/task.h"

namespace hetsched {

inline Task cdp(std::int64_t c, std::int64_t d, std::int64_t p) {
  return Task{c, p, d};
}

}  // namespace hetsched
