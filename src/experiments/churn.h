// Churn harness (E10): replay an arrival/departure trace through the
// online admission controller and compare against a clairvoyant batch
// re-packer.
//
// Two admitters process the same trace independently:
//   * online      — one OnlinePartitioner; each arrival is a single admit()
//                   call (first fit over the current state, no migration),
//                   optionally followed by a periodic rebalance();
//   * clairvoyant — maintains its own resident set and, at each arrival,
//                   re-runs the batch first-fit test over (residents +
//                   newcomer) from scratch.  This is the best any
//                   first-fit-certified admitter could do with free
//                   migration on every arrival, so the gap between the two
//                   acceptance ratios is the price of online placement.
// Both apply the same admission kind / alpha / engine, so every individual
// decision is certified by the same paper test.  Regret counts arrivals the
// clairvoyant admits but the online controller rejects; the reverse can
// also happen once the resident sets diverge, reported separately.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "admit/admission_test.h"
#include "core/platform.h"
#include "gen/churn_gen.h"
#include "partition/admission.h"
#include "partition/engine.h"

namespace hetsched {

struct ChurnOptions {
  AdmissionKind kind = AdmissionKind::kEdf;
  double alpha = 1.0;
  PartitionEngine engine = PartitionEngine::kAuto;
  // Call rebalance() after every this many arrivals; 0 disables.
  std::size_t rebalance_every = 0;
  // Tiered admission test (src/admit).  An empty test keeps the implicit-
  // deadline harness; a tiered test admits constrained-deadline arrivals
  // and scores the clairvoyant with the exact constrained partitioner.
  admit::AdmitConfig admit;
};

struct ChurnResult {
  std::size_t arrivals = 0;
  std::size_t online_admitted = 0;
  std::size_t clairvoyant_admitted = 0;
  // Arrivals the clairvoyant admits but the online controller rejects.
  std::size_t regret = 0;
  // Arrivals the online controller admits but the clairvoyant rejects
  // (possible once the two resident sets diverge).
  std::size_t inverse_regret = 0;
  std::size_t rebalances = 0;          // rebalance() calls made
  std::size_t rebalances_applied = 0;  // ... that applied a new packing
  std::size_t migrations = 0;          // total tasks moved by rebalances
  std::size_t peak_resident = 0;       // online controller high-water mark

  double online_acceptance() const {
    return arrivals == 0
               ? 1.0
               : static_cast<double>(online_admitted) /
                     static_cast<double>(arrivals);
  }
  double clairvoyant_acceptance() const {
    return arrivals == 0
               ? 1.0
               : static_cast<double>(clairvoyant_admitted) /
                     static_cast<double>(arrivals);
  }

  // "arrivals=256 online=0.871 clairvoyant=0.902 regret=8 ..." — for logs.
  std::string to_string() const;
};

// Replays `trace` against `platform` under both admitters.  Departures of
// rejected tasks are skipped (the task never became resident).
ChurnResult run_churn(const Platform& platform, const ChurnTrace& trace,
                      const ChurnOptions& options);

}  // namespace hetsched
