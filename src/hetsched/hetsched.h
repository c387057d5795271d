// Umbrella header for the hetsched library.
//
// hetsched implements the partitioned feasibility tests of Ahuja, Lu &
// Moseley, "Partitioned Feasibility Tests for Sporadic Tasks on
// Heterogeneous Machines" (IPPS 2016), together with every substrate the
// evaluation needs: an LP adversary (from-scratch simplex + combinatorial
// oracle), an exact partitioned adversary (branch and bound), an exact
// discrete-event scheduler simulator, synthetic workload generators, and
// prior-art baselines.
//
// Quick start (see examples/quickstart.cpp):
//
//   hetsched::TaskSet tasks({{2, 10}, {5, 20}, {1, 4}});
//   auto platform = hetsched::Platform::from_speeds({1.0, 1.0, 2.0});
//   auto res = hetsched::first_fit_partition(
//       tasks, platform, hetsched::AdmissionKind::kEdf,
//       hetsched::EdfConstants::kAlphaPartitioned);
//   if (!res.feasible) {
//     // Theorem I.1: no partitioned scheduler can run this task set on the
//     // original platform.
//   }
#pragma once

#include "admit/admission_test.h"        // IWYU pragma: export
#include "baselines/andersson_tovar.h"   // IWYU pragma: export
#include "baselines/heuristics.h"        // IWYU pragma: export
#include "baselines/local_search.h"      // IWYU pragma: export
#include "core/platform.h"               // IWYU pragma: export
#include "core/rta.h"                    // IWYU pragma: export
#include "core/task.h"                   // IWYU pragma: export
#include "core/uniproc.h"                // IWYU pragma: export
#include "dbf/demand_bound.h"            // IWYU pragma: export
#include "exact/exact_partition.h"       // IWYU pragma: export
#include "experiments/acceptance.h"      // IWYU pragma: export
#include "experiments/adversarial.h"     // IWYU pragma: export
#include "experiments/augmentation.h"    // IWYU pragma: export
#include "experiments/churn.h"           // IWYU pragma: export
#include "experiments/sensitivity.h"     // IWYU pragma: export
#include "gen/churn_gen.h"               // IWYU pragma: export
#include "gen/platform_gen.h"            // IWYU pragma: export
#include "gen/taskset_gen.h"             // IWYU pragma: export
#include "io/text_format.h"              // IWYU pragma: export
#include "io/trace_format.h"             // IWYU pragma: export
#include "lp/feasibility_lp.h"           // IWYU pragma: export
#include "lp/simplex.h"                  // IWYU pragma: export
#include "migrating/bvn_schedule.h"      // IWYU pragma: export
#include "migrating/slice_replay.h"      // IWYU pragma: export
#include "online/online_partitioner.h"   // IWYU pragma: export
#include "partition/admission.h"         // IWYU pragma: export
#include "partition/analysis_constants.h"  // IWYU pragma: export
#include "partition/engine.h"            // IWYU pragma: export
#include "partition/first_fit.h"         // IWYU pragma: export
#include "partition/sweep.h"             // IWYU pragma: export
#include "ptas/dual_approx.h"            // IWYU pragma: export
#include "sim/event_sim.h"               // IWYU pragma: export
#include "util/rational.h"               // IWYU pragma: export
#include "util/rng.h"                    // IWYU pragma: export
#include "util/stats.h"                  // IWYU pragma: export
#include "util/table.h"                  // IWYU pragma: export
