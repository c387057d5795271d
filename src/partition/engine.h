// Fast-path partitioning engines for the paper's first-fit test.
//
// For the tests with a tier-0 fold (kEdf, kRmsLiuLayland, kRmsHyperbolic,
// and the tiered tests over densities) the per-machine admission test
// reduces to a closed-form slack: machine j admits a weight w iff
// w <= slack_j, with slack_j a function of the machine's accumulated state
// only (admission_slack() in partition/admission.h).  First fit is then
// "leftmost machine with slack >= w" — the classic bin-packing query a max
// segment tree over the m slacks answers in O(log m) — turning the
// partition pass into O(n log n + n log m) instead of O(n log n + n m).
//
// The batch accept path (first_fit_accepts, min_feasible_alpha) adds a
// machine cursor on top: it stays on the machine of the last placement and
// remembers the largest slack left of it, which the descent reports.  In
// utilization-descending order most tasks land on the same machine as the
// one before, so a placement costs one admission_admits comparison while
// the cursor stays and O(log m) (one slack search, one tree update, one
// descent) when it moves.  Before any placement, the tree engine tries
// load bounds in O(m + n / kLoadBoundGroup): the total utilization against
// what the platform can hold, and each group of tasks' prefix against the
// load a pass failing in that group must leave.  They decide almost two
// thirds of an EDF alpha search's probes on overloaded inputs, with the
// verdict the pass would give (partition/first_fit.h).  The naive engine
// always runs the pass.
//
// admission_slack() returns the EXACT floating-point threshold of
// admission_admits(), the per-machine comparison MachineLoad::can_admit
// performs, so "w <= slack" and the direct predicate decide every admission
// identically — the segment-tree engine returns bit-identical assignments
// and verdicts to the naive scan (asserted by
// tests/engine_equivalence_test.cpp).  The rows without a fold
// (kRmsResponseTime and the batch-only DBF testers) have no closed-form
// slack; every engine falls back to the naive scan there.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "partition/admission.h"
#include "partition/audit.h"

namespace hetsched {

enum class PartitionEngine {
  kAuto,         // segment tree when the kind has a fold, else naive
  kNaive,        // reference linear machine scan, O(n m)
  kSegmentTree,  // slack segment tree, O(n log m)
};

std::string to_string(PartitionEngine e);

// "auto" | "naive" | "tree" (also accepts "segment-tree"); nullopt otherwise.
std::optional<PartitionEngine> engine_from_name(std::string_view name);

// The engine actually run for `kind` once kAuto and the fallback of the
// rows without a fold are resolved; returns kNaive or kSegmentTree.
PartitionEngine resolve_engine(PartitionEngine e, AdmissionKind kind);

// Max segment tree over per-machine admission slack.  Storage is reused
// across build() calls, so a warmed-up tree performs no allocation.
class SlackTree {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  // Rebuilds the tree over slack[0..m); O(m).
  void build(std::span<const double> slack);

  std::size_t size() const { return m_; }
  double slack_at(std::size_t j) const { return node_[leaves_ + j]; }

  // Leftmost j with slack_j >= w, or npos; O(log m).
  std::size_t find_first_at_least(double w) const;

  // The same descent, which also sets `left_max` to the largest slack left
  // of the answer (-inf when the answer is machine 0).  The machines left
  // of the answer are exactly the left subtrees the descent skips, so it
  // reads the maximum off those children for one max per level.  A caller
  // that keeps placing onto the answer j, and changes no machine left of
  // it, can skip later queries while w > left_max and j itself admits w:
  // j is then still the leftmost fit.
  std::size_t find_first_at_least(double w, double& left_max) const;

  // Sets machine j's slack and fixes the ancestors; O(log m).
  void update(std::size_t j, double slack);

 private:
#if HETSCHED_AUDIT_ENABLED
  // Audit-build invariants: every internal node is the max of its children,
  // padding leaves are -inf, and a descent answer matches the naive
  // leftmost scan over the leaves.
  void audit_verify_heap() const;
  void audit_verify_find(double w, std::size_t result) const;
  void audit_verify_left_max(std::size_t result, double left_max) const;
#endif
  template <bool kLeftMax>
  std::size_t descend(double w, double* left_max) const;
  std::size_t m_ = 0;
  std::size_t leaves_ = 0;    // leaf count, power of two (padding = -inf)
  std::vector<double> node_;  // 1-based heap layout; node_[1] is the root
};

// The accept load bound's group size: it takes the failure certificate at
// the largest utilization of each run of this many consecutive tasks in
// first-fit order (partition/first_fit.h).
inline constexpr std::size_t kLoadBoundGroup = 64;

// Reusable state for the decision-only accept path.  After warm-up every
// first_fit_accepts / min_feasible_alpha call through a scratch performs no
// heap allocation and never copies Task vectors.  Treat the members as
// opaque, except that callers may read first_fit_passes; a scratch must not
// be shared between threads.
struct PartitionScratch {
  std::vector<double> utils;       // w of task order[k], at position k
  std::vector<std::size_t> order;  // task indices, utilization-descending
  double util_total = 0.0;         // sum of utils, in that order
  // Per group g of kLoadBoundGroup consecutive positions (the last may be
  // shorter): utils at its first position, and the in-order sum of utils
  // before its last position.
  std::vector<double> group_max;
  std::vector<double> group_prefix;
  std::vector<double> capacity;    // per machine: alpha * s_j
  std::vector<double> util_sum;    // per machine: admitted utilization
  std::vector<double> hyper;       // per machine: prod(w_i / cap + 1), RMS-HB
  std::vector<std::size_t> count;  // per machine: admitted task count
  std::vector<double> slack;       // per machine: admission_slack(...)
  SlackTree tree;
  // First-fit passes run through this scratch since it was made: every
  // probe kNaive answers, and those the tree engine's load bounds leave
  // undecided.  Read-only for callers.
  std::size_t first_fit_passes = 0;
};

}  // namespace hetsched
