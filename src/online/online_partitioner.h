// Stateful admission control on top of the paper's first-fit test.
//
// The batch test (partition/first_fit.h) answers one question about one
// frozen task set.  A long-lived admission-control service faces the same
// question continuously: sporadic tasks arrive, run for a while, and leave,
// and every arrival needs an immediate admit/reject decision.
// OnlinePartitioner owns a live assignment — the resident tasks, their
// machines, and the per-machine admission state — and keeps the slack
// segment tree of the batch engine incrementally up to date, so that
//
//   * admit(task)   decides and places in O(log m) whenever the tier-0
//                   slack fold decides (always for kEdf, kRmsLiuLayland,
//                   kRmsHyperbolic), applying the SAME first-fit rule
//                   (leftmost machine whose test passes at speed
//                   alpha * s_j) with the SAME exact floating-point
//                   thresholds as the batch path;
//   * depart(id)    releases the task's slack (the machine's admission
//                   state is recomputed as the left fold of its remaining
//                   residents in admission order — a canonical value that
//                   does not depend on which task left);
//   * rebalance()   re-runs the canonical utilization-descending first fit
//                   over the resident tasks (ties broken by admission
//                   sequence) and reports how many tasks migrated;
//   * snapshot() /
//     restore()     copy the whole mutable state in O(n + m) for cheap
//                   what-if probing (e.g. "would this batch of five tasks
//                   fit?" — snapshot, admit all five, restore).
//
// first_fit_partition and first_fit_partition_constrained are thin
// wrappers over this class (construct a controller, admit in canonical
// order), so the batch and online paths share one admission code path and
// stay bit-identical — the property tests/online_equivalence_test.cpp
// asserts over 500 seeded instances.
//
// Every admission test runs through ONE per-machine test, its row of
// partition/admission.h: a tier-0 slack fold (EDF, Liu-Layland or
// hyperbolic, over utilizations for the paper's tests and over
// overhead-inflated densities for the tiered tests of src/admit), plus
// the row's escalation, which decides on machines whose fold rejected the
// task (approximate DBF, QPA, auto, or response-time analysis).
// kRmsResponseTime is a fold whose slack never admits, followed by the RTA
// escalation.  After warm-up (every internal vector has reached its
// high-water mark) admit performs no heap allocation for any test;
// tests/online_alloc_test.cpp counts global operator new to prove it.
//
// Thread safety: none.  A controller is a single-writer object; shard
// controllers per partition of the machine pool to scale out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "admit/admission_test.h"
#include "core/platform.h"
#include "core/task.h"
#include "partition/admission.h"
#include "partition/engine.h"
#include "util/fnv.h"
#include "util/rational.h"

namespace hetsched {

// Stable handle for a resident task: slot index in the low 32 bits, a
// per-slot generation counter in the high 32, so the id of a departed task
// never aliases a later resident.
using OnlineTaskId = std::uint64_t;
inline constexpr OnlineTaskId kInvalidOnlineTaskId = ~OnlineTaskId{0};

// Outcome of one admit() call.  When rejected, nothing was mutated and
// id/machine are the invalid sentinels.
struct AdmitDecision {
  bool admitted = false;
  OnlineTaskId id = kInvalidOnlineTaskId;
  std::size_t machine = static_cast<std::size_t>(-1);  // sorted platform index
  double utilization = 0.0;
  // Tiered tests: the tier that produced the verdict
  // (admit::kTierBound/kTierApprox/kTierExact).  Always 0 for the paper's
  // kinds, kRmsResponseTime included.  Persisted in the WAL record flags so
  // recovery can assert the replayed decision came from the same tier.
  std::uint8_t tier = 0;
};

// Outcome of one rebalance() call.  When the canonical re-pack fails to
// place every resident (first fit is not optimal, so churn can strand the
// controller in a state the canonical order cannot reproduce), applied is
// false and the controller state is untouched.
struct RebalanceReport {
  bool applied = false;
  std::size_t resident = 0;    // tasks considered
  std::size_t migrations = 0;  // tasks whose machine changed
};

// The canonical re-pack as data: every resident in canonical order
// (utilization descending, ties by admission sequence) with its current
// and target machine.  Both rebalance() and the shard split/merge path
// consume plans — rebalance applies the whole plan in place, resize uses
// the canonical order to pick which tenants migrate to another shard.
struct MigrationPlan {
  bool feasible = false;       // every resident placed by the re-pack
  std::size_t resident = 0;    // tasks considered (== moves.size() if feasible)
  std::size_t migrations = 0;  // moves whose machine would change
  struct Move {
    OnlineTaskId id = kInvalidOnlineTaskId;
    Task task;
    double util = 0.0;
    std::uint32_t from = 0;  // current machine
    std::uint32_t to = 0;    // canonical first-fit machine
  };
  std::vector<Move> moves;  // canonical order; empty when !feasible
};

class OnlinePartitioner {
 public:
  static constexpr std::size_t kNoMachine = static_cast<std::size_t>(-1);

  // The platform is copied and fixed for the controller's lifetime.
  // alpha >= 1; engine as in first_fit_partition (kAuto picks the segment
  // tree whenever the test has a fold).
  //
  // The controller runs the test admit_cfg.test, or `kind` when that is
  // empty (the "legacy" config).  A tiered test (partition/admission.h)
  // folds overhead-inflated task *densities* at tier 0 and escalates a
  // tier-0 reject through its DBF/RTA tiers before the first-fit verdict;
  // for implicit tasks density == utilization, so `bound` makes
  // bit-identical decisions to kEdf.  The band and overhead knobs apply
  // to tiered tests only.
  OnlinePartitioner(const Platform& platform, AdmissionKind kind, double alpha,
                    PartitionEngine engine = PartitionEngine::kAuto,
                    const admit::AdmitConfig& admit_cfg = {});

  // First-fit admission: leftmost machine whose test still passes.
  // O(log m) (tree engine) or O(m) (naive engine) when tier 0 decides; both
  // make bit-identical decisions.  `t` must pass accepts_input().
  AdmitDecision admit(const Task& t);

  // True when admit() takes `t` as input: a valid task, implicit unless the
  // test is tiered, and an overhead-inflated WCET that fits int64.  Servers
  // check it before admitting client-supplied parameters.
  bool accepts_input(const Task& t) const;

  // Removes a resident task and releases its slack.  Returns false (and
  // changes nothing) if the id is unknown, stale, or already departed.
  // O(k) in the number of tasks resident on the task's machine.
  bool depart(OnlineTaskId id);

  // Re-runs the canonical first fit (utilization descending, ties by
  // admission sequence) over all residents.  On success applies the new
  // assignment; existing OnlineTaskIds remain valid and follow their tasks.
  // Equivalent to apply_plan(migration_plan()) plus the decision-stream
  // bookkeeping below.
  RebalanceReport rebalance();

  // Computes the canonical re-pack without touching the live assignment.
  MigrationPlan migration_plan();

  // Commits a plan produced by migration_plan().  Returns applied=false
  // (state untouched) if the plan is infeasible or stale — i.e. the
  // resident set changed since the plan was computed.  Does NOT advance
  // the decision stream; rebalance() is the client-facing wrapper.
  RebalanceReport apply_plan(const MigrationPlan& plan);

  // Migration variants for shard resize and crash recovery: identical
  // placement decisions and decision-sequence bump as admit()/depart(),
  // but the decision checksum is NOT folded — a tenant moved between
  // shards is not a client-visible decision, and a resize that aborts
  // half-way must leave the durable checksum stream untouched.
  AdmitDecision admit_migrated(const Task& t);
  bool depart_migrated(OnlineTaskId id);

  // Opaque copy of the mutable state.  restore() returns false (and
  // changes nothing) if the snapshot came from a controller with a
  // different machine count, so recovery can fall back to an older
  // snapshot instead of killing the server.
  struct Snapshot;
  Snapshot snapshot() const;
  bool restore(const Snapshot& snap);

  // Binary round-trip of the snapshot state for the durability layer.
  // The byte format stores only the discrete state (slots, free list,
  // resident lists, sequence numbers); per-machine folds are recomputed
  // on restore as the canonical left fold over each resident list, which
  // the audit layer proves bit-identical to the incrementally maintained
  // values — so a restored controller is bit-exact without ever writing
  // floating-point accumulator state to disk.
  std::vector<std::uint8_t> serialize_snapshot() const;
  // Validates structure (magic, version, kind, machine count, alpha, slot
  // cross-references, and — tiered — the admission config) and returns
  // false without mutating on any mismatch.
  bool restore_bytes(const std::uint8_t* data, std::size_t size);
  // True when `data` carries an intact snapshot identity header (known
  // magic + version) that was written by a *differently configured*
  // controller — version/kind/machine-count/alpha or, for tiered
  // configs, the admission test and its knobs disagree.  Lets recovery
  // fail loudly on config drift instead of skipping the file the way it
  // skips a torn or corrupt one (which would silently restart empty once
  // the rotated WAL no longer re-derives the state).
  bool snapshot_config_mismatch(const std::uint8_t* data,
                                std::size_t size) const;

  // Pre-grows the slot arena so the next `tasks` admissions need no arena
  // growth (per-machine resident lists still warm up on first use).
  void reserve(std::size_t tasks);

  // --- observers -----------------------------------------------------
  const Platform& platform() const { return platform_; }
  // The test that decides, its row resolved from the constructor's kind
  // and config.
  AdmissionKind kind() const { return kind_; }
  double alpha() const { return alpha_; }
  // The band and overheads in force: as configured for a tiered test,
  // the defaults otherwise.
  const admit::AdmitConfig& admit_config() const { return admit_cfg_; }
  bool tiered() const { return admission_row(kind_).tiered; }
  std::size_t machine_count() const { return platform_.size(); }
  std::size_t resident_count() const { return st_.resident; }

  // Decision stream: every admit/depart/rebalance — including the
  // *_migrated variants — bumps the monotone sequence number; only
  // client-facing ops fold the FNV-1a decision checksum.  Recovery
  // replays the WAL and asserts both values record by record, so a
  // restored controller is provably on the same decision stream.
  std::uint64_t decision_seq() const { return st_.decision_seq; }
  std::uint64_t decision_checksum() const { return st_.decision_checksum; }

  // Load admitted on machine j: the sum of unaugmented task utilizations
  // for the paper's kinds, of (overhead-inflated) task *densities* for the
  // tiered tests — in both cases the quantity the tier-0 fold accumulates.
  double machine_utilization(std::size_t j) const;
  std::size_t machine_task_count(std::size_t j) const;

  // The machine a live id is assigned to, or nullopt for stale ids.
  std::optional<std::size_t> machine_of(OnlineTaskId id) const;
  // The task behind a live id, or nullopt for stale ids.
  std::optional<Task> task_of(OnlineTaskId id) const;

  // Machine j's residents in admission order (copies the Task values).
  std::vector<Task> machine_tasks(std::size_t j) const;

  // Every live (id, task) pair in slot-index order — a deterministic
  // enumeration of the resident set, used by shard merge to move all
  // tenants and by recovery verification.
  std::vector<std::pair<OnlineTaskId, Task>> residents() const;

  double total_utilization() const;

  // "EDF alpha=2.000 resident=5 load=[0.400000,0.250000]" — for logs.
  std::string to_string() const;

 private:
  struct Slot {
    Task task;
    double util = 0.0;          // slot weight: inflated density
    std::uint64_t seq = 0;      // admission sequence, canonical tie-break
    std::uint32_t machine = 0;  // valid while live
    std::uint32_t gen = 0;      // bumped on depart
    bool live = false;
  };

  // Per machine: the tier-0 fold MachineLoad would compute.
  struct Folds {
    std::vector<double> util_sum;
    std::vector<double> hyper;
    std::vector<std::size_t> count;
    std::vector<double> slack;
    // m empty machines.
    void reset(AdmissionFold fold, const std::vector<double>& capacity);
    // HETSCHED_NOALLOC
    void step(AdmissionFold fold, std::size_t j, double w, double capacity) {
      admission_fold_step(fold, w, capacity, util_sum[j], hyper[j], count[j],
                          slack[j]);
    }
  };

  // Everything snapshot()/restore() copies.
  struct State {
    std::vector<Slot> slots;
    std::vector<std::uint32_t> free_slots;  // dead slot indices, LIFO
    // Per machine: resident slot indices in admission order.
    std::vector<std::vector<std::uint32_t>> residents;
    Folds fold;
    std::uint64_t next_seq = 0;
    std::size_t resident = 0;
    // Decision stream (see decision_seq()/decision_checksum()).
    std::uint64_t decision_seq = 0;
    std::uint64_t decision_checksum = kFnv1aOffsetBasis;
  };

  // The task every tier sees: overhead-inflated, deadline explicit.
  Task inflated(const Task& t) const;
  AdmissionFold fold() const { return admission_row(kind_).fold; }
  bool escalates() const { return admission_row(kind_).escalates(); }
  // First fit over the resolved test: the engine answers the tier-0 slack
  // query; machines left of its answer are offered to the escalation in
  // index order.  Sets `tier` to the tier that decided (on reject: the
  // deepest tier consulted).
  std::size_t find_machine(const Task& ct, double w, std::uint8_t& tier) const;
  void recompute_machine(std::size_t j);
  AdmitDecision admit_impl(const Task& t, bool fold_checksum);
  bool depart_impl(OnlineTaskId id, bool fold_checksum);
  // Rebuilds the per-machine demand mirrors from the resident lists, in
  // list order — the deciders sum demand in that order, so recovery must
  // reproduce it exactly.
  void rebuild_demand();
#if HETSCHED_AUDIT_ENABLED
  // Shadow-oracle checks (see partition/audit.h).  Machine-local fold and
  // demand-mirror recomputation, first-fit decision replay, whole-state
  // invariants, and bit-identity of the canonical state with the batch
  // oracle.
  void audit_verify_machine(std::size_t j) const;
  void audit_verify_decision(const Task& ct, double w, std::size_t chosen,
                             std::uint8_t tier) const;
  void audit_verify_full() const;
  void audit_verify_canonical() const;
#endif
  static OnlineTaskId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<OnlineTaskId>(gen) << 32) | slot;
  }

  Platform platform_;
  AdmissionKind kind_;  // the resolved test (its row decides everything)
  double alpha_ = 1.0;
  admit::AdmitConfig admit_cfg_;       // band and overheads in force
  bool use_tree_ = true;               // resolved engine is the segment tree
  std::vector<double> capacity_;       // per machine: alpha * s_j (fixed)
  std::vector<Rational> speed_exact_;  // per machine: alpha * s_j, exact
                                       // (the escalation runs on rationals)
  State st_;
  SlackTree tree_;                     // mirrors st_.fold.slack when use_tree_
  // Escalating tests: per-machine demand mirrors of the inflated residents,
  // index-aligned with st_.residents[j] (same push / ordered-erase
  // discipline).  Mutable because escalation transiently pushes the
  // candidate during const machine search; net state is unchanged on
  // return.
  mutable std::vector<admit::MachineDemand> demand_;
  // Rebalance scratch (reused; rebalance itself may allocate on growth).
  std::vector<std::uint32_t> rb_order_;
  Folds rb_fold_;
  std::vector<admit::MachineDemand> rb_demand_;
};

struct OnlinePartitioner::Snapshot {
  State state;
};

}  // namespace hetsched
