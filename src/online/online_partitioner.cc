#include "online/online_partitioner.h"

#include <algorithm>
#include <bit>
#include <iomanip>
#include <optional>
#include <span>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/audit.h"
#include "util/check.h"
#include "util/little_endian.h"

#if HETSCHED_AUDIT_ENABLED
#include "partition/first_fit.h"
#endif

namespace hetsched {

#if HETSCHED_METRICS_ENABLED
namespace {

// Pre-registered handles (lint rule [metric-handle]: hot paths must not
// look metrics up by name).  The namespace-scope constructor runs during
// static initialization, so no HETSCHED_NOALLOC function ever triggers
// registration.  Note that audit builds replay batch oracles through these
// same paths, so audit-mode counter values exceed the decision counts.
struct OnlineMetrics {
  obs::Counter admits_warm = obs::registry().counter(
      "hetsched_admit_warm_total", "admits that reused a free arena slot");
  obs::Counter admits_cold = obs::registry().counter(
      "hetsched_admit_cold_total", "admits that grew the slot arena");
  obs::Counter admits_rejected = obs::registry().counter(
      "hetsched_admit_reject_total", "admission attempts no machine fit");
  obs::Counter departs = obs::registry().counter(
      "hetsched_depart_total", "successful departures");
  obs::Counter departs_stale = obs::registry().counter(
      "hetsched_depart_stale_total", "departures with a dead or reused id");
  obs::Counter rebalances_applied = obs::registry().counter(
      "hetsched_rebalance_applied_total", "rebalances that committed");
  obs::Counter rebalances_failed = obs::registry().counter(
      "hetsched_rebalance_failed_total",
      "rebalances whose trial re-pack did not fit");
  obs::Counter migrations = obs::registry().counter(
      "hetsched_rebalance_migrations_total",
      "tasks moved to a different machine by rebalances");
  obs::LatencyHistogram admit_ns = obs::registry().histogram(
      "hetsched_admit_latency_ns",
      "admit() latency (sampled 1/kLatencySamplePeriod)");
  obs::LatencyHistogram depart_ns = obs::registry().histogram(
      "hetsched_depart_latency_ns",
      "depart() latency (sampled 1/kLatencySamplePeriod)");
  obs::LatencyHistogram rebalance_ns = obs::registry().histogram(
      "hetsched_rebalance_latency_ns", "rebalance() latency (every call)");
};
const OnlineMetrics g_metrics;

}  // namespace
#endif  // HETSCHED_METRICS_ENABLED

OnlinePartitioner::OnlinePartitioner(const Platform& platform,
                                     AdmissionKind kind, double alpha,
                                     PartitionEngine engine,
                                     const admit::AdmitConfig& admit_cfg)
    : platform_(platform),
      kind_(admit_cfg.test.value_or(kind)),
      alpha_(alpha) {
  HETSCHED_CHECK(platform_.size() >= 1);
  HETSCHED_CHECK(alpha_ >= 1.0);
  // The band and overheads are the tiered tests' knobs; the paper's tests
  // keep the defaults (no inflation).
  if (tiered()) admit_cfg_ = admit_cfg;
  use_tree_ =
      resolve_engine(engine, kind_) == PartitionEngine::kSegmentTree;
  const std::size_t m = platform_.size();
  capacity_.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    capacity_[j] = platform_.speed(j) * alpha_;
  }
  st_.residents.resize(m);
  st_.fold.reset(fold(), capacity_);
  if (escalates()) {
    demand_.resize(m);
    speed_exact_.reserve(m);
    // The same alpha quantization MachineLoad uses.
    const Rational ar = rational_from_double(alpha_, 1'000'000);
    for (std::size_t j = 0; j < m; ++j) {
      speed_exact_.push_back(platform_.speed_exact(j) * ar);
    }
  }
  if (use_tree_) tree_.build(st_.fold.slack);
}

void OnlinePartitioner::Folds::reset(AdmissionFold fold,
                                     const std::vector<double>& capacity) {
  const std::size_t m = capacity.size();
  util_sum.assign(m, 0.0);
  hyper.assign(m, 1.0);
  count.assign(m, 0);
  slack.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    slack[j] = admission_slack(fold, capacity[j], 0.0, 0, 1.0);
  }
}

Task OnlinePartitioner::inflated(const Task& t) const {
  const std::optional<Task> ct = admit::inflate(admit_cfg_, t);
  HETSCHED_CHECK_MSG(ct.has_value(), "overhead inflation overflow");
  return *ct;
}

bool OnlinePartitioner::accepts_input(const Task& t) const {
  return t.valid() && (tiered() || t.implicit_deadline()) &&
         admit::inflate(admit_cfg_, t).has_value();
}

void OnlinePartitioner::rebuild_demand() {
  if (!escalates()) return;
  for (std::size_t j = 0; j < platform_.size(); ++j) {
    demand_[j].clear();
    demand_[j].reserve(st_.residents[j].size() + 1);
    for (const std::uint32_t idx : st_.residents[j]) {
      demand_[j].push(inflated(st_.slots[idx].task));
    }
  }
}

// HETSCHED_OWNER_LOOP (warm admit: pure compute over the slack array and
// the demand mirrors, no syscalls)
// HETSCHED_NOALLOC (warm: escalation pushes into reserved mirror capacity)
std::size_t OnlinePartitioner::find_machine(const Task& ct, double w,
                                            std::uint8_t& tier) const {
  // j0 = leftmost tier-0 accept.  A tier-0 accept implies the escalation
  // accepts too (dbf_i(t) <= (c_i/d_i) t for t >= d_i), so j0 is an upper
  // bound on the first-fit answer and machines right of it never need to
  // be consulted.
  const std::size_t m = platform_.size();
  std::size_t j0 = kNoMachine;
  if (use_tree_) {
    const std::size_t j = tree_.find_first_at_least(w);
    if (j != SlackTree::npos) j0 = j;
  } else {
    // Naive engine: the reference linear scan, identical comparisons.
    for (std::size_t j = 0; j < m && j0 == kNoMachine; ++j) {
      if (w <= st_.fold.slack[j]) j0 = j;
    }
  }
  tier = admit::kTierBound;
  if (!escalates()) return j0;
  // Machines left of j0 rejected tier 0; offer them to the escalation in
  // index order (first fit over the full test).
  const std::size_t limit = j0 == kNoMachine ? m : j0;
  std::uint8_t deepest = admit::kTierBound;
  for (std::size_t j = 0; j < limit; ++j) {
    const double margin =
        (st_.fold.util_sum[j] + w - capacity_[j]) / capacity_[j];
    const admit::TierVerdict v = admit::escalate(
        kind_, admit_cfg_.band, demand_[j], ct, speed_exact_[j], margin);
    if (v.accept) {
      tier = v.tier;
      return j;
    }
    deepest = std::max(deepest, v.tier);
  }
  if (j0 == kNoMachine) tier = deepest;
  return j0;
}

// HETSCHED_OWNER_LOOP (warm admit is called per frame from the server's
// owner loops; pure compute, no syscalls)
// HETSCHED_NOALLOC (warm arena; growth is amortized)
AdmitDecision OnlinePartitioner::admit(const Task& t) {
  return admit_impl(t, /*fold_checksum=*/true);
}

// HETSCHED_NOALLOC (warm arena; growth is amortized)
AdmitDecision OnlinePartitioner::admit_migrated(const Task& t) {
  return admit_impl(t, /*fold_checksum=*/false);
}

// HETSCHED_NOALLOC (warm arena; growth is amortized)
AdmitDecision OnlinePartitioner::admit_impl(const Task& t,
                                            bool fold_checksum) {
  HETSCHED_TIMED_SAMPLED(g_metrics.admit_ns);
  HETSCHED_CHECK(t.valid());
  // The paper's kinds predate the deadline field and must keep their byte
  // streams bit-identical; deadlines are the tiered tests' to decide.
  HETSCHED_CHECK(tiered() || t.implicit_deadline());
  AdmitDecision d;
  d.utilization = t.utilization();
  // Slot weight: the inflated density, which for the paper's kinds (no
  // overhead, d == p) is bit-equal to the utilization.
  const Task ct = inflated(t);
  const double w = ct.density();
  std::uint8_t tier = admit::kTierBound;
  const std::size_t j = find_machine(ct, w, tier);
  // The paper's kinds persist tier 0 whatever decided: their WAL records
  // predate tiers.
  if (tiered()) d.tier = tier;
  // The checksum folds the deadline only when one rides the request, so
  // every pre-deadline decision stream replays byte-identically.
  const auto fold_admit = [&](bool admitted, std::size_t machine) {
    ++st_.decision_seq;
    if (!fold_checksum) return;
    std::uint64_t h = st_.decision_checksum;
    h = fnv1a_u64(h, 1);  // op tag: admit
    h = fnv1a_u64(h, static_cast<std::uint64_t>(t.exec));
    h = fnv1a_u64(h, static_cast<std::uint64_t>(t.period));
    if (t.deadline != 0) {
      h = fnv1a_u64(h, static_cast<std::uint64_t>(t.deadline));
    }
    h = fnv1a_u64(h, admitted ? 1 : 0);
    h = fnv1a_u64(h, admitted ? static_cast<std::uint64_t>(machine)
                              : ~std::uint64_t{0});
    st_.decision_checksum = h;
  };
  if (j == kNoMachine) {
    fold_admit(false, kNoMachine);
    HETSCHED_COUNT(g_metrics.admits_rejected);
    HETSCHED_TRACE_EVENT(obs::TraceKind::kAdmit, false, 0, 0);
    HETSCHED_AUDIT_HOOK(audit_verify_decision(ct, w, kNoMachine, tier));
    return d;
  }

  st_.fold.step(fold(), j, w, capacity_[j]);
  if (use_tree_) tree_.update(j, st_.fold.slack[j]);
  if (escalates()) demand_[j].push(ct);
  std::uint32_t slot;
  if (!st_.free_slots.empty()) {
    slot = st_.free_slots.back();
    st_.free_slots.pop_back();
    HETSCHED_COUNT(g_metrics.admits_warm);
  } else {
    slot = static_cast<std::uint32_t>(st_.slots.size());
    st_.slots.emplace_back();  // hetsched-lint: allow(noalloc) arena growth
    HETSCHED_COUNT(g_metrics.admits_cold);
  }
  Slot& s = st_.slots[slot];
  s.task = t;
  s.util = w;
  s.seq = st_.next_seq++;
  s.machine = static_cast<std::uint32_t>(j);
  s.live = true;
  // hetsched-lint: allow(noalloc) arena growth, amortized after warm-up
  st_.residents[j].push_back(slot);
  ++st_.resident;

  d.admitted = true;
  d.id = make_id(slot, s.gen);
  d.machine = j;
  fold_admit(true, j);
  HETSCHED_TRACE_EVENT(obs::TraceKind::kAdmit, true, j, slot);
  HETSCHED_AUDIT_HOOK(audit_verify_decision(ct, w, j, tier);
                      audit_verify_machine(j));
  return d;
}

// HETSCHED_NOALLOC
void OnlinePartitioner::recompute_machine(std::size_t j) {
  Folds& f = st_.fold;
  double util_sum = 0.0;
  double hyper = 1.0;
  std::size_t count = 0;
  for (const std::uint32_t idx : st_.residents[j]) {
    admission_accumulate(fold(), st_.slots[idx].util, capacity_[j], util_sum,
                         hyper, count);
  }
  f.util_sum[j] = util_sum;
  f.hyper[j] = hyper;
  f.count[j] = count;
  f.slack[j] = admission_slack(fold(), capacity_[j], util_sum, count, hyper);
  if (use_tree_) tree_.update(j, f.slack[j]);
}

// HETSCHED_OWNER_LOOP (warm depart, same per-frame contract as admit)
// HETSCHED_NOALLOC (warm arena; growth is amortized)
bool OnlinePartitioner::depart(OnlineTaskId id) {
  return depart_impl(id, /*fold_checksum=*/true);
}

// HETSCHED_NOALLOC (warm arena; growth is amortized)
bool OnlinePartitioner::depart_migrated(OnlineTaskId id) {
  return depart_impl(id, /*fold_checksum=*/false);
}

// HETSCHED_NOALLOC (warm arena; growth is amortized)
bool OnlinePartitioner::depart_impl(OnlineTaskId id, bool fold_checksum) {
  HETSCHED_TIMED_SAMPLED(g_metrics.depart_ns);
  const auto fold_depart = [&](bool ok) {
    ++st_.decision_seq;
    if (fold_checksum) {
      std::uint64_t h = st_.decision_checksum;
      h = fnv1a_u64(h, 2);  // op tag: depart
      h = fnv1a_u64(h, id);
      h = fnv1a_u64(h, ok ? 1 : 0);
      st_.decision_checksum = h;
    }
  };
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= st_.slots.size()) {
    fold_depart(false);
    HETSCHED_COUNT(g_metrics.departs_stale);
    return false;
  }
  Slot& s = st_.slots[slot];
  if (!s.live || s.gen != gen) {
    fold_depart(false);
    HETSCHED_COUNT(g_metrics.departs_stale);
    return false;
  }

  const std::size_t j = s.machine;
  auto& res = st_.residents[j];
  const auto it = std::find(res.begin(), res.end(), slot);
  if (escalates()) {
    demand_[j].remove_at(static_cast<std::size_t>(it - res.begin()));
  }
  res.erase(it);
  s.live = false;
  ++s.gen;  // invalidate the departed id forever
  // hetsched-lint: allow(noalloc) arena free list, amortized after warm-up
  st_.free_slots.push_back(slot);
  --st_.resident;
  recompute_machine(j);
  fold_depart(true);
  HETSCHED_COUNT(g_metrics.departs);
  HETSCHED_TRACE_EVENT(obs::TraceKind::kDepart, true, j, slot);
  HETSCHED_AUDIT_HOOK(audit_verify_full());
  return true;
}

MigrationPlan OnlinePartitioner::migration_plan() {
  MigrationPlan plan;
  plan.resident = st_.resident;
  if (st_.resident == 0) {
    plan.feasible = true;
    return plan;
  }

  // Canonical order: utilization descending, ties by admission sequence —
  // the exact order first_fit_partition consumes tasks in when the
  // residents are laid out as a TaskSet in admission order.
  rb_order_.clear();
  for (std::uint32_t i = 0; i < st_.slots.size(); ++i) {
    if (st_.slots[i].live) rb_order_.push_back(i);
  }
  std::sort(rb_order_.begin(), rb_order_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              // Exact double tie-break on purpose: must reproduce the batch
              // ordering bit for bit.  hetsched-lint: allow(float-compare)
              if (st_.slots[a].util != st_.slots[b].util) {
                return st_.slots[a].util > st_.slots[b].util;
              }
              return st_.slots[a].seq < st_.slots[b].seq;
            });

  // Trial pass on scratch state; the live assignment is untouched.  It
  // replays the full test (tier-0 slack, then the escalation over trial
  // demand mirrors), so a re-pack stays feasible for sets only the
  // escalation admitted.
  const std::size_t m = platform_.size();
  rb_fold_.reset(fold(), capacity_);
  if (escalates()) {
    rb_demand_.resize(m);
    for (admit::MachineDemand& dm : rb_demand_) dm.clear();
  }
  plan.moves.reserve(rb_order_.size());
  for (std::size_t pos = 0; pos < rb_order_.size(); ++pos) {
    const std::uint32_t idx = rb_order_[pos];
    const Slot& s = st_.slots[idx];
    const Task ct = escalates() ? inflated(s.task) : s.task;
    std::size_t placed = kNoMachine;
    for (std::size_t j = 0; j < m && placed == kNoMachine; ++j) {
      if (s.util <= rb_fold_.slack[j]) {
        placed = j;
      } else if (escalates()) {
        const double margin =
            (rb_fold_.util_sum[j] + s.util - capacity_[j]) / capacity_[j];
        const admit::TierVerdict v = admit::escalate(
            kind_, admit_cfg_.band, rb_demand_[j], ct, speed_exact_[j],
            margin);
        if (v.accept) placed = j;
      }
    }
    if (placed == kNoMachine) {  // infeasible: report, no partial plan
      plan.moves.clear();
      return plan;
    }
    rb_fold_.step(fold(), placed, s.util, capacity_[placed]);
    if (escalates()) rb_demand_[placed].push(ct);
    MigrationPlan::Move mv;
    mv.id = make_id(idx, s.gen);
    mv.task = s.task;
    mv.util = s.util;
    mv.from = s.machine;
    mv.to = static_cast<std::uint32_t>(placed);
    if (mv.from != mv.to) ++plan.migrations;
    plan.moves.push_back(mv);
  }
  plan.feasible = true;
  return plan;
}

RebalanceReport OnlinePartitioner::apply_plan(const MigrationPlan& plan) {
  RebalanceReport rep;
  rep.resident = st_.resident;
  if (!plan.feasible || plan.resident != st_.resident) return rep;
  if (st_.resident == 0) {
    rep.applied = true;
    return rep;
  }
  // Stale-plan guard: every move must still name a live slot.  (A fresh
  // plan from migration_plan() always passes; a plan applied after the
  // resident set changed is rejected with the state untouched.)
  for (const MigrationPlan::Move& mv : plan.moves) {
    const auto slot = static_cast<std::uint32_t>(mv.id & 0xffffffffu);
    const auto gen = static_cast<std::uint32_t>(mv.id >> 32);
    if (slot >= st_.slots.size() || !st_.slots[slot].live ||
        st_.slots[slot].gen != gen) {
      return rep;
    }
  }

  // Commit: replay the exact fold-step sequence of the trial pass (same
  // FP operations in the same order, so the committed state is
  // bit-identical to what the plan computed), then rebuild the resident
  // lists in canonical admission order.
  rb_fold_.reset(fold(), capacity_);
  for (std::vector<std::uint32_t>& res : st_.residents) res.clear();
  for (const MigrationPlan::Move& mv : plan.moves) {
    const auto slot = static_cast<std::uint32_t>(mv.id & 0xffffffffu);
    rb_fold_.step(fold(), mv.to, mv.util, capacity_[mv.to]);
    if (st_.slots[slot].machine != mv.to) ++rep.migrations;
    st_.slots[slot].machine = mv.to;
    st_.residents[mv.to].push_back(slot);
  }
  std::swap(st_.fold, rb_fold_);
  if (use_tree_) tree_.build(st_.fold.slack);
  rebuild_demand();
  rep.applied = true;
  // The canonical-oracle audit replays the implicit-deadline batch first
  // fit, which has no notion of the tiered tests — they keep the
  // whole-state audit only.
  HETSCHED_AUDIT_HOOK(audit_verify_full();
                      if (!tiered()) audit_verify_canonical());
  return rep;
}

RebalanceReport OnlinePartitioner::rebalance() {
  HETSCHED_TIMED(g_metrics.rebalance_ns);
  const MigrationPlan plan = migration_plan();
  RebalanceReport rep;
  rep.resident = plan.resident;
  if (plan.feasible) {
    rep = apply_plan(plan);
    HETSCHED_COUNT(g_metrics.rebalances_applied);
    HETSCHED_COUNT_ADD(g_metrics.migrations, rep.migrations);
    HETSCHED_TRACE_EVENT(obs::TraceKind::kRebalance, true, 0, rep.migrations);
  } else {
    HETSCHED_COUNT(g_metrics.rebalances_failed);
    HETSCHED_TRACE_EVENT(obs::TraceKind::kRebalance, false, 0, 0);
  }
  ++st_.decision_seq;
  std::uint64_t h = st_.decision_checksum;
  h = fnv1a_u64(h, 3);  // op tag: rebalance
  h = fnv1a_u64(h, rep.applied ? 1 : 0);
  h = fnv1a_u64(h, rep.migrations);
  st_.decision_checksum = h;
  return rep;
}

OnlinePartitioner::Snapshot OnlinePartitioner::snapshot() const {
  return Snapshot{st_};
}

bool OnlinePartitioner::restore(const Snapshot& snap) {
  if (snap.state.residents.size() != platform_.size()) return false;
  st_ = snap.state;
  if (use_tree_) tree_.build(st_.fold.slack);
  rebuild_demand();
  HETSCHED_AUDIT_HOOK(audit_verify_full());
  return true;
}

namespace {

// Sequential reads over the snapshot payload: a read past the end yields 0
// and clears ok.
struct ByteCursor {
  const std::uint8_t* p;
  std::size_t left;
  bool ok = true;
  template <typename T>
  T take(std::size_t n, T (*get)(const std::uint8_t*)) {
    if (left < n) {
      ok = false;
      return 0;
    }
    const T v = get(p);
    p += n;
    left -= n;
    return v;
  }
  std::uint8_t u8() {
    return take<std::uint8_t>(1, [](const std::uint8_t* q) { return *q; });
  }
  std::uint32_t u32() { return take(4, get_u32); }
  std::uint64_t u64() { return take(8, get_u64); }
};

constexpr std::uint32_t kSnapshotPayloadMagic = 0x53504F48;  // "HOPS"
// Version 1: implicit-deadline slots (exec, period), no admission config.
// Version 2 (tiered controllers only): an admission-config block follows
// alpha — test id, band bits, overheads — and every slot record carries a
// deadline.  The paper's kinds keep writing version 1 byte-identically.
constexpr std::uint32_t kSnapshotPayloadVersion = 1;
constexpr std::uint32_t kSnapshotPayloadVersionTiered = 2;

// The payload's identity header: which controller configuration wrote it.
// Recovery refuses a snapshot whose header disagrees with the serving
// config instead of silently replaying a different decision function.
struct SnapshotHeader {
  std::uint32_t version = 0;
  std::uint32_t kind = 0;
  std::uint32_t machines = 0;
  std::uint64_t alpha = 0;  // bit pattern
  // Version 2 only: the selected test and its knobs.
  std::uint32_t test = 0;
  std::uint64_t band = 0;  // bit pattern
  std::uint64_t release_overhead = 0;
  std::uint64_t preempt_overhead = 0;

  friend bool operator==(const SnapshotHeader&,
                         const SnapshotHeader&) = default;
};

SnapshotHeader header_of(const OnlinePartitioner& c) {
  const AdmissionRow& row = admission_row(c.kind());
  SnapshotHeader h;
  h.machines = static_cast<std::uint32_t>(c.machine_count());
  h.alpha = std::bit_cast<std::uint64_t>(c.alpha());
  if (!row.tiered) {
    h.version = kSnapshotPayloadVersion;
    h.kind = row.id;
    return h;
  }
  const admit::AdmitConfig& cfg = c.admit_config();
  h.version = kSnapshotPayloadVersionTiered;
  h.kind = static_cast<std::uint32_t>(row.fold);
  h.test = row.id;
  h.band = std::bit_cast<std::uint64_t>(cfg.band);
  h.release_overhead = static_cast<std::uint64_t>(cfg.release_overhead);
  h.preempt_overhead = static_cast<std::uint64_t>(cfg.preempt_overhead);
  return h;
}

void put_header(std::vector<std::uint8_t>& out, const SnapshotHeader& h) {
  put_le(out, kSnapshotPayloadMagic);
  put_le(out, h.version);
  put_le(out, h.kind);
  put_le(out, h.machines);
  put_le(out, h.alpha);
  if (h.version == kSnapshotPayloadVersionTiered) {
    put_le(out, h.test);
    put_le(out, h.band);
    put_le(out, h.release_overhead);
    put_le(out, h.preempt_overhead);
  }
}

// Reads a header with the known magic and a known version; false on
// anything else (corruption, not a configuration we can name).
bool read_header(ByteCursor& c, SnapshotHeader& h) {
  if (c.u32() != kSnapshotPayloadMagic) return false;
  h.version = c.u32();
  if (h.version != kSnapshotPayloadVersion &&
      h.version != kSnapshotPayloadVersionTiered) {
    return false;
  }
  h.kind = c.u32();
  h.machines = c.u32();
  h.alpha = c.u64();
  if (h.version == kSnapshotPayloadVersionTiered) {
    h.test = c.u32();
    h.band = c.u64();
    h.release_overhead = c.u64();
    h.preempt_overhead = c.u64();
  }
  return c.ok;
}

}  // namespace

std::vector<std::uint8_t> OnlinePartitioner::serialize_snapshot() const {
  std::vector<std::uint8_t> out;
  out.reserve(64 + st_.slots.size() * 29 + st_.free_slots.size() * 4 +
              (st_.resident + platform_.size()) * 4);
  put_header(out, header_of(*this));
  put_le(out, st_.next_seq);
  put_le(out, st_.decision_seq);
  put_le(out, st_.decision_checksum);
  put_le<std::uint64_t>(out, st_.resident);
  put_le(out, static_cast<std::uint32_t>(st_.slots.size()));
  for (const Slot& s : st_.slots) {
    out.push_back(s.live ? 1 : 0);
    put_le(out, s.gen);
    put_le(out, s.machine);
    put_le(out, s.seq);
    put_le(out, static_cast<std::uint64_t>(s.task.exec));
    put_le(out, static_cast<std::uint64_t>(s.task.period));
    if (tiered()) put_le(out, static_cast<std::uint64_t>(s.task.deadline));
  }
  put_le(out, static_cast<std::uint32_t>(st_.free_slots.size()));
  for (const std::uint32_t idx : st_.free_slots) put_le(out, idx);
  for (const auto& res : st_.residents) {
    put_le(out, static_cast<std::uint32_t>(res.size()));
    for (const std::uint32_t idx : res) put_le(out, idx);
  }
  return out;
}

bool OnlinePartitioner::restore_bytes(const std::uint8_t* data,
                                      std::size_t size) {
  ByteCursor c{data, size};
  SnapshotHeader h;
  if (!read_header(c, h) || h != header_of(*this)) return false;
  const std::size_t m = platform_.size();
  State ns;
  ns.next_seq = c.u64();
  ns.decision_seq = c.u64();
  ns.decision_checksum = c.u64();
  ns.resident = static_cast<std::size_t>(c.u64());
  const std::uint32_t slot_count = c.u32();
  if (!c.ok || slot_count > size) return false;  // cheap sanity bound
  ns.slots.resize(slot_count);
  std::size_t live = 0;
  for (Slot& s : ns.slots) {
    s.live = c.u8() != 0;
    s.gen = c.u32();
    s.machine = c.u32();
    s.seq = c.u64();
    s.task.exec = static_cast<std::int64_t>(c.u64());
    s.task.period = static_cast<std::int64_t>(c.u64());
    if (tiered()) s.task.deadline = static_cast<std::int64_t>(c.u64());
    if (!c.ok) return false;
    if (s.live) {
      if (!accepts_input(s.task) || s.machine >= m || s.seq >= ns.next_seq) {
        return false;
      }
      // Same computation admit() performed, so the cached value is
      // bit-identical to the live controller's.
      s.util = inflated(s.task).density();
      ++live;
    }
  }
  if (live != ns.resident) return false;
  const std::uint32_t free_count = c.u32();
  if (!c.ok || live + free_count != slot_count) return false;
  ns.free_slots.resize(free_count);
  std::vector<bool> seen(slot_count, false);
  for (std::uint32_t& idx : ns.free_slots) {
    idx = c.u32();
    if (!c.ok || idx >= slot_count || ns.slots[idx].live || seen[idx]) {
      return false;
    }
    seen[idx] = true;
  }
  ns.residents.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    const std::uint32_t count = c.u32();
    if (!c.ok || count > slot_count) return false;
    ns.residents[j].resize(count);
    for (std::uint32_t& idx : ns.residents[j]) {
      idx = c.u32();
      if (!c.ok || idx >= slot_count || !ns.slots[idx].live ||
          ns.slots[idx].machine != j || seen[idx]) {
        return false;
      }
      seen[idx] = true;
    }
  }
  if (!c.ok || c.left != 0) return false;
  for (std::uint32_t i = 0; i < slot_count; ++i) {
    if (!seen[i]) return false;  // a live slot missing from its machine list
  }

  // Structure validated: install, then recompute the per-machine folds as
  // the canonical left fold over each resident list — bit-identical to the
  // incrementally maintained values (the audit layer proves this), so no
  // floating-point accumulator ever round-trips through the file.
  ns.fold.reset(fold(), capacity_);
  st_ = std::move(ns);
  for (std::size_t j = 0; j < m; ++j) recompute_machine(j);
  rebuild_demand();
  HETSCHED_AUDIT_HOOK(audit_verify_full());
  return true;
}

bool OnlinePartitioner::snapshot_config_mismatch(const std::uint8_t* data,
                                                 std::size_t size) const {
  ByteCursor c{data, size};
  SnapshotHeader h;
  return read_header(c, h) && h != header_of(*this);
}

void OnlinePartitioner::reserve(std::size_t tasks) {
  st_.slots.reserve(st_.slots.size() + tasks);
  st_.free_slots.reserve(st_.free_slots.size() + tasks);
}

double OnlinePartitioner::machine_utilization(std::size_t j) const {
  HETSCHED_CHECK(j < platform_.size());
  return st_.fold.util_sum[j];
}

std::size_t OnlinePartitioner::machine_task_count(std::size_t j) const {
  HETSCHED_CHECK(j < platform_.size());
  return st_.residents[j].size();
}

std::optional<std::size_t> OnlinePartitioner::machine_of(
    OnlineTaskId id) const {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= st_.slots.size()) return std::nullopt;
  const Slot& s = st_.slots[slot];
  if (!s.live || s.gen != gen) return std::nullopt;
  return static_cast<std::size_t>(s.machine);
}

std::optional<Task> OnlinePartitioner::task_of(OnlineTaskId id) const {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= st_.slots.size()) return std::nullopt;
  const Slot& s = st_.slots[slot];
  if (!s.live || s.gen != gen) return std::nullopt;
  return s.task;
}

std::vector<Task> OnlinePartitioner::machine_tasks(std::size_t j) const {
  HETSCHED_CHECK(j < platform_.size());
  std::vector<Task> out;
  out.reserve(st_.residents[j].size());
  for (const std::uint32_t idx : st_.residents[j]) {
    out.push_back(st_.slots[idx].task);
  }
  return out;
}

std::vector<std::pair<OnlineTaskId, Task>> OnlinePartitioner::residents()
    const {
  std::vector<std::pair<OnlineTaskId, Task>> out;
  out.reserve(st_.resident);
  for (std::size_t i = 0; i < st_.slots.size(); ++i) {
    const Slot& s = st_.slots[i];
    if (s.live) {
      out.emplace_back(make_id(static_cast<std::uint32_t>(i), s.gen), s.task);
    }
  }
  return out;
}

double OnlinePartitioner::total_utilization() const {
  double sum = 0.0;
  for (std::size_t j = 0; j < platform_.size(); ++j) {
    sum += machine_utilization(j);
  }
  return sum;
}

#if HETSCHED_AUDIT_ENABLED

// Audit checks compare recomputed floating-point state bitwise on purpose:
// the incremental fold and the from-scratch fold execute the same FP
// operations in the same order, so any difference at all is a divergence.
// Each comparison site below carries its own line-scoped allow.

void OnlinePartitioner::audit_verify_machine(std::size_t j) const {
  HETSCHED_CHECK(j < platform_.size());
  const Folds& f = st_.fold;
  double util_sum = 0.0;
  double hyper = 1.0;
  std::size_t count = 0;
  for (const std::uint32_t idx : st_.residents[j]) {
    const Slot& s = st_.slots[idx];
    HETSCHED_CHECK_MSG(s.live && s.machine == j,
                       "audit: resident list names a dead or foreign slot");
    // hetsched-lint: allow(float-compare)
    HETSCHED_CHECK_MSG(s.util == inflated(s.task).density(),
                       "audit: cached slot weight is stale");
    admission_accumulate(fold(), s.util, capacity_[j], util_sum, hyper,
                         count);
  }
  const double slack =
      admission_slack(fold(), capacity_[j], util_sum, count, hyper);
  // hetsched-lint: allow(float-compare) — bit-identity is the contract.
  HETSCHED_CHECK_MSG(util_sum == f.util_sum[j],
                     "audit: util_sum fold diverged from recomputation");
  // hetsched-lint: allow(float-compare)
  HETSCHED_CHECK_MSG(hyper == f.hyper[j],
                     "audit: hyperbolic fold diverged from recomputation");
  HETSCHED_CHECK_MSG(f.count[j] == st_.residents[j].size(),
                     "audit: task count diverged from resident list");
  // hetsched-lint: allow(float-compare)
  HETSCHED_CHECK_MSG(slack == f.slack[j],
                     "audit: slack diverged from recomputation");
  if (use_tree_) {
    // hetsched-lint: allow(float-compare)
    HETSCHED_CHECK_MSG(tree_.slack_at(j) == f.slack[j],
                       "audit: SlackTree leaf out of sync with slack array");
  }
  if (escalates()) {
    // The escalation's view of the machine: the inflated residents, in
    // resident-list order.
    const std::span<const Task> mirror = demand_[j].tasks();
    HETSCHED_CHECK_MSG(mirror.size() == st_.residents[j].size(),
                       "audit: demand mirror size diverged from residents");
    for (std::size_t k = 0; k < mirror.size(); ++k) {
      HETSCHED_CHECK_MSG(
          mirror[k] == inflated(st_.slots[st_.residents[j][k]].task),
          "audit: demand mirror diverged from resident list");
    }
    // Tier 1's view: the mirror by deadline, ties by index, with each
    // task's terms re-derived from scratch; the kept ones must match bit
    // for bit.
    std::vector<DeadlineTerm> order;
    for (std::size_t k = 0; k < mirror.size(); ++k) {
      order.push_back(deadline_term(mirror[k], static_cast<std::uint32_t>(k)));
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const DeadlineTerm& a, const DeadlineTerm& b) {
                       return a.deadline < b.deadline;
                     });
    const std::span<const DeadlineTerm> kept = demand_[j].by_deadline();
    HETSCHED_CHECK_MSG(kept.size() == order.size(),
                       "audit: deadline order size diverged from mirror");
    for (std::size_t k = 0; k < order.size(); ++k) {
      const DeadlineTerm& x = kept[k];
      const DeadlineTerm& y = order[k];
      // hetsched-lint: allow(float-compare) — bit-identity is the contract.
      const bool terms = x.c_term == y.c_term && x.u_term == y.u_term;
      // hetsched-lint: allow(float-compare)
      const bool line = x.a_term == y.a_term;
      HETSCHED_CHECK_MSG(x.deadline == y.deadline && x.index == y.index &&
                             x.exact == y.exact && terms && line,
                         "audit: deadline order diverged from the mirror");
    }
  }
}

void OnlinePartitioner::audit_verify_decision(const Task& ct, double w,
                                              std::size_t chosen,
                                              std::uint8_t tier) const {
  // Replay the first-fit decision.  On the admit path the per-machine state
  // has already been folded forward for the chosen machine, so reconstruct
  // its pre-admit admissibility from the decision itself: machines left of
  // `chosen` must reject at every tier, and `chosen` (when a machine was
  // picked by tier 0) must have admitted — which we can still check because
  // only machine `chosen` mutated.  An escalation-decided admit
  // legitimately lands on a machine whose slack rejected it, so the
  // positive check keys on the tier that decided.
  const std::size_t m = platform_.size();
  const std::size_t stop = chosen == kNoMachine ? m : chosen;
  for (std::size_t j = 0; j < stop; ++j) {
    HETSCHED_CHECK_MSG(!(w <= st_.fold.slack[j]),
                       "audit: first fit skipped an admitting machine");
    if (escalates()) {
      const double margin =
          (st_.fold.util_sum[j] + w - capacity_[j]) / capacity_[j];
      const admit::TierVerdict v = admit::escalate(
          kind_, admit_cfg_.band, demand_[j], ct, speed_exact_[j], margin);
      HETSCHED_CHECK_MSG(!v.accept,
                         "audit: first fit skipped an escalation accept");
    }
  }
  if (chosen != kNoMachine && tier == admit::kTierBound) {
    // Undo the fold on the chosen machine: recompute its pre-admit state
    // from the residents minus the newest arrival (the last list entry).
    double util_sum = 0.0;
    double hyper = 1.0;
    std::size_t count = 0;
    const auto& res = st_.residents[chosen];
    for (std::size_t k = 0; k + 1 < res.size(); ++k) {
      admission_accumulate(fold(), st_.slots[res[k]].util, capacity_[chosen],
                           util_sum, hyper, count);
    }
    const double pre_slack =
        admission_slack(fold(), capacity_[chosen], util_sum, count, hyper);
    HETSCHED_CHECK_MSG(w <= pre_slack,
                       "audit: first fit placed on a rejecting machine");
  }
}

void OnlinePartitioner::audit_verify_full() const {
  const std::size_t m = platform_.size();
  std::size_t resident = 0;
  for (std::size_t j = 0; j < m; ++j) {
    audit_verify_machine(j);
    resident += st_.residents[j].size();
  }
  HETSCHED_CHECK_MSG(resident == st_.resident,
                     "audit: resident count diverged from machine lists");
  std::size_t live = 0;
  for (const Slot& s : st_.slots) {
    if (s.live) ++live;
  }
  HETSCHED_CHECK_MSG(live == st_.resident,
                     "audit: live slot count diverged from resident count");
  HETSCHED_CHECK_MSG(st_.free_slots.size() + live == st_.slots.size(),
                     "audit: slot arena leaked or double-freed a slot");
}

void OnlinePartitioner::audit_verify_canonical() const {
  // The controller just committed the canonical re-pack, so batch first fit
  // over the residents (laid out in admission order, the batch tie-break)
  // must reproduce the live assignment bit for bit — this is the
  // bit-identity bridge between the online state and the batch oracle.
  std::vector<std::uint32_t> order;
  order.reserve(st_.resident);
  for (std::uint32_t i = 0; i < st_.slots.size(); ++i) {
    if (st_.slots[i].live) order.push_back(i);
  }
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return st_.slots[a].seq < st_.slots[b].seq;
            });
  std::vector<Task> tasks;
  tasks.reserve(order.size());
  for (const std::uint32_t idx : order) tasks.push_back(st_.slots[idx].task);
  const PartitionResult oracle = first_fit_partition(
      TaskSet(std::move(tasks)), platform_, kind_, alpha_,
      use_tree_ ? PartitionEngine::kSegmentTree : PartitionEngine::kNaive);
  HETSCHED_CHECK_MSG(oracle.feasible,
                     "audit: batch oracle rejects the committed re-pack");
  for (std::size_t i = 0; i < order.size(); ++i) {
    HETSCHED_CHECK_MSG(oracle.assignment[i] == st_.slots[order[i]].machine,
                       "audit: online assignment diverged from batch oracle");
  }
  for (std::size_t j = 0; j < platform_.size(); ++j) {
    // hetsched-lint: allow(float-compare) — bit-identity is the contract.
    HETSCHED_CHECK_MSG(oracle.machine_utilization[j] == machine_utilization(j),
                       "audit: per-machine load diverged from batch oracle");
  }
}

#endif  // HETSCHED_AUDIT_ENABLED

std::string OnlinePartitioner::to_string() const {
  std::ostringstream os;
  os << hetsched::to_string(kind_) << " alpha=" << std::fixed
     << std::setprecision(3) << alpha_ << " resident=" << st_.resident
     << " load=[" << std::setprecision(6);
  for (std::size_t j = 0; j < platform_.size(); ++j) {
    if (j > 0) os << ",";
    os << machine_utilization(j);
  }
  os << "]";
  return os.str();
}

}  // namespace hetsched
