// Tests for the tiered admission-test subsystem (src/admit): config
// parsing, the overhead model, tier semantics of the escalation chain,
// the acceptance hierarchy (bound => approx => exact), batch-oracle
// equivalence with the online controller, legacy bit-identity on
// implicit-deadline streams, and the tiered snapshot round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "admit/admission_test.h"
#include "core/platform.h"
#include "core/task.h"
#include "online/online_partitioner.h"
#include "util/rng.h"
#include "task_literals.h"

namespace hetsched {
namespace {

using admit::AdmitConfig;
using admit::MachineDemand;
using admit::TierVerdict;

AdmitConfig cfg_of(AdmissionKind k) {
  AdmitConfig cfg;
  cfg.test = k;
  return cfg;
}

TEST(AdmitConfig, NamesRoundTrip) {
  const AdmissionKind kinds[] = {AdmissionKind::kBound,
                                 AdmissionKind::kDbfApprox, AdmissionKind::kQpa,
                                 AdmissionKind::kRta, AdmissionKind::kAuto};
  for (AdmissionKind k : kinds) {
    const auto back = admit::test_from_name(admission_row(k).name);
    ASSERT_TRUE(back.has_value()) << admission_row(k).name;
    EXPECT_EQ(*back, k);
    EXPECT_STREQ(admit::test_name(cfg_of(k)), admission_row(k).name);
  }
  EXPECT_STREQ(admit::test_name(AdmitConfig{}), "legacy");
  EXPECT_FALSE(admit::test_from_name("legacy").has_value());
  EXPECT_FALSE(admit::test_from_name("edf").has_value());
  EXPECT_FALSE(admit::test_from_name("").has_value());
  EXPECT_FALSE(admit::test_from_name("exact").has_value());
  EXPECT_FALSE(admit::test_from_name("QPA").has_value());
}

// Which tests take deadlines and which certify fixed priorities: columns
// of the rows.
TEST(AdmitConfig, TieredAndPriorityPredicates) {
  EXPECT_FALSE(admission_row(AdmissionKind::kEdf).tiered);
  EXPECT_FALSE(admission_row(AdmissionKind::kRmsResponseTime).tiered);
  EXPECT_TRUE(admission_row(AdmissionKind::kBound).tiered);
  EXPECT_TRUE(admission_row(AdmissionKind::kAuto).tiered);
  EXPECT_TRUE(admission_row(AdmissionKind::kRta).fixed_priority);
  EXPECT_FALSE(admission_row(AdmissionKind::kQpa).fixed_priority);
}

TEST(AdmitConfig, InflateAppliesOverheadModel) {
  AdmitConfig cfg = cfg_of(AdmissionKind::kQpa);
  cfg.release_overhead = 3;
  cfg.preempt_overhead = 2;
  // Explicit deadline: c' = c + release + 2 * preempt; d and p untouched.
  const Task ct = *admit::inflate(cfg, Task{10, 100, 40});
  EXPECT_EQ(ct.exec, 10 + 3 + 2 * 2);
  EXPECT_EQ(ct.deadline, 40);
  EXPECT_EQ(ct.period, 100);
  // Implicit deadline embeds as d == p.
  const Task imp = *admit::inflate(cfg, Task{10, 100});
  EXPECT_EQ(imp.deadline, 100);
  // Zero overhead is the identity.
  const Task id = *admit::inflate(cfg_of(AdmissionKind::kQpa), Task{7, 9, 8});
  EXPECT_EQ(id.exec, 7);
}

TEST(AdmitConfig, Tier0FoldKind) {
  EXPECT_EQ(admission_row(AdmissionKind::kBound).fold, AdmissionFold::kEdf);
  EXPECT_EQ(admission_row(AdmissionKind::kQpa).fold, AdmissionFold::kEdf);
  EXPECT_EQ(admission_row(AdmissionKind::kAuto).fold, AdmissionFold::kEdf);
  EXPECT_EQ(admission_row(AdmissionKind::kRta).fold,
            AdmissionFold::kLiuLayland);
}

// --- tier semantics on crafted instances --------------------------------
//
// All on one unit-speed machine (capacity 1, speed 1/1).  The two fixtures:
//   A: resident (3,4,20), candidate (4,10,20) — density sum 1.15 rejects
//      at tier 0, but the linear approximate DBF accepts with margin
//      (U = 0.35; at t=4 demand 3 < 4, at t=10 demand 7.9 < 10), so the
//      verdict lands at tier 1 for every escalating kind.
//   B: resident (5,5,10), candidate (4,9,10) — density sum ~1.44 rejects,
//      the approximate DBF overshoots at t = 19 (12 + 8 = 20 > 19), but the
//      exact demand never exceeds t, so only QPA-bearing kinds accept, at
//      tier 2.

const Rational kUnit{1};

TierVerdict decide(AdmissionKind k, const std::vector<Task>& residents,
                   const Task& cand, double band = 0.5) {
  AdmitConfig cfg = cfg_of(k);
  cfg.band = band;
  return admit::machine_admits(cfg, residents, cand, 1.0, kUnit);
}

TEST(AdmitTiers, ApproxAcceptLandsAtTierOne) {
  const std::vector<Task> res = {cdp(3, 4, 20)};
  const Task cand = cdp(4, 10, 20);
  // tier 0 alone rejects ...
  const TierVerdict bound = decide(AdmissionKind::kBound, res, cand);
  EXPECT_FALSE(bound.accept);
  EXPECT_EQ(bound.tier, admit::kTierBound);
  // ... every escalating kind accepts via the approximate DBF.
  for (AdmissionKind k :
       {AdmissionKind::kDbfApprox, AdmissionKind::kQpa, AdmissionKind::kAuto}) {
    const TierVerdict v = decide(k, res, cand);
    EXPECT_TRUE(v.accept) << admission_row(k).name;
    EXPECT_EQ(v.tier, admit::kTierApprox) << admission_row(k).name;
  }
}

TEST(AdmitTiers, QpaAcceptsWhatApproxRejects) {
  const std::vector<Task> res = {cdp(5, 5, 10)};
  const Task cand = cdp(4, 9, 10);
  EXPECT_FALSE(decide(AdmissionKind::kBound, res, cand).accept);
  const TierVerdict approx = decide(AdmissionKind::kDbfApprox, res, cand);
  EXPECT_FALSE(approx.accept);
  EXPECT_EQ(approx.tier, admit::kTierApprox);
  const TierVerdict qpa = decide(AdmissionKind::kQpa, res, cand);
  EXPECT_TRUE(qpa.accept);
  EXPECT_EQ(qpa.tier, admit::kTierExact);
}

TEST(AdmitTiers, AutoBandGatesTheExactTier) {
  const std::vector<Task> res = {cdp(5, 5, 10)};
  const Task cand = cdp(4, 9, 10);
  // Density margin = (1.0 + 4/9 - 1) / 1 ~ 0.444.  Inside the default
  // band the exact tier runs and accepts ...
  const TierVerdict in = decide(AdmissionKind::kAuto, res, cand, 0.5);
  EXPECT_TRUE(in.accept);
  EXPECT_EQ(in.tier, admit::kTierExact);
  // ... outside it the approximate reject stands, and cheaply.
  const TierVerdict out = decide(AdmissionKind::kAuto, res, cand, 0.1);
  EXPECT_FALSE(out.accept);
  EXPECT_EQ(out.tier, admit::kTierApprox);
}

TEST(AdmitTiers, DensitySlackAcceptsAtTierZero) {
  const std::vector<Task> res = {cdp(1, 4, 10)};
  const Task cand = cdp(1, 2, 10);  // densities 0.25 + 0.5 <= 1
  for (AdmissionKind k : {AdmissionKind::kBound, AdmissionKind::kDbfApprox,
                          AdmissionKind::kQpa, AdmissionKind::kRta,
                          AdmissionKind::kAuto}) {
    const TierVerdict v = decide(k, res, cand);
    EXPECT_TRUE(v.accept) << admission_row(k).name;
    EXPECT_EQ(v.tier, admit::kTierBound) << admission_row(k).name;
  }
}

TEST(AdmitTiers, RtaDecidesFixedPriorityAtTierTwo) {
  // Densities 0.5 + 0.75 reject the LL-over-densities filter, but DM
  // response times fit: R1 = 2 <= 2, R2 = 2 + 3 = 5 <= 6 (RM order: the
  // d=2 task preempts once within [0, 6]... exactly once since p1 = 8).
  const std::vector<Task> res = {cdp(2, 2, 8)};
  const Task cand = cdp(3, 6, 8);
  const TierVerdict v = decide(AdmissionKind::kRta, res, cand);
  EXPECT_TRUE(v.accept);
  EXPECT_EQ(v.tier, admit::kTierExact);
}

TEST(AdmitTiers, EscalateLeavesDemandUnchanged) {
  MachineDemand demand;
  demand.reserve(4);
  demand.push(cdp(5, 5, 10));
  const TierVerdict v = admit::escalate(AdmissionKind::kQpa, 0.5, demand,
                                       cdp(4, 9, 10), kUnit, 0.45);
  EXPECT_TRUE(v.accept);
  ASSERT_EQ(demand.size(), 1u);
  EXPECT_EQ(demand.tasks()[0].exec, 5);
  // Ordered erase keeps later elements in place.
  demand.push(cdp(4, 9, 10));
  demand.push(cdp(1, 2, 4));
  demand.remove_at(0);
  ASSERT_EQ(demand.size(), 2u);
  EXPECT_EQ(demand.tasks()[0].exec, 4);
  EXPECT_EQ(demand.tasks()[1].exec, 1);
}

// Property: the tiers form a hierarchy.  Over random constrained sets, a
// bound accept implies a dbf-approx accept implies a QPA accept, and auto
// with an infinite band agrees with QPA's verdict exactly.
TEST(AdmitTiers, AcceptanceHierarchyProperty) {
  Rng rng(0xAD317);
  std::size_t bound_accepts = 0, approx_only = 0, exact_only = 0;
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<Task> res;
    const int n = static_cast<int>(rng.uniform_int(0, 4));
    for (int i = 0; i < n; ++i) {
      const std::int64_t p = rng.uniform_int(4, 60);
      const std::int64_t d = rng.uniform_int(1, p);
      const std::int64_t c = rng.uniform_int(1, d);
      res.push_back(cdp(c, d, p));
    }
    const std::int64_t p = rng.uniform_int(4, 60);
    const std::int64_t d = rng.uniform_int(1, p);
    const Task cand = cdp(rng.uniform_int(1, d), d, p);

    const TierVerdict b = decide(AdmissionKind::kBound, res, cand);
    const TierVerdict a = decide(AdmissionKind::kDbfApprox, res, cand);
    const TierVerdict q = decide(AdmissionKind::kQpa, res, cand);
    const TierVerdict au = decide(AdmissionKind::kAuto, res, cand, 1e9);
    if (b.accept) {
      EXPECT_TRUE(a.accept) << "iter " << iter;
      EXPECT_TRUE(q.accept) << "iter " << iter;
      ++bound_accepts;
    }
    if (a.accept) {
      EXPECT_TRUE(q.accept) << "iter " << iter;
    }
    EXPECT_EQ(au.accept, q.accept) << "iter " << iter;
    if (a.accept && !b.accept) ++approx_only;
    if (q.accept && !a.accept) ++exact_only;
  }
  // The sweep must exercise all three tiers, not degenerate cases.
  EXPECT_GT(bound_accepts, 0u);
  EXPECT_GT(approx_only, 0u);
  EXPECT_GT(exact_only, 0u);
}

// --- controller integration ---------------------------------------------

TEST(AdmitController, MatchesBatchOracleFirstFit) {
  const Platform platform = Platform::from_speeds({1.0, 1.0});
  AdmitConfig cfg = cfg_of(AdmissionKind::kQpa);
  OnlinePartitioner ctl(platform, AdmissionKind::kEdf, 1.0,
                        PartitionEngine::kAuto, cfg);
  ASSERT_TRUE(ctl.tiered());

  std::vector<std::vector<Task>> shadow(platform.size());
  Rng rng(0xF00D);
  std::size_t admitted = 0, rejected = 0;
  for (int iter = 0; iter < 120; ++iter) {
    const std::int64_t p = rng.uniform_int(5, 40);
    const std::int64_t d =
        rng.next_double() < 0.3 ? 0 : rng.uniform_int(2, p);  // mixed stream
    const std::int64_t c = rng.uniform_int(1, d == 0 ? p : d);
    const Task t{c, p, d};

    // Shadow first fit: leftmost machine whose selected test accepts.
    const Task ct = *admit::inflate(cfg, t);
    std::size_t want = OnlinePartitioner::kNoMachine;
    TierVerdict want_v;
    for (std::size_t j = 0; j < platform.size(); ++j) {
      const TierVerdict v = admit::machine_admits(
          cfg, shadow[j], ct, platform.speed(j), platform.speed_exact(j));
      if (v.accept) {
        want = j;
        want_v = v;
        break;
      }
    }

    const AdmitDecision got = ctl.admit(t);
    if (want == OnlinePartitioner::kNoMachine) {
      EXPECT_FALSE(got.admitted) << "iter " << iter;
      ++rejected;
    } else {
      ASSERT_TRUE(got.admitted) << "iter " << iter;
      EXPECT_EQ(got.machine, want) << "iter " << iter;
      EXPECT_EQ(got.tier, want_v.tier) << "iter " << iter;
      shadow[want].push_back(ct);
      ++admitted;
    }
  }
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(ctl.resident_count(), admitted);
}

// An implicit-deadline stream through the tiered bound-only controller is
// bit-identical to the legacy kEdf controller: same decisions, machines,
// and decision checksum (density == utilization when d == p, and the
// checksum folds the deadline only when nonzero).
TEST(AdmitController, ImplicitStreamBitIdenticalToLegacy) {
  const Platform platform = Platform::from_speeds({1.0, 1.5, 2.0});
  OnlinePartitioner legacy(platform, AdmissionKind::kEdf, 1.0);
  OnlinePartitioner tiered(platform, AdmissionKind::kEdf, 1.0,
                           PartitionEngine::kAuto, cfg_of(AdmissionKind::kBound));

  Rng rng(0xBEEF);
  std::vector<std::pair<OnlineTaskId, OnlineTaskId>> live;
  for (int iter = 0; iter < 200; ++iter) {
    if (!live.empty() && rng.next_double() < 0.3) {
      const std::size_t i =
          static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(live.size()) - 1));
      EXPECT_EQ(legacy.depart(live[i].first), tiered.depart(live[i].second));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    const std::int64_t p = rng.uniform_int(4, 50);
    const Task t{rng.uniform_int(1, p), p};  // implicit deadline
    const AdmitDecision a = legacy.admit(t);
    const AdmitDecision b = tiered.admit(t);
    ASSERT_EQ(a.admitted, b.admitted) << "iter " << iter;
    if (a.admitted) {
      EXPECT_EQ(a.machine, b.machine) << "iter " << iter;
      EXPECT_EQ(a.utilization, b.utilization) << "iter " << iter;
      EXPECT_EQ(b.tier, admit::kTierBound);
      live.emplace_back(a.id, b.id);
    }
    ASSERT_EQ(legacy.decision_checksum(), tiered.decision_checksum())
        << "iter " << iter;
  }
  EXPECT_EQ(legacy.decision_seq(), tiered.decision_seq());
  EXPECT_GT(legacy.resident_count(), 0u);
}

TEST(AdmitController, ConstrainedDecisionsFoldDeadlineIntoChecksum) {
  const Platform platform = Platform::from_speeds({1.0});
  OnlinePartitioner a(platform, AdmissionKind::kEdf, 1.0,
                      PartitionEngine::kAuto, cfg_of(AdmissionKind::kQpa));
  OnlinePartitioner b(platform, AdmissionKind::kEdf, 1.0,
                      PartitionEngine::kAuto, cfg_of(AdmissionKind::kQpa));
  a.admit(Task{1, 10, 5});
  b.admit(Task{1, 10, 6});
  EXPECT_NE(a.decision_checksum(), b.decision_checksum());
}

TEST(AdmitController, TieredSnapshotRoundTrips) {
  const Platform platform = Platform::from_speeds({1.0, 1.0});
  AdmitConfig cfg = cfg_of(AdmissionKind::kAuto);
  cfg.release_overhead = 1;
  OnlinePartitioner ctl(platform, AdmissionKind::kEdf, 1.0,
                        PartitionEngine::kAuto, cfg);
  Rng rng(0x51AB);
  std::vector<OnlineTaskId> ids;
  for (int iter = 0; iter < 60; ++iter) {
    const std::int64_t p = rng.uniform_int(5, 40);
    const std::int64_t d = iter % 3 == 0 ? 0 : rng.uniform_int(3, p);
    const AdmitDecision dec =
        ctl.admit(Task{rng.uniform_int(1, d == 0 ? p : d), p, d});
    if (dec.admitted) ids.push_back(dec.id);
    if (!ids.empty() && iter % 5 == 4) {
      ctl.depart(ids.back());
      ids.pop_back();
    }
  }

  const std::vector<std::uint8_t> bytes = ctl.serialize_snapshot();
  OnlinePartitioner twin(platform, AdmissionKind::kEdf, 1.0,
                         PartitionEngine::kAuto, cfg);
  ASSERT_TRUE(twin.restore_bytes(bytes.data(), bytes.size()));
  EXPECT_EQ(twin.decision_seq(), ctl.decision_seq());
  EXPECT_EQ(twin.decision_checksum(), ctl.decision_checksum());
  EXPECT_EQ(twin.residents(), ctl.residents());

  // The twins stay in lockstep on further constrained traffic.
  for (int iter = 0; iter < 40; ++iter) {
    const std::int64_t p = rng.uniform_int(5, 40);
    const std::int64_t d = rng.uniform_int(3, p);
    const Task t{rng.uniform_int(1, d), p, d};
    const AdmitDecision x = ctl.admit(t);
    const AdmitDecision y = twin.admit(t);
    ASSERT_EQ(x.admitted, y.admitted) << "iter " << iter;
    ASSERT_EQ(x.machine, y.machine) << "iter " << iter;
    ASSERT_EQ(x.tier, y.tier) << "iter " << iter;
    ASSERT_EQ(ctl.decision_checksum(), twin.decision_checksum());
  }

  // A config-mismatched controller must refuse the snapshot.
  OnlinePartitioner other(platform, AdmissionKind::kEdf, 1.0,
                          PartitionEngine::kAuto, cfg_of(AdmissionKind::kQpa));
  EXPECT_FALSE(other.restore_bytes(bytes.data(), bytes.size()));
  OnlinePartitioner untiered(platform, AdmissionKind::kEdf, 1.0);
  EXPECT_FALSE(untiered.restore_bytes(bytes.data(), bytes.size()));
}

TEST(AdmitController, MachineUtilizationReportsDensities) {
  const Platform platform = Platform::from_speeds({1.0});
  OnlinePartitioner ctl(platform, AdmissionKind::kEdf, 1.0,
                        PartitionEngine::kAuto, cfg_of(AdmissionKind::kQpa));
  const AdmitDecision d = ctl.admit(Task{1, 10, 2});  // density 0.5
  ASSERT_TRUE(d.admitted);
  // The machine's fold accumulates the DENSITY (what admission spends);
  // the client-facing decision still reports the task's utilization.
  EXPECT_DOUBLE_EQ(ctl.machine_utilization(0), 0.5);
  EXPECT_DOUBLE_EQ(d.utilization, 0.1);
}

}  // namespace
}  // namespace hetsched
