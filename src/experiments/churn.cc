#include "experiments/churn.h"

#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "admit/admission_test.h"
#include "obs/metrics.h"
#include "online/online_partitioner.h"
#include "partition/first_fit.h"
#include "util/check.h"

namespace hetsched {

#if HETSCHED_METRICS_ENABLED
namespace {

// Regret accounting vs. the clairvoyant baseline, aggregated across every
// run_churn call in the process.
struct ChurnMetrics {
  obs::Counter arrivals = obs::registry().counter(
      "hetsched_churn_arrivals_total", "churn arrival events processed");
  obs::Counter regret = obs::registry().counter(
      "hetsched_churn_regret_total",
      "arrivals the clairvoyant baseline admits but the controller rejects");
  obs::Counter inverse_regret = obs::registry().counter(
      "hetsched_churn_inverse_regret_total",
      "arrivals the controller admits but the clairvoyant baseline rejects");
};
const ChurnMetrics g_churn_metrics;

}  // namespace
#endif  // HETSCHED_METRICS_ENABLED

std::string ChurnResult::to_string() const {
  std::ostringstream os;
  os << "arrivals=" << arrivals << " online=" << online_acceptance()
     << " clairvoyant=" << clairvoyant_acceptance() << " regret=" << regret
     << " inverse_regret=" << inverse_regret << " rebalances=" << rebalances
     << " applied=" << rebalances_applied << " migrations=" << migrations
     << " peak_resident=" << peak_resident;
  return os.str();
}

ChurnResult run_churn(const Platform& platform, const ChurnTrace& trace,
                      const ChurnOptions& options) {
  HETSCHED_CHECK(options.alpha >= 1.0);

  OnlinePartitioner controller(platform, options.kind, options.alpha,
                               options.engine, options.admit);
  controller.reserve(trace.arrivals);
  const bool tiered = controller.tiered();

  // Online side: trace task number -> live controller id.
  std::unordered_map<std::uint64_t, OnlineTaskId> online_ids;
  // Clairvoyant side: its own resident set, indexed for O(1) removal.
  std::vector<Task> clair_tasks;
  std::unordered_map<std::uint64_t, std::size_t> clair_index;
  PartitionScratch scratch;

  ChurnResult result;
  std::size_t arrivals_seen = 0;

  for (const ChurnEvent& ev : trace.events) {
    if (ev.kind == ChurnEvent::Kind::kArrival) {
      ++arrivals_seen;
      const AdmitDecision d = controller.admit(ev.params);
      if (d.admitted) {
        ++result.online_admitted;
        online_ids.emplace(ev.task, d.id);
        if (controller.resident_count() > result.peak_resident) {
          result.peak_resident = controller.resident_count();
        }
      }

      clair_tasks.push_back(ev.params);
      bool clair_ok;
      if (tiered) {
        // Constrained model: score the baseline with the exact (QPA)
        // constrained first fit over the inflated tasks, so the
        // clairvoyant is the strongest admitter the tiers converge to.
        std::vector<Task> cts;
        cts.reserve(clair_tasks.size());
        for (const Task& t : clair_tasks) {
          const std::optional<Task> ct = admit::inflate(options.admit, t);
          HETSCHED_CHECK_MSG(ct.has_value(), "overhead inflation overflow");
          cts.push_back(*ct);
        }
        clair_ok = first_fit_partition_constrained(
                       cts, platform, AdmissionKind::kDbfQpa, options.alpha)
                       .feasible;
      } else {
        clair_ok =
            first_fit_accepts(TaskSet(clair_tasks), platform, options.kind,
                              options.alpha, scratch, options.engine);
      }
      if (clair_ok) {
        ++result.clairvoyant_admitted;
        clair_index.emplace(ev.task, clair_tasks.size() - 1);
      } else {
        clair_tasks.pop_back();
      }

      HETSCHED_COUNT(g_churn_metrics.arrivals);
      if (clair_ok && !d.admitted) {
        ++result.regret;
        HETSCHED_COUNT(g_churn_metrics.regret);
      }
      if (!clair_ok && d.admitted) {
        ++result.inverse_regret;
        HETSCHED_COUNT(g_churn_metrics.inverse_regret);
      }

      if (options.rebalance_every > 0 &&
          arrivals_seen % options.rebalance_every == 0) {
        const RebalanceReport report = controller.rebalance();
        ++result.rebalances;
        if (report.applied) {
          ++result.rebalances_applied;
          result.migrations += report.migrations;
        }
      }
    } else {
      const auto online_it = online_ids.find(ev.task);
      if (online_it != online_ids.end()) {
        const bool ok = controller.depart(online_it->second);
        HETSCHED_CHECK(ok);
        online_ids.erase(online_it);
      }
      const auto clair_it = clair_index.find(ev.task);
      if (clair_it != clair_index.end()) {
        // Swap-erase; the batch test re-sorts, so order is irrelevant.
        const std::size_t i = clair_it->second;
        const std::size_t last = clair_tasks.size() - 1;
        if (i != last) {
          clair_tasks[i] = clair_tasks[last];
          for (auto& [task, idx] : clair_index) {
            if (idx == last) {
              idx = i;
              break;
            }
          }
        }
        clair_tasks.pop_back();
        clair_index.erase(clair_it);
      }
    }
  }

  result.arrivals = arrivals_seen;
  return result;
}

}  // namespace hetsched
