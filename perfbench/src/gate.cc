#include "gate.h"

#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>

#include "cost/recost.h"
#include "plangen/plan_serde.h"
#include "plangen/plan_validator.h"
#include "plangen/plangen.h"
#include "queries/fingerprint.h"
#include "replica.h"

namespace perfbench {

namespace {

using Key = std::tuple<int, std::string, uint32_t>;  // conn, spec, version

struct Reference {
  double cost = std::numeric_limits<double>::quiet_NaN();
  double dphyp = std::numeric_limits<double>::quiet_NaN();
  eadp::StatsOverlay overlay;
};

/// Workers of the gate; it runs outside the timed window.
constexpr int kThreads = 4;

/// Runs fn(i) for i in [0, n) on kThreads workers.
template <typename Fn>
void ParallelFor(size_t n, Fn fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

}  // namespace

GateReport RunGate(const WorkloadConfig& config,
                   const std::vector<ServedPlan>& plans,
                   const Overrides& overrides, bool perturb_reference) {
  GateReport report;
  static const std::vector<std::pair<int, double>> kNone;
  auto history = [&](int conn, const std::string& spec)
      -> const std::vector<std::pair<int, double>>& {
    auto it = overrides.find({conn, spec});
    return it == overrides.end() ? kNone : it->second;
  };
  // The session's query for `spec` after its first `version` overrides.
  auto query_at = [&](int conn, const std::string& spec, uint32_t version,
                      eadp::Query* q) {
    if (!MaterializeSpec(spec, q)) return false;
    const auto& applied = history(conn, spec);
    for (uint32_t k = 0; k < version && k < applied.size(); ++k) {
      ApplyStatsOverride(q, applied[k].first, applied[k].second);
    }
    return true;
  };

  // Which references are needed: the serve's own version for exact and
  // fresh serves, every version up to it for drifted and stale ones.
  std::map<Key, Reference> refs;
  for (const ServedPlan& p : plans) {
    if (!p.avoided && !p.background) {
      refs[{p.conn, p.spec, p.version}];
    } else {
      for (uint32_t v = 0; v <= p.version; ++v) refs[{p.conn, p.spec, v}];
    }
  }
  std::vector<std::pair<const Key, Reference>*> todo;
  for (auto& entry : refs) todo.push_back(&entry);
  const bool check_dphyp = config.kind == Workload::kCold;
  const bool need_overlay = config.drift_tolerance > 0;
  ParallelFor(todo.size(), [&](size_t i) {
    const Key& key = todo[i]->first;
    Reference& ref = todo[i]->second;
    eadp::Query q;
    if (!query_at(std::get<0>(key), std::get<1>(key), std::get<2>(key), &q)) {
      return;
    }
    eadp::OptimizerOptions options;
    eadp::OptimizeResult r = eadp::OptimizeAdaptiveUncached(q, options);
    if (r.plan != nullptr) ref.cost = r.plan->cost;
    if (check_dphyp && q.NumRelations() <= options.adaptive_exact_relations) {
      options.algorithm = eadp::Algorithm::kDphyp;
      eadp::OptimizeResult d = eadp::Optimize(q, options);
      if (d.plan != nullptr) ref.dphyp = d.plan->cost;
    }
    if (need_overlay) ref.overlay = eadp::FingerprintQuerySplit(q).overlay;
  });
  report.references = refs.size();
  if (perturb_reference) {
    for (const ServedPlan& p : plans) {
      if (!p.avoided && !p.background) {
        Reference& ref = refs[{p.conn, p.spec, p.version}];
        ref.cost = std::nextafter(ref.cost,
                                  std::numeric_limits<double>::infinity());
        break;
      }
    }
  }

  std::mutex mu;
  auto fail = [&](uint64_t GateReport::*counter, const ServedPlan& p,
                  const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    ++(report.*counter);
    if (report.examples.size() < 8) {
      report.examples.push_back(what + " [c" + std::to_string(p.conn) +
                                " v" + std::to_string(p.version) + " " +
                                p.spec + "]");
    }
  };
  // Bit-equality; NaN never matches.
  auto same = [](double a, double b) { return a == b; };

  report.costs.assign(plans.size(), std::numeric_limits<double>::quiet_NaN());
  ParallelFor(plans.size(), [&](size_t i) {
    const ServedPlan& p = plans[i];
    eadp::OptimizeResult served;
    std::string error;
    if (!eadp::DecodePlan(p.blob, &served, &error) || served.plan == nullptr) {
      fail(&GateReport::undecodable, p, "undecodable or plan-less: " + error);
      return;
    }
    const double cost = served.plan->cost;
    report.costs[i] = cost;
    eadp::Query q;
    if (!query_at(p.conn, p.spec, p.version, &q)) {
      fail(&GateReport::invalid, p, "spec does not materialize");
      return;
    }
    std::vector<std::string> problems = eadp::ValidatePlan(served.plan, q);
    if (!problems.empty()) {
      fail(&GateReport::invalid, p, "ValidatePlan: " + problems.front());
    }
    const Reference& own = refs.at({p.conn, p.spec, p.version});
    if (!p.avoided && !p.background) {
      if (!same(cost, own.cost)) {
        fail(&GateReport::cost_mismatches, p,
             "served cost differs from local planning");
      }
      bool exact_dp =
          q.NumRelations() <= eadp::PlannerKnobs{}.adaptive_exact_relations;
      if (check_dphyp && exact_dp && !(cost <= own.dphyp)) {
        fail(&GateReport::dphyp_violations, p, "served cost above kDphyp");
      }
      return;
    }
    // A drifted or stale serve: the plan must have been built under one
    // of this session's earlier statistics versions; a drift-band serve
    // must also sit inside the band relative to that version.
    uint64_t GateReport::*counter = p.avoided ? &GateReport::drift_violations
                                              : &GateReport::stale_violations;
    std::string problem = "served plan matches no statistics version";
    for (uint32_t v = 0; v <= p.version; ++v) {
      const Reference& built = refs.at({p.conn, p.spec, v});
      if (!same(cost, built.cost)) continue;
      if (!p.avoided) return;
      eadp::RecostResult rc = eadp::RecostPlan(served.plan, q);
      double scale = eadp::DriftCostScale(built.overlay, own.overlay);
      if (!rc.ok ||
          !(rc.cost <= (1.0 + config.drift_tolerance) * scale * cost)) {
        problem = "drift-band serve outside the tolerance band";
      } else if (!same(rc.cost, p.recosted)) {
        problem = "server re-cost differs from local RecostPlan";
      } else {
        return;
      }
    }
    fail(counter, p, problem);
  });
  report.plans_checked = plans.size();
  return report;
}

}  // namespace perfbench
