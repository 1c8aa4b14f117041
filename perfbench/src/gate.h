// Correctness gate: every served plan is checked against local planning,
// outside the timed window.
//
//   - every distinct served plan decodes, has a plan, and ValidatePlan
//     finds it clean against the session's query at that point;
//   - an exact or fresh serve has a root cost bit-equal to a local
//     OptimizeAdaptiveUncached of the same spec line under the session's
//     replayed statistics;
//   - a drift-band serve (replan_avoided) carries a plan built under an
//     earlier statistics version of the same session, and satisfies
//     RecostPlan <= (1 + tol) * DriftCostScale * cached cost, recomputed
//     locally, with the server's re-costed value bit-equal to the local one;
//   - a stale serve (replan_background) carries a plan built under an
//     earlier statistics version of the same session;
//   - on cold, every exact-DP serve costs no more than the kDphyp baseline
//     (the paper's Optimum <= DPhyp invariant).
//
// A plan-less or undecodable reply is a violation, never skipped.

#ifndef PERFBENCH_GATE_H_
#define PERFBENCH_GATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "load.h"
#include "workload.h"

namespace perfbench {

struct GateReport {
  uint64_t plans_checked = 0;
  uint64_t references = 0;  ///< local planning runs
  uint64_t undecodable = 0;
  uint64_t invalid = 0;
  uint64_t cost_mismatches = 0;
  uint64_t drift_violations = 0;
  uint64_t stale_violations = 0;
  uint64_t dphyp_violations = 0;
  std::vector<std::string> examples;  ///< first few violations, described
  /// Decoded root cost of each checked plan (NaN if undecodable), in the
  /// order of the input.
  std::vector<double> costs;

  uint64_t violations() const {
    return undecodable + invalid + cost_mismatches + drift_violations +
           stale_violations + dphyp_violations;
  }
};

/// Checks `plans` (setup and timed-window replies). `overrides` is the
/// statistics history each session received. With `perturb_reference`
/// one reference cost is nudged by one ulp, which must trip the gate.
GateReport RunGate(const WorkloadConfig& config,
                   const std::vector<ServedPlan>& plans,
                   const Overrides& overrides, bool perturb_reference);

}  // namespace perfbench

#endif  // PERFBENCH_GATE_H_
