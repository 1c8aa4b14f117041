// Workload definitions: the request streams the benchmark sends to the
// plan server, generated deterministically from (workload, seed).
//
// Every request is a pure function of (seed, connection, index), so the
// load run, the in-process traced replay and the correctness gate can all
// regenerate the identical stream without sharing state. The server only
// ever receives spec lines ("gen <topology> <n> <preset> <seed> :") and
// SetStats frames.
//
//   hot   — closed loop, read-only, Zipf(1.0) over 64 shapes per
//           connection (the load_client shape mix); setup plans every
//           shape once, so the timed window is ~100% L1 hits.
//   cold  — closed loop: 90% never-seen queries from a five-class mix
//           (see ColdSpec), 10% drift revisits (a SetStats on one of the
//           connection's recent queries, then that query again).
//   churn — paced at a fixed rate: ~90% Optimize over a Zipf(0.8)
//           working set 4x the server's L1, ~10% SetStats scaling one
//           relation's cardinality by a log-uniform factor in [1/4, 4].
//           Runnable, but not one of BENCHMARK.json's workloads (see
//           README.md).

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { kHot, kCold, kChurn };

/// Parses "hot" | "cold" | "churn"; false on anything else.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// Fixed settings of one workload: client shape, server flags, rates.
struct WorkloadConfig {
  Workload kind = Workload::kHot;
  int connections = 2;
  int pool_threads = 2;
  /// Paced streams: requests per second, summed over all connections, each
  /// sent at its due time (0: every connection sends as fast as replies
  /// come back).
  double rate = 0;
  /// Shapes in each connection's working set (hot, churn).
  int shapes_per_connection = 0;
  double zipf_theta = 0;
  /// Share of requests that are SetStats (churn).
  double setstats_share = 0;
  /// Server L1 capacity (entries).
  size_t cache_capacity = 4096;
  /// Server runs a persistent tier (L2) in a fresh directory.
  bool persistent_tier = false;
  /// Server drift tolerance (the gate and the replica use it too).
  double drift_tolerance = 0;
  /// Server background re-plan threads (0: re-plan inline).
  int replan_threads = 0;
  /// Seconds of the stream run before the timed window and left out of
  /// its figures (still gated).
  double warmup_s = 0;
};

WorkloadConfig ConfigFor(Workload w);

/// cold's query classes, in the order ColdClassName lists them.
inline constexpr int kColdClasses = 5;
const char* ColdClassName(int cls);

struct Request {
  bool set_stats = false;
  std::string spec;
  /// SetStats: relation index and the multiplier applied to the base
  /// cardinality of that relation (log-uniform in [1/4, 4]). Factors apply
  /// to the base, not to the last value set, so the statistics stay
  /// within [1/4, 4] of the base and the server sees the same mix of
  /// drift at every point of a run.
  uint32_t relation = 0;
  double factor = 1;
  /// Paced streams: seconds after the window start at which the request
  /// is due.
  double due_s = 0;
  /// cold: class index of a never-seen query; -1 elsewhere.
  int cls = -1;
};

/// The `index`-th request connection `conn` sends in the timed window.
Request MakeRequest(const WorkloadConfig& config, uint64_t seed, int conn,
                    uint64_t index);

/// Spec lines connection `conn` plans once during setup, before the timed
/// window: the whole working set (hot, churn) or a fixed quality set of
/// every class (cold). Independent of the seed, so plan_cost_geomean is
/// taken over the identical query set on every run and every commit.
std::vector<std::string> SetupSpecs(const WorkloadConfig& config, int conn);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
