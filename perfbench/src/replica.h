// In-process replay of the plan server's request path, built only from
// the program's public layer calls, with a span around each call.
//
// Replica::Optimize mirrors what one Optimize frame costs the server:
// protocol decode -> OptimizerService::Optimize (spec materialization,
// the OptimizeThroughCache tier walk: fingerprint, L1 probe, drift
// re-cost, L2 get, fresh planning, write-behind) -> EncodePlan ->
// OptimizeStatsToJson -> response framing. Fresh exact planning mirrors
// plangen.cc's Generator (conflict detection, DPhyp enumeration driving
// the DP combine step, finalization) so the enumeration and the DP insert
// loop are timed apart; large queries run the GOO/IDP race. Because the
// replay is a copy of the service glue, the driver cross-checks how it
// served each request against the live server: on the read-only workloads
// the cost, cache tier and drift flags of every request, under churn the
// shares of each serve kind.

#ifndef PERFBENCH_REPLICA_H_
#define PERFBENCH_REPLICA_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/query.h"
#include "common/thread_pool.h"
#include "plangen/persistent_cache.h"
#include "plangen/plan_cache.h"
#include "plangen/plangen.h"
#include "trace.h"

namespace perfbench {

/// The server's SetStats rule (OptimizerService::SetStats): the relation's
/// cardinality becomes max(1, floor(card)); its key attributes track the
/// new cardinality and its other distinct counts are capped at it.
void ApplyStatsOverride(eadp::Query* query, int relation, double card);

/// Parses and materializes a "gen ... :" spec line; false if unparsable
/// or if it carries a mutation chain (the benchmark never sends one).
bool MaterializeSpec(const std::string& spec, eadp::Query* out);

struct ReplicaOptions {
  size_t cache_capacity = 4096;
  std::string persistent_dir;  ///< empty: no L2
  double drift_tolerance = 0;
  int replan_threads = 0;
};

/// Counters of one fresh plan, recorded when traced.
struct FreshPlan {
  bool large = false;
  uint64_t ccp_count = 0;
  uint64_t plans_built = 0;
  uint64_t table_plans = 0;
  /// optimize − detect − enumerate self time (exact plans).
  double dp_self_us = 0;
  /// The race's losing strategy's time and the race total (large plans).
  double loser_us = 0;
  double race_us = 0;
};

/// How one replayed Optimize was served: the fields the server reports in
/// its stats frame.
struct Served {
  double cost = 0;
  int tier = 0;  ///< 0 fresh, 1 L1, 2 L2
  bool avoided = false;
  bool background = false;
};

class Replica {
 public:
  Replica(const ReplicaOptions& options, int connections);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Null detaches tracing (every span becomes a no-op).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// One Optimize frame payload of connection `conn`. Returns the response
  /// bytes the server would write (0 on failure); *served gets how it was
  /// served. Each connection must be driven from one thread at a time.
  size_t Optimize(int conn, uint64_t request, const std::string& payload,
                  Served* served);
  /// One SetStats frame payload; false on a rejected request.
  bool SetStats(int conn, uint64_t request, const std::string& payload);

  eadp::PlanCache* l1() { return l1_.get(); }
  eadp::PersistentPlanCache* l2() { return l2_.get(); }
  std::vector<FreshPlan> fresh_plans();
  /// Encoded plan size of every traced reply.
  std::vector<double> blob_bytes();

 private:
  struct Session {
    std::unordered_map<std::string, eadp::Query> queries;
  };

  eadp::Query* Materialize(int conn, const std::string& spec);
  eadp::OptimizeResult ThroughCache(const eadp::Query& query,
                                    bool* l2_served);
  eadp::OptimizeResult PlanFresh(const eadp::Query& query);
  eadp::OptimizeResult RunExact(const eadp::Query& query,
                                const eadp::OptimizerOptions& options);
  bool StartBackgroundReplan(const eadp::Query& query,
                             const eadp::QueryFingerprint& fp,
                             const eadp::StatsOverlay& overlay,
                             const eadp::PlanCache::Handle& entry);
  void Record(const FreshPlan& plan);

  eadp::OptimizerOptions options_;  ///< default knobs + serving policy
  Tracer* tracer_ = nullptr;
  std::vector<Session> sessions_;

  std::mutex fresh_mu_;
  std::vector<FreshPlan> fresh_;
  std::vector<double> blob_bytes_;

  // Caches before the pool: the pool is destroyed first, so a background
  // re-plan never outlives the caches it refreshes.
  std::unique_ptr<eadp::PlanCache> l1_;
  std::unique_ptr<eadp::PersistentPlanCache> l2_;
  std::unique_ptr<eadp::ThreadPool> replan_pool_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLICA_H_
