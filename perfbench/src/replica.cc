#include "replica.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <utility>

#include "common/bitset.h"
#include "conflict/conflict_detector.h"
#include "cost/recost.h"
#include "hypergraph/dphyp_enumerator.h"
#include "plangen/dp_combine.h"
#include "plangen/dp_table.h"
#include "plangen/large_query.h"
#include "plangen/op_trees.h"
#include "plangen/plan_explain.h"
#include "plangen/plan_serde.h"
#include "queries/mutation.h"
#include "server/protocol.h"

namespace perfbench {

using eadp::OptimizeResult;
using eadp::Query;
using Scope = Tracer::Scope;

void ApplyStatsOverride(Query* query, int relation, double card) {
  eadp::Catalog* catalog = query->mutable_catalog();
  card = std::max(1.0, std::floor(card));
  const eadp::RelationDef& rel = catalog->relation(relation);
  eadp::AttrSet key_attrs;
  for (const eadp::AttrSet& key : rel.keys) key_attrs.UnionWith(key);
  catalog->SetCardinality(relation, card);
  for (int a : eadp::BitsOf(rel.attributes)) {
    catalog->SetDistinct(a, key_attrs.Contains(a)
                                ? card
                                : std::min(catalog->DistinctOf(a), card));
  }
}

bool MaterializeSpec(const std::string& spec, Query* out) {
  eadp::CorpusEntry entry;
  std::string error;
  if (!eadp::ParseCorpusEntry(spec, &entry, &error) || !entry.chain.empty()) {
    return false;
  }
  *out = eadp::MaterializeSeed(entry.seed);
  return true;
}

Replica::Replica(const ReplicaOptions& options, int connections)
    : sessions_(static_cast<size_t>(connections)),
      l1_(std::make_unique<eadp::PlanCache>(
          eadp::PlanCacheOptions{.capacity = options.cache_capacity})) {
  if (!options.persistent_dir.empty()) {
    eadp::PersistentCacheOptions pc;
    pc.directory = options.persistent_dir;
    l2_ = eadp::PersistentPlanCache::Open(pc);
  }
  if (options.replan_threads > 0) {
    replan_pool_ = std::make_unique<eadp::ThreadPool>(options.replan_threads);
  }
  options_.plan_cache = l1_.get();
  options_.persistent_cache = l2_.get();
  options_.drift_tolerance = options.drift_tolerance;
  options_.replan_pool = replan_pool_.get();
}

std::vector<FreshPlan> Replica::fresh_plans() {
  std::lock_guard<std::mutex> lock(fresh_mu_);
  return fresh_;
}

std::vector<double> Replica::blob_bytes() {
  std::lock_guard<std::mutex> lock(fresh_mu_);
  return blob_bytes_;
}

void Replica::Record(const FreshPlan& plan) {
  if (tracer_ == nullptr) return;
  std::lock_guard<std::mutex> lock(fresh_mu_);
  fresh_.push_back(plan);
}

Query* Replica::Materialize(int conn, const std::string& spec) {
  Session& session = sessions_[static_cast<size_t>(conn)];
  auto it = session.queries.find(spec);
  if (it != session.queries.end()) return &it->second;
  Scope span(tracer_, "queries.materialize");
  Query query;
  if (!MaterializeSpec(spec, &query)) return nullptr;
  return &session.queries.emplace(spec, std::move(query)).first->second;
}

OptimizeResult Replica::RunExact(const Query& query,
                                 const eadp::OptimizerOptions& options) {
  // Mirrors plangen.cc's Generator::Run on the sequential DP path.
  int64_t start = NowNs();
  int64_t detect_ns = 0;
  int64_t enumerate_ns = 0;
  int64_t combine_ns = 0;
  std::optional<eadp::ConflictDetector> conflicts;
  {
    Scope span(tracer_, "conflict.detect");
    conflicts.emplace(query);
  }
  if (tracer_ != nullptr) detect_ns = NowNs() - start;
  eadp::PlanBuilder builder(&query, &*conflicts,
                            eadp::EffectiveBuilderOptions(options),
                            std::make_shared<eadp::PlanArena>());
  eadp::DpTable dp;
  eadp::CcpCombiner combiner(&query, &builder, &dp, options.algorithm,
                             options.h2_tolerance);
  dp.SetDominanceOptions(!options.prune_without_cardinality,
                         !options.prune_without_keys,
                         options.full_fd_dominance);
  int n = query.NumRelations();
  dp.Reserve(size_t{1} << std::min(n, 12));

  OptimizeResult result;
  result.stats.algorithm = options.algorithm;
  eadp::RelSet all = query.AllRelations();
  for (int r : eadp::BitsOf(all)) {
    dp.Append(eadp::RelSet::Single(r), builder.MakeScan(r));
  }
  {
    Scope span(tracer_, "hypergraph.enumerate");
    int64_t enumerate_start = tracer_ != nullptr ? NowNs() : 0;
    if (tracer_ == nullptr) {
      result.stats.ccp_count = eadp::EnumerateCsgCmpPairs(
          conflicts->hypergraph(),
          [&](eadp::RelSet s1, eadp::RelSet s2) { combiner.Combine(s1, s2); });
    } else {
      // The DP combine step runs inside the enumeration's callback; its
      // calls are timed individually and recorded as one aggregate child,
      // so the enumeration's self time is the enumeration alone.
      result.stats.ccp_count = eadp::EnumerateCsgCmpPairs(
          conflicts->hypergraph(), [&](eadp::RelSet s1, eadp::RelSet s2) {
            int64_t t0 = NowNs();
            combiner.Combine(s1, s2);
            combine_ns += NowNs() - t0;
          });
      tracer_->AddAggregate("plangen.dp", combine_ns);
      enumerate_ns = NowNs() - enumerate_start - combine_ns;
    }
  }
  if (all.Count() == 1) {
    result.plan = builder.FinalizeTop(dp.Best(all));
  } else if (options.algorithm == eadp::Algorithm::kDphyp) {
    eadp::PlanPtr joins = dp.Best(all);
    if (joins) result.plan = builder.FinalizeTop(joins);
  } else {
    result.plan = dp.Best(all);
  }
  result.stats.plans_built = builder.plans_built();
  result.stats.table_plans = dp.TotalPlans();
  result.stats.table_classes = dp.NumClasses();
  result.stats.pruned_candidates = dp.pruned_candidates();
  result.stats.pruned_existing = dp.pruned_existing();
  result.stats.optimize_ms = static_cast<double>(NowNs() - start) / 1e6;
  result.arena = builder.arena();

  FreshPlan record;
  record.ccp_count = result.stats.ccp_count;
  record.plans_built = result.stats.plans_built;
  record.table_plans = result.stats.table_plans;
  record.dp_self_us =
      static_cast<double>(NowNs() - start - detect_ns - enumerate_ns) / 1000.0;
  Record(record);
  return result;
}

OptimizeResult Replica::PlanFresh(const Query& query) {
  // OptimizeAdaptiveUncached, with the caches cleared as the facade does.
  eadp::OptimizerOptions options = options_;
  options.plan_cache = nullptr;
  options.persistent_cache = nullptr;
  options.replan_pool = nullptr;
  if (query.NumRelations() <= options.adaptive_exact_relations) {
    Scope span(tracer_, "plangen.optimize");
    if (!eadp::IsExhaustive(options.algorithm)) {
      options.algorithm = eadp::Algorithm::kEaPrune;
    }
    return RunExact(query, options);
  }
  Scope span(tracer_, "large_query.race");
  int64_t t0 = NowNs();
  OptimizeResult idp;
  {
    Scope s(tracer_, "large_query.idp");
    idp = eadp::OptimizeIdp(query, options);
  }
  int64_t t1 = NowNs();
  OptimizeResult goo;
  {
    Scope s(tracer_, "large_query.goo");
    goo = eadp::OptimizeGreedy(query, options);
  }
  int64_t t2 = NowNs();
  bool goo_won = idp.plan == nullptr ||
                 (goo.plan != nullptr && goo.plan->cost < idp.plan->cost);
  FreshPlan record;
  record.large = true;
  record.loser_us = static_cast<double>(goo_won ? t1 - t0 : t2 - t1) / 1000.0;
  record.race_us = static_cast<double>(t2 - t0) / 1000.0;
  Record(record);
  return eadp::PickAdaptiveWinner(std::move(idp), std::move(goo));
}

bool Replica::StartBackgroundReplan(const Query& query,
                                    const eadp::QueryFingerprint& fp,
                                    const eadp::StatsOverlay& overlay,
                                    const eadp::PlanCache::Handle& entry) {
  // Mirrors plan_cache.cc's StartBackgroundReplan.
  if (replan_pool_ == nullptr || entry == nullptr) return false;
  bool expected = false;
  if (!entry->replan_pending.compare_exchange_strong(expected, true)) {
    return true;
  }
  auto snapshot =
      std::make_shared<eadp::QuerySpec>(eadp::QuerySpec::FromQuery(query));
  replan_pool_->Submit([this, snapshot, fp, overlay, entry] {
    Scope span(tracer_, "plan_cache.background_replan");
    Query q = snapshot->ToQuery();
    OptimizeResult fresh = PlanFresh(q);
    if (fresh.plan != nullptr) {
      if (l2_ != nullptr) {
        Scope s(tracer_, "persistent_cache.put");
        l2_->Put(fp, overlay, fresh);
      }
      Scope s(tracer_, "plan_cache.refresh");
      l1_->Refresh(fp, overlay, std::move(fresh));
    }
    entry->replan_pending.store(false);
  });
  return true;
}

OptimizeResult Replica::ThroughCache(const Query& query, bool* l2_served) {
  // Mirrors plan_cache.cc's OptimizeThroughCache.
  auto start = std::chrono::steady_clock::now();
  auto elapsed_ms = [&start] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  eadp::PlanCacheSplitKey key;
  {
    Scope span(tracer_, "queries.fingerprint");
    key = eadp::PlanCacheKeySplit(query, options_);
  }
  const eadp::QueryFingerprint& fp = key.structural;
  bool drifted = false;

  auto serve_drifted = [&](const OptimizeResult& cached,
                           const eadp::StatsOverlay& stored, int tier,
                           const eadp::PlanCache::Handle& entry)
      -> std::optional<OptimizeResult> {
    drifted = true;
    double recosted = 0;
    bool within = false;
    if (cached.plan != nullptr) {
      eadp::RecostResult rc;
      {
        Scope span(tracer_, "cost.recost");
        rc = eadp::RecostPlan(cached.plan, query);
      }
      if (rc.ok) {
        recosted = rc.cost;
        double scale = eadp::DriftCostScale(stored, key.overlay);
        within = options_.drift_tolerance > 0 && scale > 0 &&
                 rc.cost <= (1.0 + options_.drift_tolerance) * scale *
                                cached.plan->cost;
      }
    }
    bool background =
        !within && StartBackgroundReplan(query, fp, key.overlay, entry);
    l1_->RecordDriftOutcome(within, background);
    if (!within && !background) return std::nullopt;
    OptimizeResult result = cached;
    result.stats.cache_hit = true;
    result.stats.cache_tier = tier;
    result.stats.replan_avoided = within;
    result.stats.replan_background = background;
    result.stats.recosted_cost = recosted;
    result.stats.optimize_ms = elapsed_ms();
    return result;
  };

  eadp::PlanCache::Handle hit;
  {
    Scope span(tracer_, "plan_cache.lookup");
    hit = l1_->Lookup(fp);
  }
  if (hit) {
    if (eadp::SameStats(hit->overlay, key.overlay)) {
      OptimizeResult result = hit->result;
      result.stats.cache_hit = true;
      result.stats.cache_tier = 1;
      result.stats.optimize_ms = elapsed_ms();
      return result;
    }
    if (auto served = serve_drifted(hit->result, hit->overlay, 1, hit)) {
      return *served;
    }
  }
  if (l2_ != nullptr) {
    eadp::StatsOverlay stored;
    OptimizeResult revived;
    bool got;
    {
      Scope span(tracer_, "persistent_cache.get");
      got = l2_->Get(fp, &stored, &revived);
    }
    if (got) {
      *l2_served = true;
      if (eadp::SameStats(stored, key.overlay)) {
        revived.stats.cache_hit = true;
        revived.stats.cache_tier = 2;
        revived.stats.optimize_ms = elapsed_ms();
        if (revived.plan != nullptr) {
          Scope span(tracer_, "plan_cache.insert");
          l1_->Insert(fp, revived, stored);
        }
        return revived;
      }
      eadp::PlanCache::Handle promoted;
      if (revived.plan != nullptr) {
        Scope span(tracer_, "plan_cache.insert");
        promoted = l1_->Insert(fp, revived, stored);
      }
      if (auto served = serve_drifted(revived, stored, 2, promoted)) {
        return *served;
      }
    }
  }
  OptimizeResult result = PlanFresh(query);
  if (result.plan != nullptr) {
    if (l2_ != nullptr) {
      Scope span(tracer_, "persistent_cache.put");
      l2_->Put(fp, key.overlay, result);
    }
    Scope span(tracer_, "plan_cache.insert");
    if (drifted) {
      l1_->Refresh(fp, std::move(key.overlay), result);
    } else {
      l1_->Insert(fp, result, std::move(key.overlay));
    }
  }
  return result;
}

size_t Replica::Optimize(int conn, uint64_t request,
                         const std::string& payload, Served* served) {
  if (tracer_ != nullptr) tracer_->SetRequest(request);
  std::string revived_blob;
  size_t bytes = 0;
  {
    Scope root(tracer_, "request");
    eadp::OptimizeRequest req;
    {
      Scope span(tracer_, "protocol.decode");
      if (!eadp::DecodeOptimize(payload, &req)) return 0;
    }
    OptimizeResult result;
    bool l2_served = false;
    {
      Scope span(tracer_, "optimizer_service.optimize");
      Query* query = Materialize(conn, req.spec_line);
      if (query == nullptr) return 0;
      result = ThroughCache(*query, &l2_served);
    }
    if (result.plan == nullptr) return 0;
    served->cost = result.plan->cost;
    served->tier = result.stats.cache_tier;
    served->avoided = result.stats.replan_avoided;
    served->background = result.stats.replan_background;
    std::string blob;
    {
      Scope span(tracer_, "plan_serde.encode");
      blob = eadp::EncodePlan(result);
    }
    std::string stats;
    {
      Scope span(tracer_, "plan_explain.stats_json");
      stats = eadp::OptimizeStatsToJson(result.stats);
    }
    std::string frames;
    {
      Scope span(tracer_, "protocol.encode");
      eadp::AppendFrame(&frames, eadp::Opcode::kPlanBlob, blob);
      eadp::AppendFrame(&frames, eadp::Opcode::kStatsJson, stats);
    }
    bytes = frames.size();
    if (tracer_ != nullptr) {
      std::lock_guard<std::mutex> lock(fresh_mu_);
      blob_bytes_.push_back(static_cast<double>(blob.size()));
    }
    if (l2_served && tracer_ != nullptr) revived_blob = std::move(blob);
  }
  if (!revived_blob.empty()) {
    // persistent_cache.get decodes internally; the decode alone is timed
    // here, outside the request, on the same bytes.
    Scope span(tracer_, "plan_serde.decode");
    OptimizeResult decoded;
    eadp::DecodePlan(revived_blob, &decoded);
  }
  return bytes;
}

bool Replica::SetStats(int conn, uint64_t request,
                       const std::string& payload) {
  if (tracer_ != nullptr) tracer_->SetRequest(request);
  Scope root(tracer_, "request");
  eadp::SetStatsRequest req;
  {
    Scope span(tracer_, "protocol.decode");
    if (!eadp::DecodeSetStats(payload, &req)) return false;
  }
  Scope span(tracer_, "optimizer_service.setstats");
  Query* query = Materialize(conn, req.spec_line);
  if (query == nullptr ||
      static_cast<int>(req.relation) >= query->NumRelations()) {
    return false;
  }
  ApplyStatsOverride(query, static_cast<int>(req.relation), req.cardinality);
  return true;
}

}  // namespace perfbench
