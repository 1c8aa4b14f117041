#include "workload.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "queries/mutation.h"
#include "server/load_client.h"

namespace perfbench {

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Independent 64-bit draw number `lane` for request (seed, conn, index).
uint64_t Draw(uint64_t seed, int conn, uint64_t index, uint64_t lane) {
  uint64_t h = SplitMix(seed);
  h = SplitMix(h ^ static_cast<uint64_t>(conn));
  h = SplitMix(h ^ index);
  return SplitMix(h ^ lane);
}

double Uniform(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Inverse-CDF Zipf(theta) over ranks [0, n), rank 0 the hottest; the
/// tables are built once per (n, theta) and shared.
int ZipfRank(int n, double theta, double u) {
  static std::mutex mu;
  static std::map<std::pair<int, double>, std::vector<double>> tables;
  const std::vector<double>* cdf;
  {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<double>& t = tables[{n, theta}];
    if (t.empty()) {
      double total = 0;
      for (int k = 0; k < n; ++k) {
        total += 1.0 / std::pow(static_cast<double>(k + 1), theta);
        t.push_back(total);
      }
      for (double& c : t) c /= total;
    }
    cdf = &t;
  }
  auto it = std::lower_bound(cdf->begin(), cdf->end(), u);
  if (it == cdf->end()) --it;
  return static_cast<int>(it - cdf->begin());
}

std::string GenSpec(eadp::QueryTopology topology, int n, const char* preset,
                    uint64_t query_seed) {
  eadp::CorpusEntry entry;
  entry.seed.kind = "gen";
  entry.seed.topology = topology;
  entry.seed.num_relations = n;
  entry.seed.preset = preset;
  entry.seed.seed = query_seed;
  return eadp::FormatCorpusEntry(entry);
}

/// The churn working set uses the load_client shape mix on seeds disjoint
/// from hot's (and from every other connection's).
std::string ChurnShape(int conn, int shape) {
  uint64_t seed = 700000 + 10000 * static_cast<uint64_t>(conn) +
                  static_cast<uint64_t>(shape);
  if (shape % 8 == 7) {
    bool chain = (shape / 8) % 2 == 0;
    return GenSpec(chain ? eadp::QueryTopology::kChain
                         : eadp::QueryTopology::kStar,
                   chain ? 16 : 24, "default", seed);
  }
  return GenSpec(eadp::QueryTopology::kRandomTree, 5 + shape % 6, "default",
                 seed);
}

/// One cold query of class `cls`; `pick` chooses size and topology.
std::string ColdSpec(int cls, uint64_t pick, uint64_t query_seed) {
  using eadp::QueryTopology;
  auto in = [pick](int lo, int hi) {
    return lo + static_cast<int>(pick % static_cast<uint64_t>(hi - lo + 1));
  };
  switch (cls) {
    case 0:
      return GenSpec(QueryTopology::kRandomTree, in(5, 10), "default",
                     query_seed);
    case 1:
      return GenSpec(QueryTopology::kRandomTree, in(8, 12), "outer",
                     query_seed);
    case 2:
      return GenSpec((pick / 8) % 2 == 0 ? QueryTopology::kChain
                                         : QueryTopology::kCycle,
                     in(8, 10), "default", query_seed);
    case 3:
      return GenSpec(QueryTopology::kStar, in(6, 8), "default", query_seed);
    default:
      switch (pick % 3) {
        case 0:
          return GenSpec(QueryTopology::kChain, 16, "default", query_seed);
        case 1:
          return GenSpec(QueryTopology::kStar, 24, "default", query_seed);
        default:
          return GenSpec(QueryTopology::kCycle, 30, "default", query_seed);
      }
  }
}

/// cold's schedule over blocks of 20 requests: 18 never-seen queries
/// (classes 0-4: 5, 4, 3, 4 and 2 of them) and a drift revisit of the
/// block's slot-8 query: a SetStats on it (kSetStats), then the query
/// again (kRevisit).
constexpr int kSetStats = -1;
constexpr int kRevisit = -2;
constexpr int kColdPattern[20] = {0, 1, 2, 3, 0, 1, 2, 3, 0,         4,
                                  0, 1, 2, 3, 0, 1, 3, 4, kSetStats, kRevisit};
constexpr uint64_t kRevisitSlot = 8;

/// Relation count named by a spec line (0 if unparsable).
int SpecRelations(const std::string& spec) {
  eadp::CorpusEntry entry;
  std::string error;
  if (!eadp::ParseCorpusEntry(spec, &entry, &error)) return 0;
  return entry.seed.num_relations;
}

/// How many earlier requests of the stream share request `index`'s class
/// (a never-seen-query slot).
uint64_t ColdOccurrence(uint64_t index) {
  const int slot = static_cast<int>(index % 20);
  const int cls = kColdPattern[slot];
  uint64_t per_cycle = 0, before = 0;
  for (int k = 0; k < 20; ++k) {
    if (kColdPattern[k] != cls) continue;
    ++per_cycle;
    if (k < slot) ++before;
  }
  return index / 20 * per_cycle + before;
}

/// The never-seen query of cold request `index` (a class slot).
std::string ColdFresh(uint64_t seed, int conn, uint64_t index) {
  // Quality-set and hot/churn seeds all sit below 10^6; stream seeds sit
  // above 10^9, so a cold request never repeats a setup query.
  uint64_t query_seed =
      1000000000ull + Draw(seed, conn, index, 1) % 1000000000000ull;
  // Sizes and topologies cycle through each class's range in a fixed
  // order (only the query seed is random), so every run plans the same
  // size mix and run-to-run spread comes from the queries alone.
  return ColdSpec(kColdPattern[index % 20], ColdOccurrence(index),
                  query_seed);
}

/// A SetStats on one relation of `spec`: the factor is log-uniform in
/// [1/4, 4].
void DrawSetStats(uint64_t seed, int conn, uint64_t index, Request* r) {
  r->set_stats = true;
  int n = SpecRelations(r->spec);
  r->relation = static_cast<uint32_t>(Draw(seed, conn, index, 2) %
                                      static_cast<uint64_t>(n));
  r->factor = std::exp(std::log(0.25) +
                       Uniform(Draw(seed, conn, index, 3)) * std::log(16.0));
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "hot") {
    *out = Workload::kHot;
  } else if (name == "cold") {
    *out = Workload::kCold;
  } else if (name == "churn") {
    *out = Workload::kChurn;
  } else {
    return false;
  }
  return true;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kHot:
      return "hot";
    case Workload::kCold:
      return "cold";
    case Workload::kChurn:
      return "churn";
  }
  return "?";
}

const char* ColdClassName(int cls) {
  static const char* kNames[kColdClasses] = {
      "random-tree-5-10", "random-tree-outer-8-12", "chain-cycle-8-10",
      "star-6-8", "large-idp-goo"};
  return cls >= 0 && cls < kColdClasses ? kNames[cls] : "?";
}

WorkloadConfig ConfigFor(Workload w) {
  WorkloadConfig c;
  c.kind = w;
  switch (w) {
    case Workload::kHot:
      // Four requests in flight for two pool threads keep the server busy
      // between requests. With two, every request paid the wake-up of
      // idle virtual CPUs, and throughput fell about twice as far under
      // hypervisor steal (measured at ~20% steal: 3k against 5.7k req/s).
      c.connections = 4;
      c.shapes_per_connection = 64;
      c.zipf_theta = 1.0;
      break;
    case Workload::kCold:
      // Every cold plan is inserted into L1 and keeps its DP arena (up to
      // ~17 MiB for a chain-10) resident; a 256-entry L1 bounds that, so
      // peak_rss_mb reads the steady state instead of growing with the
      // number of queries a run completes.
      c.cache_capacity = 256;
      // Every fresh plan is written behind to L2, and every L1 miss
      // probes it. A revisit finds its query in L1 under older statistics
      // and is re-costed: served in the drift band, or re-planned inline.
      c.persistent_tier = true;
      c.drift_tolerance = 0.2;
      break;
    case Workload::kChurn:
      // Paced at about a quarter of the closed-loop capacity of this mix on
      // a 4-core host (~4000 req/s); unpaced, re-plans and memory ran away.
      c.rate = 1000;
      // 2 x 512 shapes against a 256-entry L1: the working set is 4x L1.
      c.shapes_per_connection = 512;
      c.zipf_theta = 0.8;
      c.setstats_share = 0.1;
      // The first seconds after setup carry the setup's write-behind and
      // the first L1 evictions; they run, and are gated, untimed.
      c.warmup_s = 2;
      c.cache_capacity = 256;
      c.persistent_tier = true;
      c.drift_tolerance = 0.2;
      c.replan_threads = 1;
      break;
  }
  return c;
}

Request MakeRequest(const WorkloadConfig& config, uint64_t seed, int conn,
                    uint64_t index) {
  Request r;
  switch (config.kind) {
    case Workload::kHot: {
      int shape = ZipfRank(config.shapes_per_connection, config.zipf_theta,
                           Uniform(Draw(seed, conn, index, 0)));
      r.spec = eadp::LoadSpecLine(conn, shape);
      break;
    }
    case Workload::kCold: {
      const int slot = kColdPattern[index % 20];
      if (slot >= 0) {
        r.cls = slot;
        r.spec = ColdFresh(seed, conn, index);
        break;
      }
      r.spec = ColdFresh(seed, conn, index - index % 20 + kRevisitSlot);
      if (slot == kSetStats) DrawSetStats(seed, conn, index, &r);
      break;
    }
    case Workload::kChurn: {
      int shape = ZipfRank(config.shapes_per_connection, config.zipf_theta,
                           Uniform(Draw(seed, conn, index, 0)));
      r.spec = ChurnShape(conn, shape);
      if (Uniform(Draw(seed, conn, index, 1)) < config.setstats_share) {
        DrawSetStats(seed, conn, index, &r);
      }
      // Evenly spaced arrivals per connection, connections interleaved.
      double per_conn = config.rate / config.connections;
      r.due_s = (static_cast<double>(index) +
                 static_cast<double>(conn) / config.connections) /
                per_conn;
      break;
    }
  }
  return r;
}

std::vector<std::string> SetupSpecs(const WorkloadConfig& config, int conn) {
  std::vector<std::string> specs;
  switch (config.kind) {
    case Workload::kHot:
      for (int s = 0; s < config.shapes_per_connection; ++s) {
        specs.push_back(eadp::LoadSpecLine(conn, s));
      }
      break;
    case Workload::kChurn:
      for (int s = 0; s < config.shapes_per_connection; ++s) {
        specs.push_back(ChurnShape(conn, s));
      }
      break;
    case Workload::kCold:
      // Four fixed queries per class: the quality set plan_cost_geomean is
      // taken over, and the warm-up that faults in the planner's code and
      // allocator arenas before the window.
      for (int cls = 0; cls < kColdClasses; ++cls) {
        for (int j = 0; j < 4; ++j) {
          uint64_t q = 300000 + 1000 * static_cast<uint64_t>(conn) +
                       10 * static_cast<uint64_t>(cls) +
                       static_cast<uint64_t>(j);
          specs.push_back(ColdSpec(cls, SplitMix(q), q));
        }
      }
      break;
  }
  return specs;
}

}  // namespace perfbench
