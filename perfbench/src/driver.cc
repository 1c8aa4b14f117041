// perfbench_driver: runs one workload of the repository benchmark.
//
//   perfbench_driver --workload hot|cold|churn --seed N --seconds S
//                    --trace 0|1 --server-bin PATH --out-dir DIR
//                    [--setups K] [--max-requests N]
//                    [--perturb-reference]
//
// --trace 0 measures the end-to-end metrics: the server is set up K times
// (spawn, sessions, setup pass; setup_s is the median) and the last one
// serves the timed window of S seconds, after the workload's warm-up. A
// host-speed probe (probe.h) runs through setups and window, and the
// timings are scaled by its readings. --trace 1 measures the per-layer
// metrics: a server pass of S/4 seconds (round trips, reply sizes, the
// server's own Stats counters), then three in-process replays (replica.h)
// of the same request stream, S/4 seconds each: untraced to warm up,
// traced, and untraced again for the tracing overhead. Both
// modes run the correctness gate (gate.h) after the timing.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics ({name: {value, unit}}) and info (sample counts, class shares,
// gate details). Spans of the traced replay go to DIR as JSON lines.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "gate.h"
#include "load.h"
#include "plangen/plan_cache.h"
#include "probe.h"
#include "replica.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  Workload workload = Workload::kHot;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server_bin;
  std::string out_dir = ".";
  int setups = 5;
  uint64_t max_requests = 0;
  bool perturb_reference = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--workload") {
      if (!ParseWorkload(next(), &a->workload)) return false;
    } else if (arg == "--seed") {
      a->seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a->seconds = std::atof(next().c_str());
    } else if (arg == "--trace") {
      a->trace = next() == "1";
    } else if (arg == "--server-bin") {
      a->server_bin = next();
    } else if (arg == "--out-dir") {
      a->out_dir = next();
    } else if (arg == "--setups") {
      a->setups = std::max(1, std::atoi(next().c_str()));
    } else if (arg == "--max-requests") {
      a->max_requests = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--perturb-reference") {
      a->perturb_reference = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !a->server_bin.empty() && a->seconds > 0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
/// p99 only where at least ten samples lie beyond it; 0 otherwise.
double P99(const std::vector<double>& v) {
  return v.size() >= 1000 ? Quantile(v, 0.99) : 0;
}

/// Throughput and latency of a pass after its warm-up, over the stretches
/// of the window the hypervisor left alone. The window is cut into kSpans
/// equal spans of time, and the probe reads each span's steal. The
/// figures pool the spans with at most kCleanSteal steal (about four 10 ms
/// ticks of a 4-vCPU guest per second), and never fewer than the kMinKept
/// least-stolen spans: steal slows the latency-bound workloads far more
/// than its share (in a span with 20% steal `hot`'s p99 is 10-20 times its
/// usual). Each latency, and each span's completion count, is scaled by
/// the probe's median over its own span, as the host's speed drifts
/// within a run too. A stall the program causes recurs through the window
/// and so reaches the kept spans. CPU per request is pooled over the
/// whole window.
struct Figures {
  double qps = 0, p50_ms = 0, p99_ms = 0;              ///< scaled
  double raw_qps = 0, raw_p50_ms = 0, raw_p99_ms = 0;  ///< as read
  size_t pooled = 0;  ///< latencies in the kept spans
  std::vector<double> span_qps, span_steal;
  std::vector<HostProbe::Span> kept;
  std::vector<double> timed_ms;  ///< every latency after the warm-up
};

Figures SpanFigures(const PassResult& p, double warmup_s,
                    Clock::time_point start, const HostProbe& probe) {
  constexpr size_t kSpans = 40;
  constexpr double kCleanSteal = 0.01;
  constexpr size_t kMinKept = 8;
  Figures f;
  const double span_s = std::max(p.window_s - warmup_s, 1e-9) / kSpans;
  std::vector<std::vector<double>> lat(kSpans);
  for (size_t i = 0; i < p.optimize_ms.size(); ++i) {
    if (p.optimize_at_s[i] < warmup_s) continue;
    size_t g = std::min(
        kSpans - 1,
        static_cast<size_t>((p.optimize_at_s[i] - warmup_s) / span_s));
    lat[g].push_back(p.optimize_ms[i]);
    f.timed_ms.push_back(p.optimize_ms[i]);
  }
  auto at_s = [start](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  std::vector<HostProbe::Span> spans;
  for (size_t g = 0; g < kSpans; ++g) {
    spans.emplace_back(at_s(warmup_s + g * span_s),
                       at_s(warmup_s + (g + 1) * span_s));
    f.span_steal.push_back(probe.StealShare(spans.back()));
    f.span_qps.push_back(static_cast<double>(lat[g].size()) / span_s);
  }
  std::vector<size_t> order(kSpans);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return f.span_steal[a] < f.span_steal[b];
  });
  size_t keep = 0;
  while (keep < kSpans && f.span_steal[order[keep]] <= kCleanSteal) ++keep;
  order.resize(std::max(keep, kMinKept));
  std::vector<double> raw, scaled;
  double done = 0, scaled_done = 0;
  for (size_t g : order) {
    const double scale = kReferenceProbeUs / probe.Median({spans[g]}).first;
    for (double ms : lat[g]) {
      raw.push_back(ms);
      scaled.push_back(ms * scale);
    }
    done += static_cast<double>(lat[g].size());
    scaled_done += static_cast<double>(lat[g].size()) / scale;
    f.kept.push_back(spans[g]);
  }
  const double kept_s = span_s * static_cast<double>(order.size());
  f.raw_qps = done / kept_s;
  f.qps = scaled_done / kept_s;
  f.raw_p50_ms = Median(raw);
  f.raw_p99_ms = Quantile(raw, 0.99);
  f.p50_ms = Median(scaled);
  f.p99_ms = Quantile(scaled, 0.99);
  f.pooled = raw.size();
  return f;
}

class Output {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    Append(&metrics_, "\"" + name + "\":{\"value\":" + Num(value) +
                          ",\"unit\":\"" + unit + "\"}");
  }
  void Info(const std::string& name, double value) {
    Append(&info_, "\"" + name + "\":" + Num(value));
  }
  void Info(const std::string& name, const std::string& text) {
    std::string escaped;
    for (char c : text) {
      if (c == '"' || c == '\\') escaped.push_back('\\');
      escaped.push_back(c == '\n' ? ' ' : c);
    }
    Append(&info_, "\"" + name + "\":\"" + escaped + "\"");
  }
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    std::printf(
        "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
        "\"metrics\":{%s},\"info\":{%s}}\n",
        correct ? "true" : "false",
        static_cast<unsigned long long>(std::max<uint64_t>(attempted, 1)),
        static_cast<unsigned long long>(failed), metrics_.c_str(),
        info_.c_str());
    std::fflush(stdout);
  }

 private:
  static std::string Num(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
  }
  static void Append(std::string* to, const std::string& item) {
    if (!to->empty()) *to += ",";
    *to += item;
  }
  std::string metrics_;
  std::string info_;
};

std::string FreshDir(const Args& args, const char* tag, int k) {
  std::filesystem::path dir =
      std::filesystem::path(args.out_dir) /
      ("l2-" + std::to_string(::getpid()) + "-" + tag + std::to_string(k));
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// Gate summary into info; true when clean.
bool ReportGate(const GateReport& g, Output* out) {
  out->Info("gate.plans_checked", static_cast<double>(g.plans_checked));
  out->Info("gate.references", static_cast<double>(g.references));
  out->Info("gate.undecodable", static_cast<double>(g.undecodable));
  out->Info("gate.invalid", static_cast<double>(g.invalid));
  out->Info("gate.cost_mismatches", static_cast<double>(g.cost_mismatches));
  out->Info("gate.drift_violations", static_cast<double>(g.drift_violations));
  out->Info("gate.stale_violations", static_cast<double>(g.stale_violations));
  out->Info("gate.dphyp_violations", static_cast<double>(g.dphyp_violations));
  std::string examples;
  for (const std::string& e : g.examples) examples += e + "; ";
  if (!examples.empty()) {
    out->Info("gate.examples", examples);
    std::fprintf(stderr, "gate violations: %s\n", examples.c_str());
  }
  return g.violations() == 0;
}

/// Span request id of stream index `i` of connection `c`.
uint64_t RequestId(size_t c, uint64_t i) {
  return (static_cast<uint64_t>(c) << 40) | i;
}

/// Replays each connection's stream into `replica` (closed loop, one thread
/// per connection) for at most `seconds` and `cap` requests per connection.
/// Returns Optimize completions per second; served[c][i] gets how the
/// i-th Optimize of connection c was served.
double Replay(const WorkloadConfig& config, uint64_t seed, double seconds,
              uint64_t cap, Replica* replica,
              std::vector<std::vector<Served>>* served, uint64_t* failed) {
  served->assign(static_cast<size_t>(config.connections), {});
  std::atomic<uint64_t> done{0};
  std::atomic<uint64_t> bad{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < config.connections; ++c) {
    threads.emplace_back([&, c] {
      FrameStream stream(config, seed, c);
      for (uint64_t i = 0; i < cap && Clock::now() < end; ++i) {
        eadp::Opcode op;
        std::string payload;
        uint32_t version;
        stream.Next(i, &op, &payload, &version);
        uint64_t id = RequestId(static_cast<size_t>(c), i);
        if (op == eadp::Opcode::kSetStats) {
          if (!replica->SetStats(c, id, payload)) bad.fetch_add(1);
          continue;
        }
        Served s{.cost = std::nan("")};
        if (replica->Optimize(c, id, payload, &s) == 0) bad.fetch_add(1);
        (*served)[static_cast<size_t>(c)].push_back(s);
        done.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *failed = bad.load();
  double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  return static_cast<double>(done.load()) / elapsed;
}

/// Plans every setup spec once through the replica (untraced).
void ReplicaSetUp(const WorkloadConfig& config, Replica* replica) {
  std::vector<std::thread> threads;
  for (int c = 0; c < config.connections; ++c) {
    threads.emplace_back([&, c] {
      uint64_t i = 0;
      for (const std::string& spec : SetupSpecs(config, c)) {
        Served s;
        replica->Optimize(c, i++, eadp::EncodeOptimize({SessionName(c), spec}),
                          &s);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

void ServerCounters(const std::string& before, const std::string& after,
                    Output* out) {
  auto delta = [&](const char* section, const char* key) {
    return JsonNumber(after, section, key) - JsonNumber(before, section, key);
  };
  out->Metric("optimizer_service.rejected", delta("", "rejected"), "count");
  out->Metric("server_stats.l1_hits", delta("\"l1\"", "hits"), "count");
  out->Metric("server_stats.l1_evictions", delta("\"l1\"", "evictions"),
              "count");
  out->Metric("server_stats.drift_hits", delta("\"l1\"", "drift_hits"),
              "count");
  out->Metric("server_stats.refreshes", delta("\"l1\"", "refreshes"), "count");
  out->Metric("server_stats.l2_hits", delta("\"l2\":{", "hits"), "count");
  out->Metric("server_stats.l2_appends",
              delta("\"l2\":{", "puts"), "count");
  out->Metric("server_stats.l2_bytes_on_disk",
              JsonNumber(after, "\"l2\":{", "bytes_on_disk"), "bytes");
}

int RunEndToEnd(const Args& args, const WorkloadConfig& config,
                Output* out) {
  std::vector<double> setup_s;
  std::vector<ServedPlan> setup_plans;
  std::unique_ptr<LiveServer> server;
  std::string dir;
  auto probe = std::make_unique<HostProbe>();
  const Clock::time_point setups_start = Clock::now();
  for (int k = 0; k < args.setups; ++k) {
    if (server) {
      TearDown(server.get());
      std::filesystem::remove_all(dir);
    }
    server = std::make_unique<LiveServer>();
    setup_plans.clear();
    dir = FreshDir(args, "e", k);
    std::string error;
    Clock::time_point t0 = Clock::now();
    if (!StartAndSetUp(config, args.server_bin, dir, server.get(),
                       &setup_plans, &error)) {
      std::fprintf(stderr, "setup failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  const Clock::time_point window_start = Clock::now();
  std::string stats_after;
  PassResult pass = RunPass(config, args.seed, config.warmup_s + args.seconds,
                            args.max_requests, server.get());
  const Clock::time_point window_end = Clock::now();
  const auto [setup_probe_us, setup_probes] =
      probe->Median(setups_start, window_start);
  const auto [window_probe_us, window_probes] =
      probe->Median(window_start, window_end);
  Figures fig = SpanFigures(pass, config.warmup_s, window_start, *probe);
  const auto [kept_probe_us, kept_probes] = probe->Median(fig.kept);
  const double window_steal = probe->StealShare({window_start, window_end});
  probe.reset();
  FetchStats(server.get(), &stats_after);
  double rss_mb = server->process.PeakRssMb();
  TearDown(server.get());
  std::filesystem::remove_all(dir);

  std::vector<ServedPlan> plans = std::move(setup_plans);
  size_t n_setup = plans.size();
  for (ServedPlan& p : pass.plans) plans.push_back(std::move(p));
  GateReport gate = RunGate(config, plans, pass.overrides,
                            args.perturb_reference);
  bool correct = ReportGate(gate, out);

  double log_sum = 0;
  for (size_t i = 0; i < n_setup; ++i) log_sum += std::log(gate.costs[i]);
  double geomean = n_setup > 0 ? std::exp(log_sum / n_setup) : 0;
  uint64_t completed = pass.optimize_done + pass.setstats_done;
  const double cpu_us =
      completed > 0 ? pass.server_cpu_s * 1e6 / completed : 0;

  // Timings at the reference host speed (probe.h); the figures as read
  // are kept in info under raw.*. A paced stream's rate is the offered
  // one, not a speed, and is reported as read.
  const double window_scale = kReferenceProbeUs / window_probe_us;
  const double setup_scale = kReferenceProbeUs / setup_probe_us;
  out->Metric("qps", config.rate > 0 ? fig.raw_qps : fig.qps, "req/s");
  out->Metric("p50_ms", fig.p50_ms, "ms");
  out->Metric("p99_ms", fig.p99_ms, "ms");
  out->Metric("server_cpu_us_per_req", cpu_us * window_scale, "us");
  out->Metric("peak_rss_mb", rss_mb, "MiB");
  out->Metric("plan_cost_geomean", geomean, "cost");
  out->Metric("setup_s", Median(setup_s) * setup_scale, "s");

  out->Info("probe.window_us", window_probe_us);
  out->Info("probe.window_samples", static_cast<double>(window_probes));
  out->Info("probe.kept_us", kept_probe_us);
  out->Info("probe.kept_samples", static_cast<double>(kept_probes));
  out->Info("steal.window", window_steal);
  out->Info("probe.setup_us", setup_probe_us);
  out->Info("probe.setup_samples", static_cast<double>(setup_probes));
  out->Info("raw.qps", fig.raw_qps);
  out->Info("raw.p50_ms", fig.raw_p50_ms);
  out->Info("raw.p99_ms", fig.raw_p99_ms);
  out->Info("raw.server_cpu_us_per_req", cpu_us);
  out->Info("raw.setup_s", Median(setup_s));

  out->Info("p99_samples", static_cast<double>(fig.pooled));
  out->Info("spans", static_cast<double>(fig.span_qps.size()));
  out->Info("spans_kept", static_cast<double>(fig.kept.size()));
  auto series = [](const std::vector<double>& v) {
    std::string text;
    char buf[32];
    for (double x : v) {
      std::snprintf(buf, sizeof(buf), "%.5g ", x);
      text += buf;
    }
    return text;
  };
  out->Info("span.qps", series(fig.span_qps));
  out->Info("span.steal", series(fig.span_steal));
  out->Info("window_s", pass.window_s);
  out->Info("warmup_s", config.warmup_s);
  out->Info("pooled.qps",
            static_cast<double>(fig.timed_ms.size()) /
                std::max(pass.window_s - config.warmup_s, 1e-9));
  out->Info("pooled.p50_ms", Median(fig.timed_ms));
  out->Info("pooled.p99_ms", Quantile(fig.timed_ms, 0.99));
  out->Info("hit_ratio", pass.optimize_done > 0
                             ? static_cast<double>(pass.hits) /
                                   static_cast<double>(pass.optimize_done)
                             : 0);
  out->Info("geomean_queries", static_cast<double>(n_setup));
  for (size_t k = 0; k < setup_s.size(); ++k) {
    out->Info("setup_s_" + std::to_string(k), setup_s[k]);
  }
  if (config.rate > 0) {
    out->Info("offered_rate", config.rate);
    out->Info("late_p99_ms", Quantile(pass.late_ms, 0.99));
    out->Info("setstats_p50_ms", Median(pass.setstats_ms));
    out->Info("disk_mb",
              JsonNumber(stats_after, "\"l2\":{", "bytes_on_disk") / 1048576.0);
  }
  if (config.kind == Workload::kCold) {
    for (int k = 0; k < kColdClasses; ++k) {
      const std::vector<double>& v = pass.class_ms[static_cast<size_t>(k)];
      std::string name = std::string("class.") + ColdClassName(k);
      out->Info(name + ".share", static_cast<double>(v.size()) /
                                     static_cast<double>(pass.optimize_done));
      out->Info(name + ".p50_ms", Median(v));
      out->Info(name + ".p99_ms", Quantile(v, 0.99));
    }
  }
  out->Print(correct, pass.attempted, pass.failed);
  return 0;
}

int RunTraced(const Args& args, const WorkloadConfig& config,
              Output* out) {
  const double phase_s = args.seconds / 4;
  // Bounds the span volume of the traced replay; both replays stop at the
  // same request count so their rates compare like for like.
  const uint64_t cap = args.max_requests > 0 ? args.max_requests : 5000;

  // 1. Server pass: round trips, reply sizes and the server's counters.
  LiveServer server;
  std::vector<ServedPlan> setup_plans;
  std::string dir = FreshDir(args, "t", 0);
  std::string error;
  if (!StartAndSetUp(config, args.server_bin, dir, &server, &setup_plans,
                     &error)) {
    std::fprintf(stderr, "setup failed: %s\n", error.c_str());
    return 1;
  }
  std::string stats_before, stats_after;
  FetchStats(&server, &stats_before);
  PassResult pass =
      RunPass(config, args.seed, phase_s, cap, &server);
  FetchStats(&server, &stats_after);
  TearDown(&server);
  std::filesystem::remove_all(dir);

  // 2. In-process replays of the same stream, each on a fresh replica:
  // untraced (warms the process heap; discarded), traced, untraced again.
  // The tracing overhead is the traced rate against the second untraced.
  // Each replica is configured like the server, L2 included.
  const bool l2 = config.persistent_tier;
  // Background re-plans land at different times on the two sides.
  const bool background = config.replan_threads > 0;
  ReplicaOptions ro;
  ro.cache_capacity = config.cache_capacity;
  ro.drift_tolerance = config.drift_tolerance;
  ro.replan_threads = config.replan_threads;
  std::vector<std::vector<Served>> served;
  uint64_t replay_failed = 0;
  auto untraced_replay = [&](const char* tag) {
    if (l2) ro.persistent_dir = FreshDir(args, tag, 0);
    std::vector<std::vector<Served>> unused;
    uint64_t failed = 0;
    double qps;
    {
      Replica replica(ro, config.connections);
      ReplicaSetUp(config, &replica);
      qps = Replay(config, args.seed, phase_s, cap, &replica, &unused,
                   &failed);
    }
    replay_failed += failed;
    if (l2) std::filesystem::remove_all(ro.persistent_dir);
    return qps;
  };
  untraced_replay("w");

  Tracer tracer;
  double traced_qps;
  eadp::PlanCacheStats l1_before, l1_after;
  eadp::PersistentCacheStats l2_before, l2_after;
  std::vector<FreshPlan> fresh;
  std::vector<double> blob_bytes;
  uint64_t replayed = 0;
  {
    if (l2) ro.persistent_dir = FreshDir(args, "r", 0);
    Replica replica(ro, config.connections);
    ReplicaSetUp(config, &replica);
    l1_before = replica.l1()->Snapshot();
    if (replica.l2()) l2_before = replica.l2()->Snapshot();
    replica.set_tracer(&tracer);
    uint64_t failed = 0;
    traced_qps = Replay(config, args.seed, phase_s, cap, &replica,
                        &served, &failed);
    replay_failed += failed;
    l1_after = replica.l1()->Snapshot();
    if (replica.l2()) l2_after = replica.l2()->Snapshot();
    fresh = replica.fresh_plans();
    blob_bytes = replica.blob_bytes();
    for (const auto& v : served) replayed += v.size();
  }
  if (l2) std::filesystem::remove_all(ro.persistent_dir);
  double untraced_qps = untraced_replay("u");
  std::vector<Span> spans = tracer.Collect();
  std::string span_path = (std::filesystem::path(args.out_dir) /
                           (std::string("spans-") +
                            WorkloadName(config.kind) + "-" +
                            std::to_string(args.seed) + ".jsonl"))
                              .string();
  WriteSpans(spans, span_path);

  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };

  // 3. Correctness: the gate over the server pass, and the replica's serve
  // path against the server's over the requests both served (the k-th
  // Optimize of a connection is the same request on both sides).
  std::vector<ServedPlan> plans = std::move(setup_plans);
  size_t n_setup = plans.size();
  for (ServedPlan& p : pass.plans) plans.push_back(std::move(p));
  GateReport gate = RunGate(config, plans, pass.overrides,
                            args.perturb_reference);
  bool correct = ReportGate(gate, out);
  uint64_t replica_mismatches = replay_failed;
  // Serve kinds: fresh, L1, L2, and drift episodes served in the band or
  // stale. A drift episode is one (connection, spec, statistics version);
  // how many of its requests get the drift serve depends on when a
  // background re-plan lands, which episodes get one much less so.
  struct Kinds {
    std::array<double, 3> tiers{};
    std::set<std::tuple<size_t, std::string, uint32_t>> band, stale;
    void Add(size_t conn, const ServedPlan& request, int tier, bool avoided,
             bool background) {
      ++tiers[static_cast<size_t>(std::clamp(tier, 0, 2))];
      if (avoided) band.emplace(conn, request.spec, request.version);
      if (background) stale.emplace(conn, request.spec, request.version);
    }
    std::array<double, 5> Counts() const {
      return {tiers[0], tiers[1], tiers[2], static_cast<double>(band.size()),
              static_cast<double>(stale.size())};
    }
  };
  Kinds server_kinds, replica_kinds;
  double compared = 0;
  for (size_t c = 0; c < served.size(); ++c) {
    const std::vector<size_t>& index = pass.plan_of_request[c];
    for (size_t i = 0; i < std::min(index.size(), served[c].size()); ++i) {
      if (index[i] == SIZE_MAX) continue;
      const ServedPlan& p = plans[n_setup + index[i]];
      const Served& r = served[c][i];
      ++compared;
      server_kinds.Add(c, p, p.tier, p.avoided, p.background);
      replica_kinds.Add(c, p, r.tier, r.avoided, r.background);
      // With background re-plans, which serve a request gets depends on
      // when they finish, so only the counts below are compared.
      if (!background && !(gate.costs[n_setup + index[i]] == r.cost &&
                           p.tier == r.tier && p.avoided == r.avoided &&
                           p.background == r.background)) {
        ++replica_mismatches;
      }
    }
  }
  // Each count may differ between the replica and the server by two
  // standard deviations of a Poisson count of its size (at least three):
  // re-plan timing moves a few serves between kinds, a changed serve path
  // moves whole kinds.
  static const char* const kKinds[] = {"fresh", "l1", "l2", "band_episodes",
                                       "stale_episodes"};
  const std::array<double, 5> server_counts = server_kinds.Counts();
  const std::array<double, 5> replica_counts = replica_kinds.Counts();
  for (size_t k = 0; k < server_counts.size(); ++k) {
    double a = server_counts[k];
    double b = replica_counts[k];
    out->Info(std::string("replica.") + kKinds[k] + ".server", a);
    out->Info(std::string("replica.") + kKinds[k] + ".replica", b);
    if (std::abs(a - b) > std::max(3.0, 2 * std::sqrt(std::max(a, b)))) {
      ++replica_mismatches;
    }
  }
  out->Info("replica_compared", compared);
  out->Info("replica_mismatches", static_cast<double>(replica_mismatches));
  correct = correct && compared > 0 && replica_mismatches == 0;

  // 4. Per-layer metrics.
  std::map<std::string, LayerStats> layers = ReduceSpans(spans);
  auto dur = [&](const char* name) -> const std::vector<double>& {
    return layers[name].duration_us;
  };
  auto med = [&](const char* name) { return Median(dur(name)); };
  double optimize_us = med("optimizer_service.optimize");
  double encode_us = med("plan_serde.encode");
  double stats_json_us = med("plan_explain.stats_json");
  // Transport per request: the server round trip minus the replayed
  // service work of the same request (same connection, same stream
  // index), over the requests both sides completed.
  std::map<uint64_t, double> service_us;
  for (const Span& sp : spans) {
    std::string_view name = sp.name;
    if (name == "optimizer_service.optimize" || name == "plan_serde.encode" ||
        name == "plan_explain.stats_json") {
      service_us[sp.request] +=
          static_cast<double>(sp.end_ns - sp.start_ns) / 1e3;
    }
  }
  std::vector<double> transport;
  for (size_t c = 0; c < pass.rtt_us_by_index.size(); ++c) {
    const std::vector<double>& rtts = pass.rtt_us_by_index[c];
    for (size_t i = 0; i < rtts.size(); ++i) {
      auto it = service_us.find(RequestId(c, i));
      if (!std::isnan(rtts[i]) && it != service_us.end()) {
        transport.push_back(rtts[i] - it->second);
      }
    }
  }
  out->Metric("server.rtt_us", Median(pass.rtt_us), "us");
  out->Metric("server.rtt_p99_us", P99(pass.rtt_us), "us");
  out->Metric("server.transport_us", Median(transport), "us");
  out->Info("transport_samples", static_cast<double>(transport.size()));
  out->Metric("protocol.resp_bytes", Median(pass.reply_bytes), "bytes");
  out->Metric("optimizer_service.optimize_us", optimize_us, "us");
  out->Metric("optimizer_service.optimize_p99_us",
              P99(dur("optimizer_service.optimize")), "us");
  out->Metric("optimizer_service.setstats_us",
              med("optimizer_service.setstats"), "us");
  out->Metric("queries.materialize_us", med("queries.materialize"), "us");
  out->Metric("queries.fingerprint_us", med("queries.fingerprint"), "us");

  double l1_hits = static_cast<double>(l1_after.hits - l1_before.hits);
  double l1_misses = static_cast<double>(l1_after.misses - l1_before.misses);
  double drift_hits =
      static_cast<double>(l1_after.drift_hits - l1_before.drift_hits);
  out->Metric("plan_cache.lookup_us", med("plan_cache.lookup"), "us");
  out->Metric("plan_cache.hit_ratio", ratio(l1_hits, l1_hits + l1_misses),
              "ratio");
  out->Metric("plan_cache.evictions",
              static_cast<double>(l1_after.evictions - l1_before.evictions),
              "count");
  out->Metric("plan_cache.drift_hit_ratio",
              ratio(drift_hits, static_cast<double>(replayed)), "ratio");
  out->Metric("plan_cache.replans_avoided_ratio",
              ratio(static_cast<double>(l1_after.replans_avoided -
                                        l1_before.replans_avoided),
                    drift_hits),
              "ratio");
  out->Metric("plan_cache.refreshes",
              static_cast<double>(l1_after.refreshes - l1_before.refreshes),
              "count");

  double l2_hits = static_cast<double>(l2_after.hits - l2_before.hits);
  double l2_misses = static_cast<double>(l2_after.misses - l2_before.misses);
  out->Metric("persistent_cache.get_us", med("persistent_cache.get"), "us");
  out->Metric("persistent_cache.hit_ratio",
              ratio(l2_hits, l2_hits + l2_misses), "ratio");
  out->Metric("persistent_cache.bytes_per_req",
              ratio(static_cast<double>(l2_after.bytes_on_disk) -
                        static_cast<double>(l2_before.bytes_on_disk),
                    static_cast<double>(replayed)),
              "bytes");
  out->Metric("persistent_cache.superseded_records",
              static_cast<double>(l2_after.superseded_records -
                                  l2_before.superseded_records),
              "count");

  out->Metric("plan_serde.encode_us", encode_us, "us");
  out->Metric("plan_serde.decode_us", med("plan_serde.decode"), "us");
  out->Metric("plan_serde.blob_bytes", Median(blob_bytes), "bytes");
  out->Metric("plan_explain.stats_json_us", stats_json_us, "us");

  std::vector<double> ccps, built, dp_self, loser, race;
  double sum_kept = 0, sum_built = 0, sum_loser = 0, sum_race = 0;
  for (const FreshPlan& f : fresh) {
    if (f.large) {
      sum_loser += f.loser_us;
      sum_race += f.race_us;
    } else {
      ccps.push_back(static_cast<double>(f.ccp_count));
      built.push_back(static_cast<double>(f.plans_built));
      dp_self.push_back(f.dp_self_us);
      sum_kept += static_cast<double>(f.table_plans);
      sum_built += static_cast<double>(f.plans_built);
    }
  }
  out->Metric("conflict.detect_us", med("conflict.detect"), "us");
  out->Metric("hypergraph.enumerate_us",
              Median(layers["hypergraph.enumerate"].self_us), "us");
  out->Metric("hypergraph.ccp_count", Median(ccps), "count");
  out->Metric("plangen.optimize_us", med("plangen.optimize"), "us");
  out->Metric("plangen.optimize_p99_us", P99(dur("plangen.optimize")), "us");
  out->Metric("plangen.dp_self_us", Median(dp_self), "us");
  out->Metric("plangen.plans_built", Median(built), "count");
  out->Metric("plangen.kept_ratio", ratio(sum_kept, sum_built), "ratio");
  out->Metric("large_query.goo_us", med("large_query.goo"), "us");
  out->Metric("large_query.idp_us", med("large_query.idp"), "us");
  out->Metric("large_query.race_waste_ratio", ratio(sum_loser, sum_race),
              "ratio");
  out->Metric("cost.recost_us", med("cost.recost"), "us");

  // Self-time shares over every span: where the replayed requests spent
  // their time, layer by layer.
  double self_total = 0;
  for (const auto& [name, l] : layers) self_total += l.self_total_us;
  std::vector<std::pair<double, std::string>> ranked;
  for (const auto& [name, l] : layers) {
    ranked.emplace_back(l.self_total_us, name);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  std::string top;
  for (const auto& [us, name] : ranked) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s=%.1f%% ", name.c_str(),
                  100.0 * ratio(us, self_total));
    top += buf;
  }
  out->Info("self_time_shares", top);
  out->Metric("plangen.self_share",
              ratio(layers["plangen.optimize"].self_total_us +
                        layers["plangen.dp"].self_total_us,
                    self_total),
              "ratio");

  out->Metric("fail_ratio",
              ratio(static_cast<double>(pass.failed),
                    static_cast<double>(pass.attempted)),
              "ratio");
  out->Metric("setstats_p50_ms", Median(pass.setstats_ms), "ms");
  out->Metric("disk_mb",
              JsonNumber(stats_after, "\"l2\":{", "bytes_on_disk") / 1048576.0,
              "MiB");
  out->Metric("loadgen.late_p99_ms", Quantile(pass.late_ms, 0.99), "ms");
  ServerCounters(stats_before, stats_after, out);
  out->Metric("trace.untraced_qps", untraced_qps, "req/s");
  out->Metric("trace.traced_qps", traced_qps, "req/s");
  out->Metric("trace.qps_ratio", ratio(traced_qps, untraced_qps), "ratio");

  out->Info("spans", static_cast<double>(spans.size()));
  out->Info("span_file", span_path);
  out->Info("replayed_requests", static_cast<double>(replayed));
  out->Info("server_pass_requests", static_cast<double>(pass.attempted));
  out->Print(correct, pass.attempted, pass.failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload hot|cold|churn --seed N "
                 "--seconds S --trace 0|1 --server-bin PATH --out-dir DIR\n");
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);
  perfbench::WorkloadConfig config = perfbench::ConfigFor(args.workload);
  perfbench::Output out;
  std::string flags;
  for (const std::string& f : perfbench::ServerArgs(config, "<tmp>")) {
    flags += (flags.empty() ? "" : " ") + f;
  }
  out.Info("server_flags", flags);
  out.Info("connections", config.connections);
  return args.trace ? perfbench::RunTraced(args, config, &out)
                    : perfbench::RunEndToEnd(args, config, &out);
}
