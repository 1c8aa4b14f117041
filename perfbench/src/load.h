// The live half of the benchmark: the plan_server child process and the
// load generator that drives it over loopback TCP.
//
// One load-generating process, `connections` connections, each its own
// session with one request in flight: a connection sends its next request
// when the previous reply is in, and latency runs from send to reply. A
// paced stream (churn) also waits for each request's due time, and the
// generator's lateness is recorded beside the latencies.

#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "server/client.h"
#include "workload.h"

namespace perfbench {

/// The plan_server child process.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();  ///< kills and reaps the child if still running

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `binary` with `args` plus "--port 0" and waits for its
  /// "listening on <port>" line. False with *error on failure.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             std::string* error);
  /// Sends kShutdown and reaps the child (SIGKILL after a grace period).
  void Stop();

  int port() const { return port_; }
  /// CPU seconds the server's threads have run so far.
  double CpuSeconds() const;
  /// Peak resident set (VmHWM) in MiB.
  double PeakRssMb() const;

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int stdout_fd_ = -1;
};

/// One served Optimize reply kept for the correctness gate. Replies are
/// deduplicated on (connection, spec, statistics version, serve kind, plan
/// bytes): a hot run's ~10^5 replies reduce to its few hundred plans.
struct ServedPlan {
  int conn = 0;
  std::string spec;
  uint32_t version = 0;  ///< SetStats applied to (conn, spec) before it
  int tier = 0;          ///< 0 fresh, 1 L1, 2 L2
  bool avoided = false;  ///< drift-band serve (re-costed within tolerance)
  bool background = false;  ///< stale serve while a re-plan runs
  double recosted = 0;      ///< server-reported re-costed root cost
  std::string blob;
};

/// Statistics overrides a session received, per spec, in order.
using Overrides =
    std::map<std::pair<int, std::string>, std::vector<std::pair<int, double>>>;

struct PassResult {
  double window_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< error frames, backpressure, lost replies
  uint64_t optimize_done = 0;
  uint64_t setstats_done = 0;
  std::vector<double> optimize_ms;  ///< per completed Optimize
  std::vector<double> optimize_at_s;  ///< its completion, s after start
  std::vector<double> setstats_ms;
  std::vector<double> late_ms;      ///< paced: send time − due time
  std::vector<double> rtt_us;       ///< Optimize send -> reply
  /// Per connection, per stream index: that Optimize's round trip (NaN
  /// for SetStats and failed requests).
  std::vector<std::vector<double>> rtt_us_by_index;
  std::vector<double> reply_bytes;  ///< Optimize reply, both frames
  std::vector<std::vector<double>> class_ms;  ///< cold: per class
  uint64_t hits = 0;

  std::vector<ServedPlan> plans;
  /// Per connection, per Optimize request index: its entry in `plans`
  /// (SIZE_MAX for SetStats / failed requests).
  std::vector<std::vector<size_t>> plan_of_request;
  Overrides overrides;

  double server_cpu_s = 0;
};

/// One connection's request stream as wire frames. A SetStats request's
/// factor applies to the relation's base cardinality, and the absolute
/// value the server receives is logged as an override.
class FrameStream {
 public:
  FrameStream(const WorkloadConfig& config, uint64_t seed, int conn);

  /// The `index`-th request (indices must be visited in order). Sets the
  /// frame to send and, for Optimize, the statistics version it sees.
  Request Next(uint64_t index, eadp::Opcode* op, std::string* payload,
               uint32_t* version);

  Overrides* overrides() { return &overrides_; }

 private:
  const WorkloadConfig& config_;
  uint64_t seed_;
  int conn_;
  /// Relation cardinalities of each spec SetStats touched, as the
  /// generator draws them.
  std::unordered_map<std::string, std::vector<double>> base_cards_;
  Overrides overrides_;
};

std::string SessionName(int conn);

/// A started server with one open session per connection.
struct LiveServer {
  ServerProcess process;
  std::vector<std::unique_ptr<eadp::ClientConnection>> conns;
};

/// plan_server flags for `config`, with `persistent_dir` for its L2.
std::vector<std::string> ServerArgs(const WorkloadConfig& config,
                                    const std::string& persistent_dir);

/// Spawns the server for `config`, opens the sessions and runs the setup
/// pass (SetupSpecs on every connection). Setup replies land in
/// `setup_plans` (may be null). False with *error on failure.
bool StartAndSetUp(const WorkloadConfig& config, const std::string& binary,
                   const std::string& persistent_dir, LiveServer* server,
                   std::vector<ServedPlan>* setup_plans, std::string* error);

/// Runs the timed window for `seconds` (at most `max_requests` per
/// connection when nonzero) and returns everything measured.
PassResult RunPass(const WorkloadConfig& config, uint64_t seed,
                   double seconds, uint64_t max_requests,
                   LiveServer* server);

/// Fetches the server's global Stats document.
bool FetchStats(LiveServer* server, std::string* json);

/// Closes the connections and stops the server.
void TearDown(LiveServer* server);

/// Finds `"key":<number>` after the first occurrence of `section` in a
/// JSON document (section may be empty); 0 when absent.
double JsonNumber(const std::string& json, const std::string& section,
                  const std::string& key);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
