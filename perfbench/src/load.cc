#include "load.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>

#include "replica.h"
#include "server/protocol.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Reply {
  bool ok = false;  ///< a plan came back (false: error frame)
  std::string blob;
  std::string stats;
  size_t bytes = 0;
};

/// Reads one Optimize reply (plan blob + stats JSON, or an error frame).
/// False on a transport failure.
bool ReadOptimizeReply(eadp::ClientConnection* conn, Reply* reply) {
  eadp::Frame frame;
  eadp::DecodeStatus decode;
  if (conn->Recv(&frame, &decode) != eadp::ReadStatus::kOk ||
      decode != eadp::DecodeStatus::kOk) {
    return false;
  }
  reply->bytes = 4 + eadp::kFrameHeaderBytes + frame.payload.size();
  if (frame.opcode == static_cast<uint8_t>(eadp::Opcode::kError)) {
    reply->ok = false;
    return true;
  }
  if (frame.opcode != static_cast<uint8_t>(eadp::Opcode::kPlanBlob)) {
    return false;
  }
  reply->blob = std::move(frame.payload);
  if (conn->Recv(&frame, &decode) != eadp::ReadStatus::kOk ||
      decode != eadp::DecodeStatus::kOk ||
      frame.opcode != static_cast<uint8_t>(eadp::Opcode::kStatsJson)) {
    return false;
  }
  reply->bytes += 4 + eadp::kFrameHeaderBytes + frame.payload.size();
  reply->stats = std::move(frame.payload);
  reply->ok = true;
  return true;
}

/// Reads a one-frame reply (kOk or kError). False on transport failure.
bool ReadAck(eadp::ClientConnection* conn, bool* ok) {
  eadp::Frame frame;
  eadp::DecodeStatus decode;
  if (conn->Recv(&frame, &decode) != eadp::ReadStatus::kOk ||
      decode != eadp::DecodeStatus::kOk) {
    return false;
  }
  *ok = frame.opcode == static_cast<uint8_t>(eadp::Opcode::kOk);
  return true;
}

bool JsonFlag(const std::string& json, const char* key) {
  return json.find(std::string("\"") + key + "\":true") != std::string::npos;
}

/// Per-connection collector; merged into one PassResult at the end.
struct ConnLog {
  int conn = 0;
  PassResult part;
  std::unordered_map<std::string, size_t> plan_index;

  /// Records an Optimize reply; returns its entry in part.plans.
  size_t AddPlan(const std::string& spec, uint32_t version, Reply* reply) {
    ServedPlan p;
    p.conn = conn;
    p.spec = spec;
    p.version = version;
    p.tier = static_cast<int>(JsonNumber(reply->stats, "", "cache_tier"));
    p.avoided = JsonFlag(reply->stats, "replan_avoided");
    p.background = JsonFlag(reply->stats, "replan_background");
    p.recosted = JsonNumber(reply->stats, "", "recosted_cost");
    if (p.tier != 0) ++part.hits;
    // The blob's leading stats block carries the per-call optimize_ms, so
    // the dedup hash skips it (at most ~100 bytes) on plan-sized blobs.
    std::string_view bytes(reply->blob);
    if (bytes.size() > 256) bytes.remove_prefix(128);
    std::string key = spec + '\n' + std::to_string(version) + '\n' +
                      std::to_string(p.tier) + (p.avoided ? "a" : "") +
                      (p.background ? "b" : "") + '\n' +
                      std::to_string(std::hash<std::string_view>{}(bytes));
    auto [it, inserted] = plan_index.emplace(key, part.plans.size());
    if (inserted) {
      p.blob = std::move(reply->blob);
      part.plans.push_back(std::move(p));
    }
    return it->second;
  }
};

void Merge(std::vector<ConnLog>* logs, PassResult* out) {
  out->plan_of_request.resize(logs->size());
  for (ConnLog& log : *logs) {
    PassResult& p = log.part;
    size_t base = out->plans.size();
    for (ServedPlan& plan : p.plans) out->plans.push_back(std::move(plan));
    for (size_t& idx : p.plan_of_request[0]) {
      if (idx != SIZE_MAX) idx += base;
    }
    out->plan_of_request[static_cast<size_t>(log.conn)] =
        std::move(p.plan_of_request[0]);
    out->rtt_us_by_index.resize(logs->size());
    out->rtt_us_by_index[static_cast<size_t>(log.conn)] =
        std::move(p.rtt_us_by_index[0]);
    out->attempted += p.attempted;
    out->failed += p.failed;
    out->optimize_done += p.optimize_done;
    out->setstats_done += p.setstats_done;
    out->hits += p.hits;
    auto append = [](std::vector<double>* to, const std::vector<double>& v) {
      to->insert(to->end(), v.begin(), v.end());
    };
    append(&out->optimize_ms, p.optimize_ms);
    append(&out->optimize_at_s, p.optimize_at_s);
    append(&out->setstats_ms, p.setstats_ms);
    append(&out->late_ms, p.late_ms);
    append(&out->rtt_us, p.rtt_us);
    append(&out->reply_bytes, p.reply_bytes);
    out->class_ms.resize(kColdClasses);
    for (size_t k = 0; k < p.class_ms.size(); ++k) {
      append(&out->class_ms[k], p.class_ms[k]);
    }
    for (auto& [key, list] : p.overrides) out->overrides[key] = list;
  }
}

}  // namespace

std::string SessionName(int conn) { return "c" + std::to_string(conn); }

FrameStream::FrameStream(const WorkloadConfig& config, uint64_t seed,
                         int conn)
    : config_(config), seed_(seed), conn_(conn) {}

Request FrameStream::Next(uint64_t index, eadp::Opcode* op,
                          std::string* payload, uint32_t* version) {
  Request r = MakeRequest(config_, seed_, conn_, index);
  std::vector<std::pair<int, double>>& applied = overrides_[{conn_, r.spec}];
  if (r.set_stats) {
    std::vector<double>& base = base_cards_[r.spec];
    if (base.empty()) {
      eadp::Query q;
      MaterializeSpec(r.spec, &q);
      for (int k = 0; k < q.NumRelations(); ++k) {
        base.push_back(q.catalog().relation(k).cardinality);
      }
    }
    const double card =
        std::max(1.0, std::floor(base.at(r.relation) * r.factor));
    applied.emplace_back(static_cast<int>(r.relation), card);
    *op = eadp::Opcode::kSetStats;
    *payload =
        eadp::EncodeSetStats({SessionName(conn_), r.spec, r.relation, card});
  } else {
    *op = eadp::Opcode::kOptimize;
    *payload = eadp::EncodeOptimize({SessionName(conn_), r.spec});
  }
  *version = static_cast<uint32_t>(applied.size());
  return r;
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& args,
                          std::string* error) {
  int fds[2];
  if (::pipe(fds) != 0) {
    *error = "pipe failed";
    return false;
  }
  std::vector<std::string> argv_s = {binary, "--port", "0"};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  pid_ = ::fork();
  if (pid_ < 0) {
    *error = "fork failed";
    return false;
  }
  if (pid_ == 0) {
    // The server must not outlive a driver that is killed mid-run.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    std::_Exit(127);
  }
  ::close(fds[1]);
  stdout_fd_ = fds[0];
  std::string out;
  char buf[256];
  auto deadline = Clock::now() + std::chrono::seconds(30);
  while (out.find('\n') == std::string::npos) {
    int left = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now())
            .count());
    pollfd p{stdout_fd_, POLLIN, 0};
    if (left <= 0 || ::poll(&p, 1, left) <= 0) {
      *error = "server did not report its port";
      return false;
    }
    ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) {
      *error = "server exited before listening";
      return false;
    }
    out.append(buf, static_cast<size_t>(n));
  }
  if (std::sscanf(out.c_str(), "listening on %d", &port_) != 1) {
    *error = "unexpected server output: " + out;
    return false;
  }
  return true;
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  std::string error;
  if (auto conn = eadp::ClientConnection::Connect("127.0.0.1", port_, &error)) {
    eadp::ErrorResponse err;
    conn->Shutdown(&err);
  }
  auto deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < deadline) {
    if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
}

double ServerProcess::CpuSeconds() const {
  // Nanosecond on-CPU time of every live thread (/proc/<pid>/task/*/
  // schedstat); /proc/<pid>/stat counts in 10 ms ticks, too coarse for a
  // per-request figure. The server's threads live for the whole window.
  std::error_code ec;
  double ns = 0;
  for (const auto& task : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(pid_) + "/task", ec)) {
    std::ifstream in(task.path() / "schedstat");
    double on_cpu = 0;
    if (in >> on_cpu) ns += on_cpu;
  }
  return ns / 1e9;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

double JsonNumber(const std::string& json, const std::string& section,
                  const std::string& key) {
  size_t from = 0;
  if (!section.empty()) {
    from = json.find(section);
    if (from == std::string::npos) return 0;
  }
  std::string needle = "\"" + key + "\":";
  size_t at = json.find(needle, from);
  if (at == std::string::npos) return 0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

std::vector<std::string> ServerArgs(const WorkloadConfig& config,
                                    const std::string& persistent_dir) {
  std::vector<std::string> args = {
      "--pool-threads", std::to_string(config.pool_threads),
      "--cache-capacity", std::to_string(config.cache_capacity)};
  if (config.persistent_tier) {
    args.insert(args.end(), {"--persistent-dir", persistent_dir});
  }
  if (config.drift_tolerance > 0) {
    char tol[32];
    std::snprintf(tol, sizeof(tol), "%g", config.drift_tolerance);
    args.insert(args.end(), {"--drift-tolerance", tol});
  }
  if (config.replan_threads > 0) {
    args.insert(args.end(),
                {"--replan-threads", std::to_string(config.replan_threads)});
  }
  return args;
}

bool StartAndSetUp(const WorkloadConfig& config, const std::string& binary,
                   const std::string& persistent_dir, LiveServer* server,
                   std::vector<ServedPlan>* setup_plans, std::string* error) {
  if (!server->process.Start(binary, ServerArgs(config, persistent_dir),
                             error)) {
    return false;
  }
  for (int c = 0; c < config.connections; ++c) {
    auto conn = eadp::ClientConnection::Connect(
        "127.0.0.1", server->process.port(), error);
    if (!conn) return false;
    eadp::ErrorResponse err;
    if (!conn->OpenSession(SessionName(c), eadp::PlannerKnobs{}, &err)) {
      *error = "OpenSession failed: " + err.message;
      return false;
    }
    server->conns.push_back(std::move(conn));
  }
  // Setup pass: every connection plans its setup specs once, concurrently.
  std::vector<ConnLog> logs(static_cast<size_t>(config.connections));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < config.connections; ++c) {
    threads.emplace_back([&, c] {
      ConnLog& log = logs[static_cast<size_t>(c)];
      log.conn = c;
      eadp::ClientConnection* conn =
          server->conns[static_cast<size_t>(c)].get();
      for (const std::string& spec : SetupSpecs(config, c)) {
        Reply reply;
        if (!conn->Send(eadp::Opcode::kOptimize,
                        eadp::EncodeOptimize({SessionName(c), spec})) ||
            !ReadOptimizeReply(conn, &reply) || !reply.ok) {
          failures.fetch_add(1);
          return;
        }
        log.AddPlan(spec, 0, &reply);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (failures.load() != 0) {
    *error = "setup pass failed";
    return false;
  }
  if (setup_plans != nullptr) {
    for (ConnLog& log : logs) {
      for (ServedPlan& p : log.part.plans) setup_plans->push_back(std::move(p));
    }
  }
  return true;
}

PassResult RunPass(const WorkloadConfig& config, uint64_t seed,
                   double seconds, uint64_t max_requests,
                   LiveServer* server) {
  const int conns = config.connections;
  std::vector<ConnLog> logs(static_cast<size_t>(conns));
  std::vector<std::thread> threads;
  std::vector<Clock::time_point> last_reply(static_cast<size_t>(conns));
  double cpu0 = server->process.CpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));

  for (int c = 0; c < conns; ++c) {
    ConnLog& log = logs[static_cast<size_t>(c)];
    log.conn = c;
    log.part.plan_of_request.resize(1);
    log.part.rtt_us_by_index.resize(1);
    log.part.class_ms.resize(kColdClasses);
  }

  auto since_start = [start](Clock::time_point t) {
    return std::chrono::duration<double>(t - start).count();
  };
  auto record_optimize = [](ConnLog& log, uint64_t index, const Request& r,
                            uint32_t version, Reply* reply, double latency_ms,
                            double rtt_us, double at_s) {
    if (!reply->ok) {
      ++log.part.failed;
      log.part.plan_of_request[0].push_back(SIZE_MAX);
      return;
    }
    ++log.part.optimize_done;
    log.part.optimize_ms.push_back(latency_ms);
    log.part.optimize_at_s.push_back(at_s);
    log.part.rtt_us.push_back(rtt_us);
    std::vector<double>& by_index = log.part.rtt_us_by_index[0];
    if (by_index.size() <= index) by_index.resize(index + 1, std::nan(""));
    by_index[index] = rtt_us;
    log.part.reply_bytes.push_back(static_cast<double>(reply->bytes));
    if (r.cls >= 0) {
      log.part.class_ms[static_cast<size_t>(r.cls)].push_back(latency_ms);
    }
    log.part.plan_of_request[0].push_back(
        log.AddPlan(r.spec, version, reply));
  };

  // One request in flight per connection. A paced stream (rate > 0) sends
  // each request at its due time, or as soon as the previous reply is in
  // if that is later; the lateness is recorded beside the latencies.
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      ConnLog& log = logs[static_cast<size_t>(c)];
      eadp::ClientConnection* conn =
          server->conns[static_cast<size_t>(c)].get();
      FrameStream stream(config, seed, c);
      for (uint64_t i = 0; max_requests == 0 || i < max_requests; ++i) {
        eadp::Opcode op;
        std::string payload;
        uint32_t version;
        Request r = stream.Next(i, &op, &payload, &version);
        if (config.rate > 0) {
          if (r.due_s >= seconds) break;
          Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(r.due_s));
          std::this_thread::sleep_until(due);
          log.part.late_ms.push_back(MsBetween(due, Clock::now()));
        } else if (Clock::now() >= end) {
          break;
        }
        ++log.part.attempted;
        Reply reply;
        bool ok = false;
        Clock::time_point t0 = Clock::now();
        bool transport = conn->Send(op, payload) &&
                         (r.set_stats ? ReadAck(conn, &ok)
                                      : ReadOptimizeReply(conn, &reply));
        Clock::time_point t1 = Clock::now();
        if (!transport) {
          ++log.part.failed;
          break;
        }
        last_reply[static_cast<size_t>(c)] = t1;
        double ms = MsBetween(t0, t1);
        if (!r.set_stats) {
          record_optimize(log, i, r, version, &reply, ms, ms * 1000.0,
                          since_start(t1));
        } else if (ok) {
          ++log.part.setstats_done;
          log.part.setstats_ms.push_back(ms);
        } else {
          ++log.part.failed;
        }
      }
      log.part.overrides = std::move(*stream.overrides());
    });
  }
  for (std::thread& t : threads) t.join();

  PassResult result;
  Clock::time_point last = start;
  for (const Clock::time_point& t : last_reply) last = std::max(last, t);
  if (last == start) last = end;
  result.window_s = std::chrono::duration<double>(last - start).count();
  result.server_cpu_s = server->process.CpuSeconds() - cpu0;
  Merge(&logs, &result);
  return result;
}

bool FetchStats(LiveServer* server, std::string* json) {
  if (server->conns.empty()) return false;
  eadp::ErrorResponse err;
  return server->conns[0]->StatsJson("", json, &err);
}

void TearDown(LiveServer* server) {
  server->conns.clear();
  server->process.Stop();
}

}  // namespace perfbench
