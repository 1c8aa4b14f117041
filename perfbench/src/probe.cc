#include "probe.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <unordered_map>

namespace perfbench {

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A fixed amount of work (about 2 ms on the reference guest) shaped like
/// the planner's: hashing into a node map, sorting, small allocations.
/// Its working set fits a core's private caches.
uint64_t Kernel(uint64_t round) {
  uint64_t sum = 0;
  std::unordered_map<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 8000; ++i) map[Mix(i + round)] = i;
  for (uint64_t i = 0; i < 16000; ++i) {
    auto it = map.find(Mix(i + round));
    if (it != map.end()) sum += it->second;
  }
  std::vector<uint64_t> keys(8000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = Mix(i * 7 + round);
  std::sort(keys.begin(), keys.end());
  sum += keys[77];
  std::vector<std::string*> strings;
  for (uint64_t i = 0; i < 2000; ++i) {
    strings.push_back(new std::string(8 + Mix(i + round) % 100, 'a'));
  }
  for (std::string* s : strings) {
    sum += s->size();
    delete s;
  }
  return sum;
}

/// (steal, total) CPU ticks of the whole guest, from /proc/stat.
std::pair<double, double> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0, steal = 0, v;
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

/// Nanoseconds this thread has waited on a run queue
/// (/proc/thread-self/schedstat, second field); 0 when unavailable.
double RunDelayNs() {
  std::ifstream in("/proc/thread-self/schedstat");
  double on_cpu = 0, waited = 0;
  in >> on_cpu >> waited;
  return waited;
}

}  // namespace

HostProbe::HostProbe() : thread_([this] { Loop(); }) {}

HostProbe::~HostProbe() {
  stop_.store(true);
  thread_.join();
}

void HostProbe::Loop() {
  volatile uint64_t sink = 0;
  for (uint64_t round = 0; !stop_.load(); ++round) {
    const double waited0 = RunDelayNs();
    const Clock::time_point t0 = Clock::now();
    sink = sink + Kernel(round);
    const Clock::time_point t1 = Clock::now();
    const double waited_us = (RunDelayNs() - waited0) / 1e3;
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() -
        waited_us;
    const auto [steal, total] = CpuTicks();
    {
      std::lock_guard<std::mutex> lock(mu_);
      samples_.push_back({t0, us, steal, total});
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
}

std::pair<double, size_t> HostProbe::Median(
    const std::vector<Span>& spans) const {
  std::vector<double> v;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Sample& s : samples_) {
      for (const auto& [from, to] : spans) {
        if (s.at >= from && s.at <= to) {
          v.push_back(s.us);
          break;
        }
      }
    }
  }
  if (v.empty()) return {kReferenceProbeUs, 0};
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return {v[v.size() / 2], v.size()};
}

double HostProbe::StealShare(const Span& span) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Sample* first = nullptr;
  const Sample* last = nullptr;
  for (const Sample& s : samples_) {
    if (s.at < span.first || s.at > span.second) continue;
    if (first == nullptr) first = &s;
    last = &s;
  }
  if (first == nullptr || last->total_ticks <= first->total_ticks) return 0;
  return (last->steal_ticks - first->steal_ticks) /
         (last->total_ticks - first->total_ticks);
}

}  // namespace perfbench
