// Host-speed probe: the yardstick the end-to-end timings are scaled by.
//
// On a shared virtual machine the speed the host gives this guest drifts
// by +-25% over minutes (neighbours on the same cores, caches and memory),
// and every timing of a run moves with it. The probe runs a fixed kernel
// of the benchmark's own (hash-map inserts and finds, a sort, small heap
// allocations; no program code) on a thread of its own, once every
// 40 ms, all through the run. Each sample is the kernel's wall time minus
// the time its thread waited on the guest's run queue: time the guest
// scheduler gave the program's threads is not counted, so a program that
// needs more CPU does not slow the probe; time the hypervisor took from
// the guest is counted, as it is in the program's latencies.
//
// A time measured while the probe's median sample read `probe_us` is
// reported at the reference speed as time * kReferenceProbeUs / probe_us,
// a rate as rate * probe_us / kReferenceProbeUs.
//
// Each sample also reads the guest's steal counter (/proc/stat), so the
// share of CPU time the hypervisor took can be told for any span of the
// run.

#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

/// The probe's median sample on the host speed all scaled figures are
/// reported at (about this benchmark's 4-vCPU reference guest when idle).
inline constexpr double kReferenceProbeUs = 2000;

class HostProbe {
 public:
  using Clock = std::chrono::steady_clock;

  HostProbe();   ///< starts sampling
  ~HostProbe();  ///< stops and joins the sampling thread

  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  using Span = std::pair<Clock::time_point, Clock::time_point>;

  /// Median sample (us) over the samples that started inside any of
  /// `spans`, and how many there were; 0 samples give kReferenceProbeUs
  /// (scale 1).
  std::pair<double, size_t> Median(const std::vector<Span>& spans) const;
  std::pair<double, size_t> Median(Clock::time_point from,
                                   Clock::time_point to) const {
    return Median(std::vector<Span>{{from, to}});
  }
  /// Share of all CPU time over `span` that the hypervisor stole from the
  /// guest (between the first and the last sample inside it; 0 if fewer
  /// than two).
  double StealShare(const Span& span) const;

 private:
  struct Sample {
    Clock::time_point at;
    double us = 0;
    double steal_ticks = 0, total_ticks = 0;
  };
  void Loop();

  mutable std::mutex mu_;
  std::vector<Sample> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
