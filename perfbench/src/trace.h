// In-memory span recorder for the traced replay.
//
// A span is (name, start, end, parent span, request id, thread). Spans are
// opened and closed around public calls into the program's layers by the
// benchmark's own code (replica.h); nothing inside the program is
// instrumented. Each thread appends to its own buffer, so recording takes
// no lock; buffers are merged when the run ends, written out as JSON
// lines, and reduced to per-layer statistics. A layer's self time is its
// span's duration minus the durations of its child spans.
//
// A null Tracer* turns every Scope into a no-op with no clock reads — the
// untraced replay runs the identical code path, which is how the tracing
// overhead is measured.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = nullptr;  ///< static string, the layer-qualified name
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index in the same thread's buffer, -1 = root
  int32_t thread = 0;
  uint64_t request = 0;
};

class Tracer {
 public:
  /// RAII span around one call. Nested scopes on one thread become
  /// children of the innermost open scope.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
  };

  /// Sets the request id stamped on spans this thread opens from now on.
  void SetRequest(uint64_t request);

  /// Records an already-measured child of the innermost open scope whose
  /// time is the sum of many short intervals (e.g. the DP combine calls
  /// interleaved with enumeration). Laid out at the parent's start.
  void AddAggregate(const char* name, int64_t duration_ns);

  /// All spans of all threads (buffers merged; parent indices rebased).
  std::vector<Span> Collect();

 private:
  struct Buffer {
    int32_t thread = 0;
    uint64_t request = 0;
    std::vector<Span> spans;
    std::vector<int32_t> open;  ///< stack of open span indices
  };
  Buffer* Local();

  const uint64_t id_ = NextId();  ///< keys the per-thread buffer cache
  static uint64_t NextId();

  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::map<std::thread::id, Buffer*> by_thread_;
};

/// Per-name reduction of a span set.
struct LayerStats {
  std::vector<double> duration_us;  ///< one entry per span
  std::vector<double> self_us;
  double self_total_us = 0;
};
std::map<std::string, LayerStats> ReduceSpans(const std::vector<Span>& spans);

/// Writes spans as JSON lines (one object per span).
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
