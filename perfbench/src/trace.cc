#include "trace.h"

#include <atomic>
#include <cstdio>

namespace perfbench {

uint64_t Tracer::NextId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

Tracer::Buffer* Tracer::Local() {
  thread_local uint64_t cached_id = 0;
  thread_local Buffer* cached = nullptr;
  if (cached_id == id_) return cached;
  std::lock_guard<std::mutex> lock(mu_);
  Buffer*& slot = by_thread_[std::this_thread::get_id()];
  if (slot == nullptr) {
    buffers_.push_back(std::make_unique<Buffer>());
    slot = buffers_.back().get();
    slot->thread = static_cast<int32_t>(buffers_.size() - 1);
    slot->spans.reserve(1 << 16);
  }
  cached_id = id_;
  cached = slot;
  return slot;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Buffer* b = tracer_->Local();
  Span s;
  s.name = name;
  s.parent = b->open.empty() ? -1 : b->open.back();
  s.thread = b->thread;
  s.request = b->request;
  index_ = static_cast<int32_t>(b->spans.size());
  b->spans.push_back(s);
  b->open.push_back(index_);
  b->spans.back().start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  int64_t end = NowNs();
  Buffer* b = tracer_->Local();
  b->spans[static_cast<size_t>(index_)].end_ns = end;
  b->open.pop_back();
}

void Tracer::SetRequest(uint64_t request) { Local()->request = request; }

void Tracer::AddAggregate(const char* name, int64_t duration_ns) {
  Buffer* b = Local();
  Span s;
  s.name = name;
  s.parent = b->open.empty() ? -1 : b->open.back();
  s.thread = b->thread;
  s.request = b->request;
  s.start_ns = s.parent >= 0 ? b->spans[static_cast<size_t>(s.parent)].start_ns
                             : NowNs();
  s.end_ns = s.start_ns + duration_ns;
  b->spans.push_back(s);
}

std::vector<Span> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    int32_t base = static_cast<int32_t>(all.size());
    for (Span s : b->spans) {
      if (s.parent >= 0) s.parent += base;
      all.push_back(s);
    }
  }
  return all;
}

std::map<std::string, LayerStats> ReduceSpans(const std::vector<Span>& spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, LayerStats> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    LayerStats& l = out[s.name];
    double dur = static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    double self = static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                  1000.0;
    l.duration_us.push_back(dur);
    l.self_us.push_back(self);
    l.self_total_us += self;
  }
  return out;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"request\":%llu,"
                 "\"thread\":%d}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request), s.thread);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
