#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace trace {
namespace {

/// One thread's recording state. Owned by the registry, so it outlives the
/// thread (serving workers are joined before the spans are read).
struct Buffer {
  std::mutex mu;
  std::vector<SpanRecord> spans;
  size_t claim_from = 0;
  uint64_t request = 0;
  std::vector<uint64_t> open;  // ids of this thread's open spans
  std::unordered_map<const char*, Counter> counters;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::mutex g_registry_mu;
std::vector<std::unique_ptr<Buffer>>& Registry() {
  static auto* registry = new std::vector<std::unique_ptr<Buffer>>();
  return *registry;
}

Buffer& Local() {
  thread_local Buffer* local = nullptr;
  if (local == nullptr) {
    auto owned = std::make_unique<Buffer>();
    local = owned.get();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    Registry().push_back(std::move(owned));
  }
  return *local;
}

}  // namespace

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Reset() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buffer : Registry()) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->spans.clear();
    buffer->claim_from = 0;
    buffer->counters.clear();
  }
}

void SetRequest(uint64_t request) {
  if (!Enabled()) return;
  Buffer& buffer = Local();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.request = request;
}

void Claim(uint64_t request) {
  if (!Enabled()) return;
  Buffer& buffer = Local();
  std::lock_guard<std::mutex> lock(buffer.mu);
  for (size_t k = buffer.claim_from; k < buffer.spans.size(); ++k) {
    if (buffer.spans[k].request == 0) buffer.spans[k].request = request;
  }
  buffer.claim_from = buffer.spans.size();
}

Span::Span(const char* name) : name_(name) {
  if (!Enabled()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  Buffer& buffer = Local();
  {
    std::lock_guard<std::mutex> lock(buffer.mu);
    parent_ = buffer.open.empty() ? 0 : buffer.open.back();
    buffer.open.push_back(id_);
  }
  start_ns_ = NowNs();
}

Span::~Span() {
  if (id_ == 0) return;
  const int64_t end_ns = NowNs();
  Buffer& buffer = Local();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.open.pop_back();
  buffer.spans.push_back(
      {name_, start_ns_, end_ns, id_, parent_, buffer.request});
}

void Count(const char* name, double value) {
  if (!Enabled()) return;
  Buffer& buffer = Local();
  std::lock_guard<std::mutex> lock(buffer.mu);
  Counter& counter = buffer.counters[name];
  counter.sum += value;
  ++counter.events;
}

std::vector<SpanRecord> Spans() {
  std::vector<SpanRecord> all;
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    for (const auto& buffer : Registry()) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return all;
}

std::map<std::string, Counter> Counters() {
  std::map<std::string, Counter> merged;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buffer : Registry()) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    for (const auto& [name, counter] : buffer->counters) {
      Counter& into = merged[name];
      into.sum += counter.sum;
      into.events += counter.events;
    }
  }
  return merged;
}

std::map<std::string, LayerTimes> AggregateLayers(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, LayerTimes> layers;
  for (const SpanRecord& span : spans) {
    const int64_t duration = span.end_ns - span.start_ns;
    int64_t covered = 0;
    const auto it = children.find(span.id);
    if (it != children.end()) {
      // Union of the child intervals clipped to the parent's.
      std::vector<std::pair<int64_t, int64_t>> intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t run_start = 0;
      int64_t run_end = -1;
      for (auto [start, end] : intervals) {
        start = std::max(start, span.start_ns);
        end = std::min(end, span.end_ns);
        if (end <= start) continue;
        if (start > run_end) {
          if (run_end > run_start) covered += run_end - run_start;
          run_start = start;
          run_end = end;
        } else {
          run_end = std::max(run_end, end);
        }
      }
      if (run_end > run_start) covered += run_end - run_start;
    }
    LayerTimes& layer = layers[span.name];
    ++layer.calls;
    layer.total_us += static_cast<double>(duration) / 1e3;
    layer.self_us += static_cast<double>(duration - covered) / 1e3;
  }
  return layers;
}

bool WriteSpans(const std::vector<SpanRecord>& spans,
                const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const SpanRecord& span : spans) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                 span.name, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request));
  }
  return std::fclose(out) == 0;
}

}  // namespace trace
}  // namespace perfbench
