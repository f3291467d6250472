#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {
namespace trace {

/// One closed span. Spans nest per thread: `parent` is the span that was
/// open on the same thread when this one started (0 = root).
struct SpanRecord {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  /// Request the span belongs to (0 = none): spans of one request share it.
  uint64_t request = 0;
};

/// Per-name aggregate over the recorded spans.
struct LayerTimes {
  int64_t calls = 0;
  /// Summed span durations.
  double total_us = 0.0;
  /// Summed self time: each span's duration minus the part of its interval
  /// covered by its child spans.
  double self_us = 0.0;
};

/// Turns recording on or off for the whole process. Off, Span and Count
/// cost one relaxed load each and record nothing.
void SetEnabled(bool enabled);
bool Enabled();

/// Drops every recorded span and count (between a workload's passes).
void Reset();

/// Sets the request id the calling thread's next spans are tagged with.
void SetRequest(uint64_t request);

/// Tags every span this thread recorded since its last Claim with
/// `request`, then starts a new claim window. For spans recorded inside
/// library calls the benchmark cannot tag up front (a serving worker's
/// snapshot acquire): the completion callback, which runs on the same
/// worker right after the call, claims them.
void Claim(uint64_t request);

/// Scoped span around one call into a layer. `name` must be a string
/// literal (it is stored by pointer).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ns_ = 0;
};

/// Adds `value` to the named counter (recorded only while enabled).
/// `name` must be a string literal.
void Count(const char* name, double value);

/// Every span recorded so far, across all threads, ordered by start time.
std::vector<SpanRecord> Spans();

/// Summed counter values and the number of Count calls per name.
struct Counter {
  double sum = 0.0;
  int64_t events = 0;
};
std::map<std::string, Counter> Counters();

/// Per-name durations and self times over `spans`.
std::map<std::string, LayerTimes> AggregateLayers(
    const std::vector<SpanRecord>& spans);

/// Writes the spans as JSON lines (one object per span) to `path`.
bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path);

/// Monotonic nanoseconds, the clock spans are stamped with.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace trace
}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
