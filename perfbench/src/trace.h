#ifndef FOCUS_PERFBENCH_TRACE_H_
#define FOCUS_PERFBENCH_TRACE_H_

// Spans recorded by the benchmark around each call it makes into a layer's
// public functions. Nothing here reaches inside the library: a span opens
// before the call and closes after it returns.
//
// A span records its name, start and end (ms on one steady clock), the
// span that caused it, and the id of the op (iteration or HTTP request) it
// belongs to. Spans stay in memory until the run ends. Recording is off
// unless Tracer::SetEnabled(true); a disabled Span costs one relaxed load.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace focus::perfbench {

// Milliseconds since the first call in this process, on steady_clock.
double NowMs();

struct SpanRecord {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  int64_t op = 0;      // iteration or request id; 0 = set-up

  double ms() const { return end_ms - start_ms; }
};

class Tracer {
 public:
  static Tracer& Get();

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  int64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(SpanRecord record) EXCLUDES(mu_);
  // Every span recorded so far, in no particular order.
  std::vector<SpanRecord> Take() EXCLUDES(mu_);

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> next_id_{1};
  // Spans are appended under one lock; the benchmark records at most a few
  // per op, so contention stays far below the ops' own cost.
  common::Mutex mu_;
  std::vector<SpanRecord> spans_ GUARDED_BY(mu_);
};

// RAII span. The parent defaults to the innermost open span on this thread;
// pass `parent` to link a span to one opened on another thread (the HTTP
// handler span to the client's request span).
class Span {
 public:
  explicit Span(const char* name, int64_t op = -1, int64_t parent = -1);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int64_t id() const { return record_.id; }

 private:
  SpanRecord record_;
  int64_t saved_current_ = 0;
  bool active_ = false;
};

// Runs `body` inside a span named `name` and returns its result.
template <typename F>
auto Traced(const char* name, F&& body) {
  Span span(name);
  return body();
}

// The op id spans on this thread inherit when none is given.
void SetCurrentOp(int64_t op);

// Per span name over a set of spans: durations and self times (duration
// minus the part of its interval that child spans cover).
struct SpanSummary {
  std::vector<double> ms;
  std::vector<double> self_ms;
};
std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<SpanRecord>& spans);

// Median duration of the spans named `name`; NaN (not measured) when there
// are none.
double MedianMs(const std::map<std::string, SpanSummary>& summary,
                const std::string& name);

// How well the children of each span named `op_name` cover its wall time:
// one ratio (covered / wall) per op span.
std::vector<double> ChildCoverage(const std::vector<SpanRecord>& spans,
                                  const std::string& op_name);

// Writes spans as JSON lines to `path` (a note on stderr when it cannot).
void WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path);

// Linear-interpolated quantile (q in [0,1]) of `values`; NaN (not measured)
// when empty, so an op that produced no samples reports no metric.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

}  // namespace focus::perfbench

#endif  // FOCUS_PERFBENCH_TRACE_H_
