#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace focus::perfbench {
namespace {

thread_local int64_t current_span = 0;
thread_local int64_t current_op = 0;

// Length of the union of [start, end) intervals clipped to [lo, hi).
double CoveredMs(std::vector<std::pair<double, double>> intervals, double lo,
                 double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

std::unordered_map<int64_t, std::vector<const SpanRecord*>> ChildrenOf(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<int64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  return children;
}

double ChildCoveredMs(
    const SpanRecord& span,
    const std::unordered_map<int64_t, std::vector<const SpanRecord*>>&
        children) {
  const auto it = children.find(span.id);
  if (it == children.end()) return 0.0;
  std::vector<std::pair<double, double>> intervals;
  intervals.reserve(it->second.size());
  for (const SpanRecord* child : it->second) {
    intervals.emplace_back(child->start_ms, child->end_ms);
  }
  return CoveredMs(std::move(intervals), span.start_ms, span.end_ms);
}

}  // namespace

double NowMs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Record(SpanRecord record) {
  common::MutexLock lock(&mu_);
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::Take() {
  common::MutexLock lock(&mu_);
  return std::exchange(spans_, {});
}

Span::Span(const char* name, int64_t op, int64_t parent) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  active_ = true;
  record_.name = name;
  record_.id = tracer.NextId();
  record_.parent = parent >= 0 ? parent : current_span;
  record_.op = op >= 0 ? op : current_op;
  saved_current_ = current_span;
  current_span = record_.id;
  record_.start_ms = NowMs();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ms = NowMs();
  current_span = saved_current_;
  Tracer::Get().Record(std::move(record_));
}

void SetCurrentOp(int64_t op) { current_op = op; }

std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<SpanRecord>& spans) {
  const auto children = ChildrenOf(spans);
  std::map<std::string, SpanSummary> summary;
  for (const SpanRecord& span : spans) {
    SpanSummary& entry = summary[span.name];
    entry.ms.push_back(span.ms());
    entry.self_ms.push_back(span.ms() - ChildCoveredMs(span, children));
  }
  return summary;
}

double MedianMs(const std::map<std::string, SpanSummary>& summary,
                const std::string& name) {
  const auto it = summary.find(name);
  return it == summary.end() ? std::nan("") : Median(it->second.ms);
}

std::vector<double> ChildCoverage(const std::vector<SpanRecord>& spans,
                                  const std::string& op_name) {
  const auto children = ChildrenOf(spans);
  std::vector<double> coverage;
  for (const SpanRecord& span : spans) {
    if (span.name != op_name || span.ms() <= 0.0) continue;
    coverage.push_back(ChildCoveredMs(span, children) / span.ms());
  }
  return coverage;
}

void WriteSpans(const std::vector<SpanRecord>& spans,
                const std::string& path) {
  std::ofstream out(path);
  char line[512];
  for (const SpanRecord& span : spans) {
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,\"op\":%lld,"
                  "\"start_ms\":%.4f,\"end_ms\":%.4f}\n",
                  span.name.c_str(), static_cast<long long>(span.id),
                  static_cast<long long>(span.parent),
                  static_cast<long long>(span.op), span.start_ms,
                  span.end_ms);
    out << line;
  }
  out.flush();
  if (!out) std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace focus::perfbench
