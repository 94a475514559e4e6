#ifndef FOCUS_PERFBENCH_WORKLOAD_H_
#define FOCUS_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace focus::perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";  // block files and the span dump go here
};

// What one workload run reports. End-to-end metrics are filled from the
// untraced window; per-layer metrics from the traced one (trace runs only).
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::map<std::string, int64_t> samples;  // sample count per percentile
  // Trace runs: per span name, the median self time of one span (its
  // duration minus what its child spans cover) and the span count.
  std::map<std::string, std::pair<double, int64_t>> self_ms;
  std::vector<std::string> errors;         // first few wrong answers

  // A wrong answer or a broken run: the run is incorrect.
  void Wrong(const std::string& what) {
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
  // A failed op (an error or a wrong answer): counted, and the run is
  // incorrect.
  void Fail(const std::string& what) {
    ++failed;
    Wrong(what);
  }
};

// Set-up repeats per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

// Splits a trace run's window: the first half untraced (the baseline for
// the tracing overhead), the second half traced.
struct Window {
  double untraced_s = 0.0;
  double traced_s = 0.0;
};
inline Window SplitWindow(const RunConfig& config) {
  if (!config.trace) return {config.seconds, 0.0};
  return {config.seconds / 2.0, config.seconds / 2.0};
}

// Fills the bench.* accounting metrics from the traced spans: how well the
// child spans of each `op_name` span cover its wall time.
void ReportAccounting(const std::vector<SpanRecord>& spans,
                      const std::string& op_name, Report* report);

// Fills report->self_ms from the traced spans.
void ReportSelfTimes(const std::map<std::string, SpanSummary>& summary,
                     Report* report);

// Returns freed heap to the system and resets this process's VmHWM to its
// current resident set, so PeakRssMib() covers only what runs after it
// (the timed window, not set-up or the reference answers). False when the
// kernel does not allow the reset.
bool ResetPeakRss();

// Peak resident set (VmHWM) of this process, MiB.
double PeakRssMib();

// Seeds derived from the run seed, one per named input stream.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

Report RunBatchCompare(const RunConfig& config);
Report RunOocCompare(const RunConfig& config);
Report RunServe(const RunConfig& config, bool sharded);

}  // namespace focus::perfbench

#endif  // FOCUS_PERFBENCH_WORKLOAD_H_
