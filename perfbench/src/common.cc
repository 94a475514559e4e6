#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>

#include "workload.h"

namespace focus::perfbench {

// Child spans must cover at least this share of each op's wall time.
constexpr double kAccountingTolerance = 0.02;

void ReportAccounting(const std::vector<SpanRecord>& spans,
                      const std::string& op_name, Report* report) {
  const std::vector<double> coverage = ChildCoverage(spans, op_name);
  if (coverage.empty()) return;
  const double lowest = *std::min_element(coverage.begin(), coverage.end());
  auto& layer = report->per_layer;
  // Over every op kind checked: the lowest median coverage, and whether
  // every single op stayed within the tolerance.
  const double median_pct = Median(coverage) * 100.0;
  const auto pct = layer.find("bench.span_coverage_pct");
  layer["bench.span_coverage_pct"] =
      pct == layer.end() ? median_pct : std::min(pct->second, median_pct);
  const double ok = lowest >= 1.0 - kAccountingTolerance ? 1.0 : 0.0;
  const auto within = layer.find("bench.accounting_ok");
  layer["bench.accounting_ok"] =
      within == layer.end() ? ok : std::min(within->second, ok);
}

void ReportSelfTimes(const std::map<std::string, SpanSummary>& summary,
                     Report* report) {
  for (const auto& [name, spans] : summary) {
    report->self_ms[name] = {Median(spans.self_ms),
                             static_cast<int64_t>(spans.self_ms.size())};
  }
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // 5: reset the peak resident set size
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return std::nan("");
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over (seed, stream): distinct, well-mixed, never 0 in
  // practice (generators treat 0 as "derive").
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

}  // namespace focus::perfbench
