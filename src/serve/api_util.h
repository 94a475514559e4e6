#ifndef FOCUS_SERVE_API_UTIL_H_
#define FOCUS_SERVE_API_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/functions.h"
#include "serve/monitor_service.h"

namespace focus::serve {

// Helpers behind serve::HttpApi and its two backends (LocalBackend and
// shard::ShardRouter). Both backends fold summaries through the same
// AggregateSummary, which is what lets the shard law checker demand
// bit-identical answers.

// 16-digit lowercase hex of a content hash, and its inverse.
std::string HashHex(uint64_t hash);
bool ParseHashHex(const std::string& text, uint64_t* out);

// A validated (f,g) choice: the names ?f=abs|scaled&g=sum|max spelled and
// the deviation function they select. Backends evaluate `fn` directly or
// forward the names (the shard wire carries them as codes).
struct DeviationChoice {
  std::string f_name = "abs";
  std::string g_name = "sum";
  core::DeviationFunction fn;
};

// Fills `choice` from an f and a g name; false when either is unknown.
bool ResolveDeviationChoice(const std::string& f_name,
                            const std::string& g_name,
                            DeviationChoice* choice);

// The shared JSON fragment for one stream's status (no surrounding
// braces).
std::string StatusJson(const StreamStatus& status);

// One stream's contribution to a cross-stream aggregate.
struct SummaryEntry {
  std::string stream;
  bool has_deviation = false;
  double deviation = 0.0;
};

struct SummaryResult {
  int64_t num_streams = 0;  // entries seen
  int64_t num_values = 0;   // entries contributing a deviation
  bool has_aggregate = false;
  double aggregate = 0.0;
};

// Canonical cross-stream aggregate: sorts `entries` by stream name in
// place and folds the deviations in that order with core::AggregateValues.
// Both the single-node /v1/deviation/summary handler and the sharded
// scatter-gather merge call exactly this function — sorting before the
// fold is what makes the distributed g_sum bit-identical (floating-point
// addition is order-sensitive; max would merge in any order, sum will
// not).
SummaryResult AggregateSummary(std::vector<SummaryEntry>* entries,
                               core::AggregateKind g);

// Renders the /v1/deviation/summary response body from an aggregate and
// its (already sorted) entries.
std::string SummaryJson(const std::string& f_name, const std::string& g_name,
                        const std::vector<SummaryEntry>& sorted_entries,
                        const SummaryResult& result);

}  // namespace focus::serve

#endif  // FOCUS_SERVE_API_UTIL_H_
