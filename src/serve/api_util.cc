#include "serve/api_util.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "serve/metrics.h"

namespace focus::serve {

std::string HashHex(uint64_t hash) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
  return buf;
}

bool ParseHashHex(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 16) return false;
  uint64_t value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return false;
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  *out = value;
  return true;
}

bool ResolveDeviationChoice(const std::string& f_name,
                            const std::string& g_name,
                            DeviationChoice* choice) {
  if (f_name == "abs") {
    choice->fn.f = core::AbsoluteDiff();
  } else if (f_name == "scaled") {
    choice->fn.f = core::ScaledDiff();
  } else {
    return false;
  }
  if (g_name == "sum") {
    choice->fn.g = core::AggregateKind::kSum;
  } else if (g_name == "max") {
    choice->fn.g = core::AggregateKind::kMax;
  } else {
    return false;
  }
  choice->f_name = f_name;
  choice->g_name = g_name;
  return true;
}

std::string StatusJson(const StreamStatus& status) {
  std::string out = "\"processed\":" + std::to_string(status.processed);
  out += ",\"has_snapshot\":";
  out += status.has_snapshot ? "true" : "false";
  if (status.has_snapshot) {
    out += ",\"seq\":" + std::to_string(status.sequence);
    out += ",\"n\":" + std::to_string(status.num_transactions);
    out += ",\"delta_star\":" + JsonNumber(status.delta_star);
    out += ",\"screened_out\":";
    out += status.screened_out ? "true" : "false";
    if (!status.screened_out) {
      out += ",\"delta\":" + JsonNumber(status.deviation);
      out += ",\"sig_pct\":" + JsonNumber(status.significance_percent);
    }
    out += ",\"alert\":";
    out += status.alert ? "true" : "false";
    out += ",\"cusum\":" + JsonNumber(status.cusum);
    out += ",\"change_point\":";
    out += status.change_point ? "true" : "false";
    out += ",\"baseline_ready\":";
    out += status.baseline_ready ? "true" : "false";
    if (status.baseline_ready) {
      out += ",\"baseline_mean\":" + JsonNumber(status.baseline_mean);
      out += ",\"baseline_sd\":" + JsonNumber(status.baseline_sd);
    }
  }
  return out;
}

SummaryResult AggregateSummary(std::vector<SummaryEntry>* entries,
                               core::AggregateKind g) {
  std::sort(entries->begin(), entries->end(),
            [](const SummaryEntry& a, const SummaryEntry& b) {
              return a.stream < b.stream;
            });
  SummaryResult result;
  result.num_streams = static_cast<int64_t>(entries->size());
  std::vector<double> values;
  values.reserve(entries->size());
  for (const SummaryEntry& entry : *entries) {
    if (entry.has_deviation) values.push_back(entry.deviation);
  }
  result.num_values = static_cast<int64_t>(values.size());
  if (!values.empty()) {
    result.has_aggregate = true;
    result.aggregate = core::AggregateValues(g, values);
  }
  return result;
}

std::string SummaryJson(const std::string& f_name, const std::string& g_name,
                        const std::vector<SummaryEntry>& sorted_entries,
                        const SummaryResult& result) {
  std::string out = "{\"f\":\"" + f_name + "\",\"g\":\"" + g_name + "\"";
  out += ",\"num_streams\":" + std::to_string(result.num_streams);
  out += ",\"num_values\":" + std::to_string(result.num_values);
  if (result.has_aggregate) {
    out += ",\"aggregate\":" + JsonNumber(result.aggregate);
  }
  out += ",\"per_stream\":[";
  bool first = true;
  for (const SummaryEntry& entry : sorted_entries) {
    if (!first) out += ",";
    first = false;
    out += "{\"stream\":\"" + JsonEscape(entry.stream) + "\"";
    if (entry.has_deviation) {
      out += ",\"deviation\":" + JsonNumber(entry.deviation);
    }
    out += "}";
  }
  out += "]}\n";
  return out;
}

}  // namespace focus::serve
