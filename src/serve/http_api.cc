#include "serve/http_api.h"

#include <map>
#include <utility>
#include <vector>

namespace focus::serve {
namespace {

constexpr size_t kMaxStreamName = 128;

bool ValidStreamName(const std::string& name) {
  if (name.empty() || name.size() > kMaxStreamName) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

// The ?f=…&g=… choice in `params` (defaults: abs, sum).
bool ParseChoice(const std::map<std::string, std::string>& params,
                 DeviationChoice* choice) {
  const auto f = params.find("f");
  const auto g = params.find("g");
  return ResolveDeviationChoice(f != params.end() ? f->second : "abs",
                                g != params.end() ? g->second : "sum",
                                choice);
}

net::HttpResponse BadChoice() {
  return net::ErrorResponse(
      400, "unknown deviation function; use f=abs|scaled and g=sum|max");
}

// The answer to a failed backend operation other than kNotFound (callers
// word their own 404s). 429 and 503 both ask for a retry.
net::HttpResponse Failure(BackendStatus status, const std::string& error,
                          bool overloaded = false) {
  if (status != BackendStatus::kUnavailable) {
    return net::ErrorResponse(400, error);
  }
  net::HttpResponse response =
      net::ErrorResponse(overloaded ? 429 : 503, error);
  response.headers.emplace_back("retry-after", "1");
  return response;
}

}  // namespace

HttpApi::HttpApi(const HttpApiOptions& options, DeviationBackend* backend,
                 MetricsRegistry* metrics)
    : options_(options), backend_(backend), metrics_(metrics) {}

HttpApi::HttpApi(const HttpApiOptions& options, MonitorService* service,
                 const data::TransactionDb* reference,
                 MetricsRegistry* metrics)
    : options_(options),
      local_(std::make_unique<LocalBackend>(service, reference, metrics)),
      backend_(local_.get()),
      metrics_(metrics) {}

net::Router HttpApi::BuildRouter() {
  net::Router router;
  router.Handle("POST", "/v1/streams/{name}/snapshots",
                [this](const net::HttpRequest& request,
                       const net::PathParams& params) {
                  return HandleIngest(request, params);
                });
  router.Handle("GET", "/v1/streams/{name}/deviation",
                [this](const net::HttpRequest& request,
                       const net::PathParams& params) {
                  return HandleDeviation(request, params);
                });
  router.Handle("POST", "/v1/compare",
                [this](const net::HttpRequest& request,
                       const net::PathParams&) {
                  return HandleCompare(request);
                });
  router.Handle("GET", "/v1/deviation/summary",
                [this](const net::HttpRequest& request,
                       const net::PathParams&) {
                  return HandleSummary(request);
                });
  router.Handle("GET", "/metrics",
                [this](const net::HttpRequest& request,
                       const net::PathParams&) {
                  return HandleMetrics(request);
                });
  router.Handle("GET", "/healthz",
                [this](const net::HttpRequest&, const net::PathParams&) {
                  return HandleHealth();
                });
  return router;
}

net::HttpResponse HttpApi::HandleIngest(const net::HttpRequest& request,
                                        const net::PathParams& params) {
  const std::string& name = params.at("name");
  if (!ValidStreamName(name)) {
    return net::ErrorResponse(400, "invalid stream name");
  }
  IngestReply reply;
  std::string error;
  const BackendStatus status =
      backend_->Ingest(name, "http", request.body, &reply, &error);
  if (status != BackendStatus::kOk) {
    return Failure(status, error, reply.overloaded);
  }
  net::HttpResponse response;
  response.status = 202;
  response.body = "{\"stream\":\"" + JsonEscape(name) + "\"";
  response.body += ",\"sequence\":" + std::to_string(reply.sequence);
  response.body +=
      ",\"content_hash\":\"" + HashHex(reply.content_hash) + "\"}\n";
  return response;
}

net::HttpResponse HttpApi::HandleDeviation(const net::HttpRequest& request,
                                           const net::PathParams& params) {
  DeviationChoice choice;
  if (!ParseChoice(request.query, &choice)) return BadChoice();
  const std::string& name = params.at("name");
  StreamDeviation result;
  std::string error;
  const BackendStatus status =
      backend_->QueryStream(name, choice, &result, &error);
  if (status == BackendStatus::kNotFound) {
    return net::ErrorResponse(404, "unknown stream");
  }
  if (status != BackendStatus::kOk) return Failure(status, error);
  net::HttpResponse response;
  response.body = "{\"stream\":\"" + JsonEscape(name) + "\"";
  response.body +=
      ",\"f\":\"" + choice.f_name + "\",\"g\":\"" + choice.g_name + "\",";
  response.body += StatusJson(result.status);
  if (result.has_deviation) {
    response.body += ",\"deviation\":" + JsonNumber(result.deviation);
  }
  response.body += "}\n";
  return response;
}

net::HttpResponse HttpApi::HandleCompare(const net::HttpRequest& request) {
  // Parameters come from the query string and/or a form-encoded body
  // (body entries win).
  std::map<std::string, std::string> params = request.query;
  if (!request.body.empty()) {
    for (auto& [key, value] : net::ParseQueryString(request.body)) {
      params[key] = value;
    }
  }
  DeviationChoice choice;
  if (!ParseChoice(params, &choice)) return BadChoice();
  uint64_t left_hash = 0, right_hash = 0;
  const auto left = params.find("left");
  const auto right = params.find("right");
  if (left == params.end() || right == params.end() ||
      !ParseHashHex(left->second, &left_hash) ||
      !ParseHashHex(right->second, &right_hash)) {
    return net::ErrorResponse(
        400, "compare needs left=<hex hash> and right=<hex hash> (the "
             "content_hash values returned by snapshot ingest)");
  }
  double deviation = 0.0;
  std::vector<uint64_t> missing;
  std::string error;
  const BackendStatus status = backend_->CompareHashes(
      left_hash, right_hash, choice, &deviation, &missing, &error);
  if (status == BackendStatus::kNotFound) {
    // Canonical hex, however the client spelled the hash.
    std::string rendered;
    for (uint64_t hash : missing) {
      if (!rendered.empty()) rendered += ", ";
      rendered += HashHex(hash);
    }
    return net::ErrorResponse(
        404, "snapshot hash not in the model cache (evicted, still queued, "
             "or never ingested): " + rendered);
  }
  if (status != BackendStatus::kOk) return Failure(status, error);
  net::HttpResponse response;
  response.body = "{\"left\":\"" + HashHex(left_hash) + "\"";
  response.body += ",\"right\":\"" + HashHex(right_hash) + "\"";
  response.body +=
      ",\"f\":\"" + choice.f_name + "\",\"g\":\"" + choice.g_name + "\"";
  response.body += ",\"deviation\":" + JsonNumber(deviation) + "}\n";
  return response;
}

net::HttpResponse HttpApi::HandleSummary(const net::HttpRequest& request) {
  DeviationChoice choice;
  if (!ParseChoice(request.query, &choice)) return BadChoice();
  std::vector<SummaryEntry> entries;
  SummaryResult result;
  std::string error;
  const BackendStatus status =
      backend_->Summarize(choice, &entries, &result, &error);
  if (status != BackendStatus::kOk) return Failure(status, error);
  net::HttpResponse response;
  response.body = SummaryJson(choice.f_name, choice.g_name, entries, result);
  return response;
}

net::HttpResponse HttpApi::HandleMetrics(const net::HttpRequest& request) {
  if (metrics_ == nullptr) {
    return net::ErrorResponse(404, "metrics are disabled");
  }
  if (server_ != nullptr) {
    // Labelled per reactor: each api folds only its own server's stats
    // into the shared registry.
    const std::string label =
        "{reactor=\"" + std::to_string(options_.reactor_index) + "\"}";
    const net::HttpServerStats stats = server_->stats();
    metrics_->GetGauge("http_open_connections" + label)
        .Set(static_cast<double>(stats.open_connections));
    const auto fold = [&](const char* name, int64_t value) {
      Counter& counter = metrics_->GetCounter(name + label);
      counter.Increment(value - counter.Value());
    };
    fold("http_requests", stats.requests_handled);
    fold("http_parse_errors", stats.parse_errors);
    fold("http_connections_refused", stats.connections_refused);
  }
  net::HttpResponse response;
  const auto format = request.query.find("format");
  if (format != request.query.end() && format->second == "json") {
    response.body = metrics_->ToJson() + "\n";
    return response;
  }
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = metrics_->ToPrometheusText();
  return response;
}

net::HttpResponse HttpApi::HandleHealth() {
  net::HttpResponse response;
  response.body = draining_.load() ? "{\"status\":\"draining\"}\n"
                                   : "{\"status\":\"ok\"}\n";
  return response;
}

}  // namespace focus::serve
