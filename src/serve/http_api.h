#ifndef FOCUS_SERVE_HTTP_API_H_
#define FOCUS_SERVE_HTTP_API_H_

#include <atomic>
#include <memory>
#include <string>

#include "data/transaction_db.h"
#include "net/http_server.h"
#include "net/router.h"
#include "serve/deviation_backend.h"
#include "serve/metrics.h"
#include "serve/monitor_service.h"

namespace focus::serve {

struct HttpApiOptions {
  // Which front-end reactor this api serves: labels its server stats in
  // /metrics ({reactor="N"}), so reactors sharing one registry never fight
  // over a counter.
  int reactor_index = 0;
};

// The network face of the serving layer, and its only HTTP front end:
// binds a DeviationBackend (one MonitorService, or a ShardRouter over
// shard workers) and a MetricsRegistry to HTTP endpoints:
//
//   POST /v1/streams/{name}/snapshots   body: focus-txns-v1 text
//        202 {"stream","sequence","content_hash"} | 400 | 429 | 503
//   GET  /v1/streams/{name}/deviation?f=abs|scaled&g=sum|max
//        200 latest status + recomputed deviation | 404
//   POST /v1/compare?left=HASH&right=HASH&f=…&g=…   (params may also be a
//        form-encoded body) — deviation between two previously ingested
//        snapshots via the model cache; 404 when a hash is unknown.
//   GET  /v1/deviation/summary?f=…&g=…   cross-stream aggregate: every
//        stream's latest deviation folded with g in sorted-name order.
//   GET  /metrics        Prometheus text (?format=json for the registry
//        JSON snapshot)
//   GET  /healthz        {"status":"ok"|"draining"}
//
// Stream names must match [A-Za-z0-9._-]{1,128}. 429 and 503 carry
// Retry-After: 1. Handlers execute on the HTTP event-loop thread; the
// heavy work (mining, screening) stays on the MonitorService pool.
class HttpApi {
 public:
  // Serves `backend`; `backend` and `metrics` (may be null) must outlive
  // the api and the server routing into it.
  HttpApi(const HttpApiOptions& options, DeviationBackend* backend,
          MetricsRegistry* metrics);

  // Serves a LocalBackend over `service`, calibrating lazily added
  // streams against `reference`.
  HttpApi(const HttpApiOptions& options, MonitorService* service,
          const data::TransactionDb* reference, MetricsRegistry* metrics);

  // Builds the route table; hand the result to net::HttpServer.
  net::Router BuildRouter();

  // Optional: lets GET /metrics fold this reactor's live server stats
  // (open connections, parse errors, …) into the registry at scrape time.
  void AttachServer(const net::HttpServer* server) { server_ = server; }

  // Flips /healthz to "draining" (SIGTERM handling in focus_served).
  void SetDraining(bool draining) { draining_.store(draining); }

 private:
  net::HttpResponse HandleIngest(const net::HttpRequest& request,
                                 const net::PathParams& params);
  net::HttpResponse HandleDeviation(const net::HttpRequest& request,
                                    const net::PathParams& params);
  net::HttpResponse HandleCompare(const net::HttpRequest& request);
  net::HttpResponse HandleSummary(const net::HttpRequest& request);
  net::HttpResponse HandleMetrics(const net::HttpRequest& request);
  net::HttpResponse HandleHealth();

  const HttpApiOptions options_;
  const std::unique_ptr<LocalBackend> local_;  // set by the service ctor
  DeviationBackend* const backend_;
  MetricsRegistry* const metrics_;  // may be null
  const net::HttpServer* server_ = nullptr;
  std::atomic<bool> draining_{false};
};

}  // namespace focus::serve

#endif  // FOCUS_SERVE_HTTP_API_H_
