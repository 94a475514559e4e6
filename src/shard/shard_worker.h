#ifndef FOCUS_SHARD_SHARD_WORKER_H_
#define FOCUS_SHARD_SHARD_WORKER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "data/transaction_db.h"
#include "serve/deviation_backend.h"
#include "serve/metrics.h"
#include "serve/monitor_service.h"
#include "shard/wire.h"
#include "shard/wire_server.h"

namespace focus::shard {

struct ShardWorkerOptions {
  uint32_t shard_index = 0;
  serve::MonitorServiceOptions service;
};

// One shard: a full MonitorService + ModelCache owning a subset of the
// streams, exposed through the wire protocol. HandleFrame() is the entire
// behavior — Serve() merely runs it behind a WireServer on a Unix socket,
// which is how forked worker processes host it; the law tests and the
// in-process bench call HandleFrame directly (same code, no sockets).
//
// The data handlers decode a frame, ask the same serve::LocalBackend a
// single-node focus_served uses, and encode its answer. The worker is the
// single owner of each of its streams, so MonitorService::Ingest keeps
// their sequences dense however many front-end reactors forward ingests.
class ShardWorker {
 public:
  // `reference` is the calibration dataset for lazily added streams;
  // `metrics` may be null. Both must outlive the worker.
  ShardWorker(const ShardWorkerOptions& options,
              const data::TransactionDb* reference,
              serve::MetricsRegistry* metrics);

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  // Dispatches one request frame to a response frame. Thread-safe.
  Frame HandleFrame(const Frame& request);

  // Starts a WireServer for this worker on `server_options.unix_path`.
  bool Serve(const WireServerOptions& server_options,
             std::string* error = nullptr);

  // Graceful drain of the serving socket + the monitor service: stop
  // accepting, finish in-flight frames, flush the ingest queue.
  void BeginDrain();
  bool WaitDrained(int timeout_ms);
  void Stop();

  serve::MonitorService& service() { return service_; }
  const WireServer* server() const { return server_.get(); }

 private:
  Frame HandlePing(const Frame& request);
  Frame HandleSubmit(const Frame& request);
  Frame HandleDeviationQuery(const Frame& request);
  Frame HandleCompare(const Frame& request);
  Frame HandleModelRegions(const Frame& request);
  Frame HandleExtendRegions(const Frame& request);
  Frame HandleStreamPartials(const Frame& request);

  const ShardWorkerOptions options_;
  serve::MonitorService service_;
  serve::LocalBackend backend_;
  std::unique_ptr<WireServer> server_;
  std::atomic<bool> draining_{false};
};

}  // namespace focus::shard

#endif  // FOCUS_SHARD_SHARD_WORKER_H_
