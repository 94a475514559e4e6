#ifndef FOCUS_SERVE_DEVIATION_BACKEND_H_
#define FOCUS_SERVE_DEVIATION_BACKEND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/transaction_db.h"
#include "serve/api_util.h"
#include "serve/metrics.h"
#include "serve/monitor_service.h"

namespace focus::serve {

// How a backend operation ended; HttpApi maps each to one HTTP status.
enum class BackendStatus {
  kOk,
  kNotFound,     // 404: unknown stream, or a hash no model cache holds
  kInvalid,      // 400: malformed request or snapshot
  kUnavailable,  // 503 (429 for an ingest shed by backpressure)
};

struct IngestReply {
  int64_t sequence = 0;
  uint64_t content_hash = 0;
  // With kUnavailable: backpressure outlasted the ingest wait (429, retry
  // soon) rather than the backend stopping or being unreachable (503).
  bool overloaded = false;
};

// What the HTTP front end needs from wherever the models live: the four
// operations behind its data routes. The paper's deviation does not depend
// on where the two models are held, so one HttpApi serves a single node
// (LocalBackend) and a sharded fleet (shard::ShardRouter) alike.
//
// On kInvalid and kUnavailable `error` holds the client-facing reason;
// kNotFound needs none (the front end words it, identically for every
// backend). A backend that several reactors share must be thread-safe, as
// LocalBackend is; each reactor of a sharded focus_served owns its router.
class DeviationBackend {
 public:
  virtual ~DeviationBackend() = default;

  // Parses `snapshot_text` (focus-txns-v1) and ingests it into `stream`
  // (registered on first sight, dense per-stream sequence).
  virtual BackendStatus Ingest(const std::string& stream,
                               const std::string& source,
                               const std::string& snapshot_text,
                               IngestReply* reply, std::string* error) = 0;

  // The stream's latest status plus its deviation under `choice`.
  virtual BackendStatus QueryStream(const std::string& stream,
                                    const DeviationChoice& choice,
                                    StreamDeviation* out,
                                    std::string* error) = 0;

  // Deviation between two ingested snapshots named by content hash.
  // kNotFound fills `missing` with the hashes no model cache holds.
  virtual BackendStatus CompareHashes(uint64_t left_hash, uint64_t right_hash,
                                      const DeviationChoice& choice,
                                      double* deviation,
                                      std::vector<uint64_t>* missing,
                                      std::string* error) = 0;

  // Every stream's deviation, sorted by name, and their canonical fold.
  virtual BackendStatus Summarize(const DeviationChoice& choice,
                                  std::vector<SummaryEntry>* entries,
                                  SummaryResult* result,
                                  std::string* error) = 0;
};

// The backend over one in-process MonitorService: a single-node
// focus_served, and each shard worker behind its wire protocol.
class LocalBackend : public DeviationBackend {
 public:
  // `reference` calibrates lazily added streams; `metrics` may be null.
  // All three must outlive the backend.
  LocalBackend(MonitorService* service, const data::TransactionDb* reference,
               MetricsRegistry* metrics);

  BackendStatus Ingest(const std::string& stream, const std::string& source,
                       const std::string& snapshot_text, IngestReply* reply,
                       std::string* error) override;
  BackendStatus QueryStream(const std::string& stream,
                            const DeviationChoice& choice,
                            StreamDeviation* out,
                            std::string* error) override;
  BackendStatus CompareHashes(uint64_t left_hash, uint64_t right_hash,
                              const DeviationChoice& choice,
                              double* deviation,
                              std::vector<uint64_t>* missing,
                              std::string* error) override;
  BackendStatus Summarize(const DeviationChoice& choice,
                          std::vector<SummaryEntry>* entries,
                          SummaryResult* result,
                          std::string* error) override;

 private:
  MonitorService* const service_;
  const data::TransactionDb* const reference_;
  MetricsRegistry* const metrics_;  // may be null
};

}  // namespace focus::serve

#endif  // FOCUS_SERVE_DEVIATION_BACKEND_H_
