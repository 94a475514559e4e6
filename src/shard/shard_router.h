#ifndef FOCUS_SHARD_SHARD_ROUTER_H_
#define FOCUS_SHARD_SHARD_ROUTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/api_util.h"
#include "serve/deviation_backend.h"
#include "serve/metrics.h"
#include "shard/hash_ring.h"
#include "shard/shard_channel.h"
#include "shard/shard_worker.h"
#include "shard/wire.h"

namespace focus::shard {

// In-process ShardChannel: dispatches directly into a ShardWorker (the
// encode/decode still happens in the worker's body codecs, so the same
// bytes-level contract is exercised).
class LocalShardChannel : public ShardChannel {
 public:
  explicit LocalShardChannel(ShardWorker* worker) : worker_(worker) {}

  bool Call(MessageType type, const std::string& payload, Frame* response,
            std::string* error) override;

 private:
  ShardWorker* const worker_;
};

// Consistent-hash stream->shard routing plus the scatter-gather fan-out
// for cross-shard operations. Single-shard operations (ingest, per-stream
// deviation) go to the owning shard only; /v1/compare falls back to a
// two-phase exchange when the two snapshots live on different shards; the
// cross-stream summary merges every shard's partial aggregates through
// serve::AggregateSummary, the same fold the single-node handler uses —
// which is why sharded answers are bit-identical (tests/laws pins this).
//
// Any transport failure surfaces as kShardDown: the front end answers 503
// and the daemon begins its drain (docs/SHARDING.md).
//
// As a serve::DeviationBackend it is what serve::HttpApi talks to in a
// sharded focus_served. Ingest bodies forward verbatim: the owning shard
// parses, hashes and sequences them.
class ShardRouter : public serve::DeviationBackend {
 public:
  enum class Status {
    kOk,
    kNotFound,    // unknown stream / hash on the owning shard(s)
    kInvalid,     // malformed request (bad deviation codes, ...)
    kShardDown,   // transport failure -> 503
  };

  // `shards` must outlive the router; one channel per shard, index order.
  // `metrics` (may be null) counts the backend operations per shard.
  explicit ShardRouter(std::vector<ShardChannel*> shards,
                       serve::MetricsRegistry* metrics = nullptr);

  int num_shards() const { return ring_.num_shards(); }
  int ShardFor(const std::string& stream) const {
    return ring_.ShardFor(stream);
  }

  // Ingest: routes to the owning shard. kOk means the shard answered
  // (result.status carries the HTTP-style verdict, 202/400/429/503).
  Status Submit(const std::string& stream, const std::string& source,
                const std::string& snapshot_text, SubmitResultBody* result,
                std::string* error);

  // Per-stream deviation from the owning shard.
  Status QueryDeviation(const std::string& stream, uint8_t f_code,
                        uint8_t g_code, DeviationResultBody* result,
                        std::string* error);

  // Compare by content hash. kNotFound fills `missing` with the hashes no
  // shard holds.
  Status Compare(uint64_t left_hash, uint64_t right_hash, uint8_t f_code,
                 uint8_t g_code, double* deviation,
                 std::vector<uint64_t>* missing, std::string* error);

  // Cross-stream aggregate over every shard: merged per-stream entries
  // (sorted by name) + the canonical fold.
  Status Summary(uint8_t f_code, uint8_t g_code,
                 std::vector<serve::SummaryEntry>* entries,
                 serve::SummaryResult* result, std::string* error);

  // Pings every shard; false (with `error`) when any is unreachable.
  bool PingAll(std::string* error);

  // serve::DeviationBackend, over the methods above.
  serve::BackendStatus Ingest(const std::string& stream,
                              const std::string& source,
                              const std::string& snapshot_text,
                              serve::IngestReply* reply,
                              std::string* error) override;
  serve::BackendStatus QueryStream(const std::string& stream,
                                   const serve::DeviationChoice& choice,
                                   serve::StreamDeviation* out,
                                   std::string* error) override;
  serve::BackendStatus CompareHashes(uint64_t left_hash, uint64_t right_hash,
                                     const serve::DeviationChoice& choice,
                                     double* deviation,
                                     std::vector<uint64_t>* missing,
                                     std::string* error) override;
  serve::BackendStatus Summarize(const serve::DeviationChoice& choice,
                                 std::vector<serve::SummaryEntry>* entries,
                                 serve::SummaryResult* result,
                                 std::string* error) override;

 private:
  // Two-phase cross-shard compare: fetch Γ(M)+n from each owner, form the
  // GCR, extend both models remotely, aggregate locally.
  Status CrossShardCompare(int left_shard, uint64_t left_hash,
                           int right_shard, uint64_t right_hash,
                           uint8_t f_code, uint8_t g_code, double* deviation,
                           std::string* error);

  // Maps a router status onto the backend's; a transport failure is
  // counted and worded as a 503.
  serve::BackendStatus ToBackendStatus(Status status, std::string* error);
  void CountShardOp(const char* op, int shard);

  const std::vector<ShardChannel*> shards_;
  const HashRing ring_;
  serve::MetricsRegistry* const metrics_;  // may be null
};

}  // namespace focus::shard

#endif  // FOCUS_SHARD_SHARD_ROUTER_H_
