#include "serve/deviation_backend.h"

#include <sstream>
#include <utility>

#include "core/lits_deviation.h"
#include "io/data_io.h"
#include "serve/model_cache.h"

namespace focus::serve {

LocalBackend::LocalBackend(MonitorService* service,
                           const data::TransactionDb* reference,
                           MetricsRegistry* metrics)
    : service_(service), reference_(reference), metrics_(metrics) {}

BackendStatus LocalBackend::Ingest(const std::string& stream,
                                   const std::string& source,
                                   const std::string& snapshot_text,
                                   IngestReply* reply, std::string* error) {
  if (snapshot_text.empty()) {
    *error = "empty snapshot body";
    return BackendStatus::kInvalid;
  }
  std::istringstream in(snapshot_text);
  std::string load_error;
  auto db = io::LoadTransactionDb(in, &load_error);
  if (!db.has_value()) {
    if (metrics_ != nullptr) {
      metrics_->GetCounter("ingest_rejected").Increment();
    }
    *error = "malformed snapshot: " + load_error;
    return BackendStatus::kInvalid;
  }
  reply->content_hash = TransactionDbContentHash(*db);

  Snapshot snapshot;
  snapshot.stream = stream;
  snapshot.source = source;
  snapshot.db = std::move(*db);
  const IngestResult result =
      service_->Ingest(std::move(snapshot), *reference_, /*block=*/false);
  switch (result.result) {
    case SubmitResult::kOverloaded:
      reply->overloaded = true;
      *error = "ingest queue is full; retry later";
      return BackendStatus::kUnavailable;
    case SubmitResult::kShutdown:
      *error = "service is shutting down";
      return BackendStatus::kUnavailable;
    case SubmitResult::kAccepted:
      break;
  }
  reply->sequence = result.sequence;
  return BackendStatus::kOk;
}

BackendStatus LocalBackend::QueryStream(const std::string& stream,
                                        const DeviationChoice& choice,
                                        StreamDeviation* out, std::string*) {
  auto result = service_->QueryDeviation(stream, choice.fn);
  if (!result.has_value()) return BackendStatus::kNotFound;
  *out = std::move(*result);
  return BackendStatus::kOk;
}

BackendStatus LocalBackend::CompareHashes(uint64_t left_hash,
                                          uint64_t right_hash,
                                          const DeviationChoice& choice,
                                          double* deviation,
                                          std::vector<uint64_t>* missing,
                                          std::string*) {
  ModelCache& cache = service_->model_cache();
  const auto left = cache.LookupMined(left_hash);
  const auto right = cache.LookupMined(right_hash);
  if (!left.has_value() || !right.has_value()) {
    if (!left.has_value()) missing->push_back(left_hash);
    if (!right.has_value() && right_hash != left_hash) {
      missing->push_back(right_hash);
    }
    return BackendStatus::kNotFound;
  }
  // Both snapshots are cache-resident: the deviation extends both models
  // over TID bitmaps — no raw-data scan.
  *deviation = core::LitsDeviation(*left->model, left->index_ref(),
                                   *right->model, right->index_ref(),
                                   choice.fn);
  if (metrics_ != nullptr) metrics_->GetCounter("compares").Increment();
  return BackendStatus::kOk;
}

BackendStatus LocalBackend::Summarize(const DeviationChoice& choice,
                                      std::vector<SummaryEntry>* entries,
                                      SummaryResult* result, std::string*) {
  // Per-stream deviations folded in canonical (sorted-name) order — the
  // same AggregateSummary the shard router merges with, so the two
  // backends answer bit-identically (the shard law checker pins this).
  entries->clear();
  for (const std::string& name : service_->ListStreams()) {
    const auto deviation = service_->QueryDeviation(name, choice.fn);
    if (!deviation.has_value()) continue;  // raced a registration
    SummaryEntry entry;
    entry.stream = name;
    entry.has_deviation = deviation->has_deviation;
    entry.deviation = deviation->deviation;
    entries->push_back(std::move(entry));
  }
  *result = AggregateSummary(entries, choice.fn.g);
  return BackendStatus::kOk;
}

}  // namespace focus::serve
