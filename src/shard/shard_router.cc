#include "shard/shard_router.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "core/lits_deviation.h"

namespace focus::shard {

bool LocalShardChannel::Call(MessageType type, const std::string& payload,
                             Frame* response, std::string* error) {
  Frame request;
  request.type = type;
  request.request_id = 0;
  request.payload = payload;
  *response = worker_->HandleFrame(request);
  if (response->type == MessageType::kError) {
    ErrorBody body;
    if (error != nullptr) {
      *error = body.Decode(response->payload) ? body.message
                                              : "malformed error frame";
    }
    return false;
  }
  return true;
}

ShardRouter::ShardRouter(std::vector<ShardChannel*> shards,
                         serve::MetricsRegistry* metrics)
    : shards_(std::move(shards)),
      ring_(static_cast<int>(shards_.size())),
      metrics_(metrics) {
  FOCUS_CHECK(!shards_.empty());
}

ShardRouter::Status ShardRouter::Submit(const std::string& stream,
                                        const std::string& source,
                                        const std::string& snapshot_text,
                                        SubmitResultBody* result,
                                        std::string* error) {
  SubmitSnapshotBody body;
  body.stream = stream;
  body.source = source;
  body.snapshot = snapshot_text;
  Frame response;
  if (!shards_[ring_.ShardFor(stream)]->Call(MessageType::kSubmitSnapshot,
                                             body.Encode(), &response,
                                             error)) {
    return Status::kShardDown;
  }
  if (response.type != MessageType::kSubmitResult ||
      !result->Decode(response.payload)) {
    if (error != nullptr) *error = "malformed submit response";
    return Status::kShardDown;
  }
  return Status::kOk;
}

ShardRouter::Status ShardRouter::QueryDeviation(const std::string& stream,
                                                uint8_t f_code,
                                                uint8_t g_code,
                                                DeviationResultBody* result,
                                                std::string* error) {
  core::DeviationFunction fn;
  if (!DeviationFunctionFromCodes(f_code, g_code, &fn)) {
    if (error != nullptr) *error = "unknown deviation function codes";
    return Status::kInvalid;
  }
  DeviationQueryBody body;
  body.stream = stream;
  body.f_code = f_code;
  body.g_code = g_code;
  Frame response;
  if (!shards_[ring_.ShardFor(stream)]->Call(MessageType::kDeviationQuery,
                                             body.Encode(), &response,
                                             error)) {
    return Status::kShardDown;
  }
  if (response.type != MessageType::kDeviationResult ||
      !result->Decode(response.payload)) {
    if (error != nullptr) *error = "malformed deviation response";
    return Status::kShardDown;
  }
  return result->found != 0 ? Status::kOk : Status::kNotFound;
}

ShardRouter::Status ShardRouter::Compare(uint64_t left_hash,
                                         uint64_t right_hash, uint8_t f_code,
                                         uint8_t g_code, double* deviation,
                                         std::vector<uint64_t>* missing,
                                         std::string* error) {
  core::DeviationFunction fn;
  if (!DeviationFunctionFromCodes(f_code, g_code, &fn)) {
    if (error != nullptr) *error = "unknown deviation function codes";
    return Status::kInvalid;
  }
  CompareBody body;
  body.left_hash = left_hash;
  body.right_hash = right_hash;
  body.f_code = f_code;
  body.g_code = g_code;
  const std::string payload = body.Encode();

  // Scatter: a content hash can live on any shard (it is owned by
  // whichever stream ingested it), so ask each in turn. A shard holding
  // both answers with the full local deviation — the same code path as
  // single-node compare — and short-circuits the fan-out.
  int left_shard = -1, right_shard = -1;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Frame response;
    if (!shards_[i]->Call(MessageType::kCompare, payload, &response, error)) {
      return Status::kShardDown;
    }
    CompareResultBody result;
    if (response.type != MessageType::kCompareResult ||
        !result.Decode(response.payload)) {
      if (error != nullptr) *error = "malformed compare response";
      return Status::kShardDown;
    }
    switch (result.outcome) {
      case CompareOutcome::kBoth:
        *deviation = result.deviation;
        return Status::kOk;
      case CompareOutcome::kLeftOnly:
        if (left_shard < 0) left_shard = static_cast<int>(i);
        break;
      case CompareOutcome::kRightOnly:
        if (right_shard < 0) right_shard = static_cast<int>(i);
        break;
      case CompareOutcome::kNeither:
        break;
    }
  }
  if (left_shard >= 0 && right_shard >= 0) {
    return CrossShardCompare(left_shard, left_hash, right_shard, right_hash,
                             f_code, g_code, deviation, error);
  }
  if (missing != nullptr) {
    if (left_shard < 0) missing->push_back(left_hash);
    if (right_shard < 0 && right_hash != left_hash) {
      missing->push_back(right_hash);
    }
  }
  return Status::kNotFound;
}

ShardRouter::Status ShardRouter::CrossShardCompare(
    int left_shard, uint64_t left_hash, int right_shard, uint64_t right_hash,
    uint8_t f_code, uint8_t g_code, double* deviation, std::string* error) {
  // Phase 1: each owner's structural component Γ(M) (sorted) and |D|.
  ModelRegionsResultBody left_model, right_model;
  const auto fetch_regions = [&](int shard, uint64_t hash,
                                 ModelRegionsResultBody* out) {
    ModelRegionsBody body;
    body.content_hash = hash;
    Frame response;
    if (!shards_[shard]->Call(MessageType::kModelRegions, body.Encode(),
                              &response, error)) {
      return Status::kShardDown;
    }
    if (response.type != MessageType::kModelRegionsResult ||
        !out->Decode(response.payload)) {
      if (error != nullptr) *error = "malformed model-regions response";
      return Status::kShardDown;
    }
    // The cache can evict between the scatter and this fetch.
    return out->found != 0 ? Status::kOk : Status::kNotFound;
  };
  Status status = fetch_regions(left_shard, left_hash, &left_model);
  if (status != Status::kOk) return status;
  status = fetch_regions(right_shard, right_hash, &right_model);
  if (status != Status::kOk) return status;

  // The GCR: sorted union of the two sorted structural components —
  // exactly what core::LitsGcr builds from the two models (union of
  // itemset sets, then sort), so the regions and their order match the
  // single-node computation.
  std::vector<lits::Itemset> gcr;
  gcr.reserve(left_model.regions.size() + right_model.regions.size());
  std::set_union(left_model.regions.begin(), left_model.regions.end(),
                 right_model.regions.begin(), right_model.regions.end(),
                 std::back_inserter(gcr));

  // Phase 2: extend each model to the GCR on its owning shard.
  ExtendRegionsResultBody left_extended, right_extended;
  const auto extend = [&](int shard, uint64_t hash,
                          ExtendRegionsResultBody* out) {
    ExtendRegionsBody body;
    body.content_hash = hash;
    body.regions = gcr;
    Frame response;
    if (!shards_[shard]->Call(MessageType::kExtendRegions, body.Encode(),
                              &response, error)) {
      return Status::kShardDown;
    }
    if (response.type != MessageType::kExtendRegionsResult ||
        !out->Decode(response.payload)) {
      if (error != nullptr) *error = "malformed extend-regions response";
      return Status::kShardDown;
    }
    if (out->found == 0) return Status::kNotFound;
    if (out->supports.size() != gcr.size()) {
      if (error != nullptr) *error = "extend-regions support count mismatch";
      return Status::kShardDown;
    }
    return Status::kOk;
  };
  status = extend(left_shard, left_hash, &left_extended);
  if (status != Status::kOk) return status;
  status = extend(right_shard, right_hash, &right_extended);
  if (status != Status::kOk) return status;

  core::DeviationFunction fn;
  if (!DeviationFunctionFromCodes(f_code, g_code, &fn)) {
    return Status::kInvalid;  // validated by the caller already
  }
  // Supports traveled as IEEE-754 bits, so this aggregation sees the very
  // doubles the owning shards computed: delta^1_(f,g) over the GCR, bit-
  // identical to LitsDeviation on one node.
  *deviation = core::LitsAggregateRegionDiffs(
      left_extended.supports,
      static_cast<double>(left_extended.num_transactions),
      right_extended.supports,
      static_cast<double>(right_extended.num_transactions), fn);
  return Status::kOk;
}

ShardRouter::Status ShardRouter::Summary(
    uint8_t f_code, uint8_t g_code,
    std::vector<serve::SummaryEntry>* entries, serve::SummaryResult* result,
    std::string* error) {
  core::DeviationFunction fn;
  if (!DeviationFunctionFromCodes(f_code, g_code, &fn)) {
    if (error != nullptr) *error = "unknown deviation function codes";
    return Status::kInvalid;
  }
  StreamPartialsBody body;
  body.f_code = f_code;
  body.g_code = g_code;
  const std::string payload = body.Encode();

  entries->clear();
  for (ShardChannel* shard : shards_) {
    Frame response;
    if (!shard->Call(MessageType::kStreamPartials, payload, &response,
                     error)) {
      return Status::kShardDown;
    }
    PartialAggregateBody partial;
    if (response.type != MessageType::kPartialAggregate ||
        !partial.Decode(response.payload)) {
      if (error != nullptr) *error = "malformed partial-aggregate response";
      return Status::kShardDown;
    }
    for (PartialAggregateBody::Entry& entry : partial.entries) {
      serve::SummaryEntry merged;
      merged.stream = std::move(entry.stream);
      merged.has_deviation = entry.has_deviation != 0;
      merged.deviation = entry.deviation;
      entries->push_back(std::move(merged));
    }
  }
  // The canonical fold (sorted-name order) shared with the single-node
  // backend: g_sum only reproduces the single-node bits when the
  // per-stream terms recombine in the same global order.
  *result = serve::AggregateSummary(entries, fn.g);
  return Status::kOk;
}

bool ShardRouter::PingAll(std::string* error) {
  for (ShardChannel* shard : shards_) {
    Frame response;
    if (!shard->Call(MessageType::kPing, std::string(), &response, error)) {
      return false;
    }
    PongBody body;
    if (response.type != MessageType::kPong ||
        !body.Decode(response.payload)) {
      if (error != nullptr) *error = "malformed pong";
      return false;
    }
  }
  return true;
}

// ------------------------------------------------ serve::DeviationBackend

namespace {

// Wire codes of a choice; codes the router rejects as kInvalid should its
// names not map.
void ChoiceCodes(const serve::DeviationChoice& choice, uint8_t* f_code,
                 uint8_t* g_code) {
  if (!DeviationCodesFromNames(choice.f_name, choice.g_name, f_code,
                               g_code)) {
    *f_code = *g_code = 0xff;
  }
}

}  // namespace

void ShardRouter::CountShardOp(const char* op, int shard) {
  if (metrics_ == nullptr) return;
  metrics_
      ->GetCounter(std::string(op) + "{shard=\"" + std::to_string(shard) +
                   "\"}")
      .Increment();
}

serve::BackendStatus ShardRouter::ToBackendStatus(Status status,
                                                  std::string* error) {
  switch (status) {
    case Status::kOk:
      return serve::BackendStatus::kOk;
    case Status::kNotFound:
      return serve::BackendStatus::kNotFound;
    case Status::kInvalid:
      return serve::BackendStatus::kInvalid;
    case Status::kShardDown:
      break;
  }
  if (metrics_ != nullptr) {
    metrics_->GetCounter("shard_transport_errors").Increment();
  }
  *error = "shard unavailable: " + *error;
  return serve::BackendStatus::kUnavailable;
}

serve::BackendStatus ShardRouter::Ingest(const std::string& stream,
                                         const std::string& source,
                                         const std::string& snapshot_text,
                                         serve::IngestReply* reply,
                                         std::string* error) {
  CountShardOp("shard_ingests", ShardFor(stream));
  SubmitResultBody result;
  const Status status = Submit(stream, source, snapshot_text, &result, error);
  if (status != Status::kOk) return ToBackendStatus(status, error);
  // The owning shard answered with the HTTP verdict of its LocalBackend.
  reply->sequence = result.sequence;
  reply->content_hash = result.content_hash;
  *error = result.error;
  if (result.status == 202) return serve::BackendStatus::kOk;
  if (result.status == 400) return serve::BackendStatus::kInvalid;
  reply->overloaded = result.status == 429;
  return serve::BackendStatus::kUnavailable;
}

serve::BackendStatus ShardRouter::QueryStream(
    const std::string& stream, const serve::DeviationChoice& choice,
    serve::StreamDeviation* out, std::string* error) {
  uint8_t f_code, g_code;
  ChoiceCodes(choice, &f_code, &g_code);
  CountShardOp("shard_deviation_queries", ShardFor(stream));
  DeviationResultBody result;
  const Status status =
      QueryDeviation(stream, f_code, g_code, &result, error);
  if (status != Status::kOk) return ToBackendStatus(status, error);
  out->status = result.status;
  out->has_deviation = result.has_deviation != 0;
  out->deviation = result.deviation;
  return serve::BackendStatus::kOk;
}

serve::BackendStatus ShardRouter::CompareHashes(
    uint64_t left_hash, uint64_t right_hash,
    const serve::DeviationChoice& choice, double* deviation,
    std::vector<uint64_t>* missing, std::string* error) {
  uint8_t f_code, g_code;
  ChoiceCodes(choice, &f_code, &g_code);
  if (metrics_ != nullptr) metrics_->GetCounter("shard_compares").Increment();
  const Status status = Compare(left_hash, right_hash, f_code, g_code,
                                deviation, missing, error);
  return ToBackendStatus(status, error);
}

serve::BackendStatus ShardRouter::Summarize(
    const serve::DeviationChoice& choice,
    std::vector<serve::SummaryEntry>* entries, serve::SummaryResult* result,
    std::string* error) {
  uint8_t f_code, g_code;
  ChoiceCodes(choice, &f_code, &g_code);
  const Status status = Summary(f_code, g_code, entries, result, error);
  return ToBackendStatus(status, error);
}

}  // namespace focus::shard
