#include "shard/shard_worker.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/lits_deviation.h"
#include "serve/model_cache.h"

namespace focus::shard {
namespace {

Frame ErrorFrame(uint32_t request_id, std::string message) {
  ErrorBody body;
  body.message = std::move(message);
  return {MessageType::kError, request_id, body.Encode()};
}

}  // namespace

ShardWorker::ShardWorker(const ShardWorkerOptions& options,
                         const data::TransactionDb* reference,
                         serve::MetricsRegistry* metrics)
    : options_(options),
      service_(options.service, metrics),
      backend_(&service_, reference, metrics) {}

bool ShardWorker::Serve(const WireServerOptions& server_options,
                        std::string* error) {
  server_ = std::make_unique<WireServer>(
      server_options, [this](const Frame& frame) { return HandleFrame(frame); });
  return server_->Start(error);
}

void ShardWorker::BeginDrain() {
  draining_.store(true, std::memory_order_relaxed);
  if (server_ != nullptr) server_->BeginDrain();
}

bool ShardWorker::WaitDrained(int timeout_ms) {
  return server_ == nullptr || server_->WaitDrained(timeout_ms);
}

void ShardWorker::Stop() {
  if (server_ != nullptr) server_->Stop();
  service_.Flush();
  service_.Shutdown();
}

Frame ShardWorker::HandleFrame(const Frame& request) {
  switch (request.type) {
    case MessageType::kPing:
      return HandlePing(request);
    case MessageType::kSubmitSnapshot:
      return HandleSubmit(request);
    case MessageType::kDeviationQuery:
      return HandleDeviationQuery(request);
    case MessageType::kCompare:
      return HandleCompare(request);
    case MessageType::kModelRegions:
      return HandleModelRegions(request);
    case MessageType::kExtendRegions:
      return HandleExtendRegions(request);
    case MessageType::kStreamPartials:
      return HandleStreamPartials(request);
    default:
      return ErrorFrame(request.request_id,
                        "unexpected message type " +
                            std::to_string(static_cast<int>(request.type)));
  }
}

Frame ShardWorker::HandlePing(const Frame& request) {
  PongBody body;
  body.shard_index = options_.shard_index;
  body.processed = service_.processed();
  body.draining = draining_.load(std::memory_order_relaxed) ? 1 : 0;
  return {MessageType::kPong, request.request_id, body.Encode()};
}

Frame ShardWorker::HandleSubmit(const Frame& request) {
  SubmitSnapshotBody body;
  if (!body.Decode(request.payload)) {
    return ErrorFrame(request.request_id, "malformed submit payload");
  }
  SubmitResultBody result;
  // Drain refuses new work up front — in-flight snapshots still finish,
  // but nothing new enters the queue (docs/SHARDING.md, shard death).
  if (draining_.load(std::memory_order_relaxed)) {
    result.status = 503;
    result.error = "shard is draining";
    return {MessageType::kSubmitResult, request.request_id, result.Encode()};
  }
  serve::IngestReply reply;
  // The wire carries the verdict as the HTTP status the front end answers.
  switch (backend_.Ingest(body.stream, body.source, body.snapshot, &reply,
                          &result.error)) {
    case serve::BackendStatus::kOk:
      result.status = 202;
      break;
    case serve::BackendStatus::kUnavailable:
      result.status = reply.overloaded ? 429 : 503;
      break;
    case serve::BackendStatus::kNotFound:
    case serve::BackendStatus::kInvalid:
      result.status = 400;
      break;
  }
  result.sequence = reply.sequence;
  result.content_hash = reply.content_hash;
  return {MessageType::kSubmitResult, request.request_id, result.Encode()};
}

Frame ShardWorker::HandleDeviationQuery(const Frame& request) {
  DeviationQueryBody body;
  serve::DeviationChoice choice;
  if (!body.Decode(request.payload)) {
    return ErrorFrame(request.request_id, "malformed deviation query");
  }
  if (!DeviationChoiceFromCodes(body.f_code, body.g_code, &choice)) {
    return ErrorFrame(request.request_id, "unknown deviation function codes");
  }
  DeviationResultBody result;
  serve::StreamDeviation deviation;
  std::string error;
  if (backend_.QueryStream(body.stream, choice, &deviation, &error) ==
      serve::BackendStatus::kOk) {
    result.found = 1;
    result.status = deviation.status;
    result.has_deviation = deviation.has_deviation ? 1 : 0;
    result.deviation = deviation.deviation;
  }
  return {MessageType::kDeviationResult, request.request_id, result.Encode()};
}

Frame ShardWorker::HandleCompare(const Frame& request) {
  CompareBody body;
  serve::DeviationChoice choice;
  if (!body.Decode(request.payload)) {
    return ErrorFrame(request.request_id, "malformed compare payload");
  }
  if (!DeviationChoiceFromCodes(body.f_code, body.g_code, &choice)) {
    return ErrorFrame(request.request_id, "unknown deviation function codes");
  }
  CompareResultBody result;
  std::vector<uint64_t> missing;
  std::string error;
  // Both snapshots local: the full single-node answer. Otherwise report
  // which one this shard holds, so the router can run the two-phase
  // cross-shard exchange.
  if (backend_.CompareHashes(body.left_hash, body.right_hash, choice,
                             &result.deviation, &missing,
                             &error) == serve::BackendStatus::kOk) {
    result.outcome = CompareOutcome::kBoth;
  } else {
    const auto holds = [&missing](uint64_t hash) {
      return std::find(missing.begin(), missing.end(), hash) == missing.end();
    };
    const bool left = holds(body.left_hash);
    const bool right = holds(body.right_hash);
    result.outcome = left    ? CompareOutcome::kLeftOnly
                     : right ? CompareOutcome::kRightOnly
                             : CompareOutcome::kNeither;
  }
  return {MessageType::kCompareResult, request.request_id, result.Encode()};
}

Frame ShardWorker::HandleModelRegions(const Frame& request) {
  ModelRegionsBody body;
  if (!body.Decode(request.payload)) {
    return ErrorFrame(request.request_id, "malformed model-regions payload");
  }
  ModelRegionsResultBody result;
  const auto mined = service_.model_cache().LookupMined(body.content_hash);
  if (mined.has_value()) {
    result.found = 1;
    result.num_transactions = mined->index_ref().num_transactions();
    result.regions = mined->model->StructuralComponent();
  }
  return {MessageType::kModelRegionsResult, request.request_id,
          result.Encode()};
}

Frame ShardWorker::HandleExtendRegions(const Frame& request) {
  ExtendRegionsBody body;
  if (!body.Decode(request.payload)) {
    return ErrorFrame(request.request_id, "malformed extend-regions payload");
  }
  ExtendRegionsResultBody result;
  const auto mined = service_.model_cache().LookupMined(body.content_hash);
  if (mined.has_value()) {
    result.found = 1;
    result.num_transactions = mined->index_ref().num_transactions();
    // The same measure extension LitsDeviation composes, so the router's
    // recombined answer matches the single-node one bit for bit.
    result.supports = core::LitsExtendModel(body.regions, *mined->model,
                                            mined->index_ref());
  }
  return {MessageType::kExtendRegionsResult, request.request_id,
          result.Encode()};
}

Frame ShardWorker::HandleStreamPartials(const Frame& request) {
  StreamPartialsBody body;
  serve::DeviationChoice choice;
  if (!body.Decode(request.payload)) {
    return ErrorFrame(request.request_id, "malformed stream-partials payload");
  }
  if (!DeviationChoiceFromCodes(body.f_code, body.g_code, &choice)) {
    return ErrorFrame(request.request_id, "unknown deviation function codes");
  }
  std::vector<serve::SummaryEntry> entries;
  serve::SummaryResult summary;
  std::string error;
  backend_.Summarize(choice, &entries, &summary, &error);
  PartialAggregateBody result;
  for (serve::SummaryEntry& entry : entries) {
    result.entries.push_back(
        {std::move(entry.stream), static_cast<uint8_t>(entry.has_deviation),
         entry.deviation});
  }
  return {MessageType::kPartialAggregate, request.request_id, result.Encode()};
}

}  // namespace focus::shard
