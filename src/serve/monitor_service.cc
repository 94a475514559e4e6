#include "serve/monitor_service.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"
#include "common/timer.h"
#include "core/lits_deviation.h"

namespace focus::serve {

using common::MutexLock;

std::string StreamEvent::ToJson() const {
  std::string out = "{\"type\":\"event\"";
  out += ",\"stream\":\"" + JsonEscape(stream) + "\"";
  out += ",\"seq\":" + std::to_string(sequence);
  if (!source.empty()) out += ",\"source\":\"" + JsonEscape(source) + "\"";
  out += ",\"n\":" + std::to_string(num_transactions);
  out += ",\"delta_star\":" + JsonNumber(report.upper_bound);
  out += ",\"screened_out\":";
  out += report.screened_out ? "true" : "false";
  if (!report.screened_out) {
    out += ",\"delta\":" + JsonNumber(report.deviation);
    out += ",\"sig_pct\":" + JsonNumber(report.significance_percent);
  }
  out += ",\"alert\":";
  out += report.alert ? "true" : "false";
  out += ",\"cusum\":" + JsonNumber(cusum);
  out += ",\"change_point\":";
  out += change_point ? "true" : "false";
  out += ",\"cache_hit\":";
  out += cache_hit ? "true" : "false";
  out += ",\"latency_ms\":" + JsonNumber(latency_ms);
  out += "}";
  return out;
}

MonitorServiceOptions ServiceOptionsFromFlags(const common::Flags& flags) {
  MonitorServiceOptions options;
  options.monitor.apriori.min_support = flags.GetDouble("minsup", 0.01);
  options.monitor.alert_factor = flags.GetDouble("factor", 2.0);
  options.monitor.calibration_replicates =
      static_cast<int>(flags.GetInt("calibration", 5));
  options.monitor.significance.num_replicates =
      static_cast<int>(flags.GetInt("replicates", 9));
  options.cusum.warmup = static_cast<int>(flags.GetInt("warmup", 5));
  options.cusum.slack = flags.GetDouble("slack", 0.5);
  options.cusum.decision_threshold = flags.GetDouble("decision", 5.0);
  options.num_threads = static_cast<int>(flags.GetInt("threads", 4));
  options.queue_capacity = static_cast<size_t>(flags.GetInt("queue", 64));
  options.model_cache_capacity =
      static_cast<size_t>(flags.GetInt("cache", 64));
  options.ingest_wait_ms = static_cast<int>(
      flags.GetInt("ingest-wait-ms", options.ingest_wait_ms));
  return options;
}

MonitorService::MonitorService(const MonitorServiceOptions& options,
                               MetricsRegistry* metrics)
    : options_(options),
      metrics_(metrics),
      model_cache_(options.model_cache_capacity, options.monitor.apriori,
                   metrics, options.index_backend),
      queue_(options.queue_capacity),
      pool_(std::make_unique<common::ThreadPool>(options.num_threads)) {
  dispatcher_ = std::thread([this]() { DispatchLoop(); });
}

MonitorService::~MonitorService() { Shutdown(); }

void MonitorService::AddStream(const std::string& name,
                               const data::TransactionDb& reference) {
  // Mining + calibration run outside the state lock; only registration
  // takes it.
  auto stream = std::make_unique<Stream>(options_.cusum);
  stream->monitor =
      std::make_unique<core::LitsChangeMonitor>(reference, options_.monitor);
  {
    MutexLock lock(&state_mutex_);
    FOCUS_CHECK(streams_.find(name) == streams_.end())
        << "stream '" << name << "' registered twice";
    streams_[name] = std::move(stream);
    if (metrics_ != nullptr) {
      metrics_->GetGauge("streams").Set(static_cast<double>(streams_.size()));
    }
  }
}

bool MonitorService::HasStream(const std::string& name) const {
  MutexLock lock(&state_mutex_);
  return streams_.count(name) > 0;
}

std::vector<std::string> MonitorService::ListStreams() const {
  std::vector<std::string> names;
  {
    MutexLock lock(&state_mutex_);
    names.reserve(streams_.size());
    for (const auto& [name, stream] : streams_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

void MonitorService::SetEventSink(
    std::function<void(const StreamEvent&)> sink) {
  MutexLock lock(&sink_mutex_);
  sink_ = std::move(sink);
}

bool MonitorService::Submit(Snapshot snapshot) {
  return Enqueue(std::move(snapshot), std::nullopt) == SubmitResult::kAccepted;
}

SubmitResult MonitorService::TrySubmitFor(Snapshot snapshot,
                                          std::chrono::milliseconds timeout) {
  return Enqueue(std::move(snapshot), timeout);
}

SubmitResult MonitorService::Enqueue(
    Snapshot snapshot, std::optional<std::chrono::milliseconds> timeout) {
  {
    // Bound the total number of snapshots in flight (queued + pending +
    // processing) by the queue capacity: this is the backpressure the
    // producer feels.
    MutexLock lock(&state_mutex_);
    const auto has_room = [this]() REQUIRES(state_mutex_) {
      return shutdown_ ||
             in_flight_ < static_cast<int64_t>(options_.queue_capacity);
    };
    bool ready = true;
    if (timeout.has_value()) {
      ready = idle_cv_.WaitFor(state_mutex_, *timeout, has_room);
    } else {
      idle_cv_.Wait(state_mutex_, has_room);
    }
    if (shutdown_) return SubmitResult::kShutdown;
    if (!ready) {
      if (metrics_ != nullptr) {
        metrics_->GetCounter("snapshots_shed").Increment();
      }
      return SubmitResult::kOverloaded;
    }
    ++in_flight_;
  }
  // in_flight_ < capacity guarantees queue room: items leave the queue
  // before they stop counting as in flight, so this Push cannot block.
  if (!queue_.Push(std::move(snapshot))) {
    MutexLock lock(&state_mutex_);
    --in_flight_;
    idle_cv_.NotifyAll();
    return SubmitResult::kShutdown;
  }
  if (metrics_ != nullptr) {
    metrics_->GetGauge("queue_depth").Set(static_cast<double>(queue_.size()));
    metrics_->GetCounter("snapshots_submitted").Increment();
  }
  return SubmitResult::kAccepted;
}

IngestResult MonitorService::Ingest(Snapshot snapshot,
                                    const data::TransactionDb& reference,
                                    bool block) {
  MutexLock lock(&ingest_mutex_);
  if (!HasStream(snapshot.stream)) AddStream(snapshot.stream, reference);
  int64_t& next = next_sequence_[snapshot.stream];
  snapshot.sequence = next;
  std::optional<std::chrono::milliseconds> timeout;  // none: block
  if (!block) timeout = std::chrono::milliseconds(options_.ingest_wait_ms);
  IngestResult out;
  out.result = Enqueue(std::move(snapshot), timeout);
  if (out.result == SubmitResult::kAccepted) out.sequence = next++;
  return out;
}

std::optional<StreamStatus> MonitorService::GetStreamStatus(
    const std::string& name) const {
  MutexLock lock(&state_mutex_);
  const auto it = streams_.find(name);
  if (it == streams_.end()) return std::nullopt;
  return it->second->status;
}

std::optional<StreamDeviation> MonitorService::QueryDeviation(
    const std::string& name, const core::DeviationFunction& fn) const {
  StreamDeviation result;
  MinedSnapshot last;
  const core::LitsChangeMonitor* monitor = nullptr;
  {
    MutexLock lock(&state_mutex_);
    const auto it = streams_.find(name);
    if (it == streams_.end()) return std::nullopt;
    result.status = it->second->status;
    last = it->second->last_mined;
    monitor = it->second->monitor.get();
  }
  if (!result.status.has_snapshot || last.model == nullptr ||
      !last.has_index()) {
    return result;
  }
  // Recompute under the requested (f,g) from the CACHED model + vertical
  // index of the latest snapshot against the monitor's reference pair —
  // GCR extension via bitmap AND+popcount, no raw-data scan. The monitor
  // itself is immutable after AddStream, so reading it unlocked is safe.
  result.deviation =
      core::LitsDeviation(monitor->reference_model(),
                          monitor->reference_index(), *last.model,
                          last.index_ref(), fn);
  result.has_deviation = true;
  return result;
}

void MonitorService::DispatchLoop() {
  while (auto snapshot = queue_.Pop()) {
    Route(std::move(*snapshot));
  }
}

void MonitorService::Route(Snapshot snapshot) {
  Stream* stream = nullptr;
  {
    MutexLock lock(&state_mutex_);
    const auto it = streams_.find(snapshot.stream);
    if (it == streams_.end()) {
      --in_flight_;
      idle_cv_.NotifyAll();
      if (metrics_ != nullptr) {
        metrics_->GetCounter("snapshots_rejected").Increment();
      }
      return;
    }
    stream = it->second.get();
    stream->pending.push_back(std::move(snapshot));
    if (stream->draining) return;  // the active drain job will pick it up
    stream->draining = true;
  }
  // One drain job per stream at a time: per-stream order is preserved
  // while distinct streams run concurrently on the pool. Fire-and-forget:
  // ThreadPool::Submit's future carries no value, and the drain job's
  // outcome is reported through the event sink, not the return.
  // focus-analyze: allow(unchecked-status)
  pool_->Submit([this, stream]() { DrainStream(stream); });
}

bool MonitorService::TakeNextPendingLocked(Stream* stream, Snapshot* out) {
  if (stream->pending.empty()) {
    stream->draining = false;
    return false;
  }
  *out = std::move(stream->pending.front());
  stream->pending.pop_front();
  return true;
}

void MonitorService::DrainStream(Stream* stream) {
  for (;;) {
    Snapshot snapshot;
    {
      MutexLock lock(&state_mutex_);
      if (!TakeNextPendingLocked(stream, &snapshot)) return;
    }
    const StreamEvent event = Process(stream, std::move(snapshot));
    {
      MutexLock lock(&sink_mutex_);
      if (sink_) sink_(event);
    }
    FinishOne();
  }
}

StreamEvent MonitorService::Process(Stream* stream, Snapshot snapshot) {
  common::Timer timer;
  StreamEvent event;
  event.stream = std::move(snapshot.stream);
  event.sequence = snapshot.sequence;
  event.source = std::move(snapshot.source);
  // Either backend scans through the same ref: the daemon's --ooc path
  // hands over a block store that streams block by block everywhere below.
  const data::TxnSourceRef source = snapshot.source_ref();
  event.num_transactions = source.num_transactions();

  bool cache_hit = false;
  const MinedSnapshot mined = model_cache_.GetOrMineIndexed(source, &cache_hit);
  event.cache_hit = cache_hit;
  // The cached vertical index lets stage 2 (when the screen fires) extend
  // both models via bitmap probes — window re-comparisons never re-scan
  // the snapshot's raw transactions.
  event.report = stream->monitor->InspectWithModel(source, *mined.model,
                                                   mined.index_ref());

  // The CUSUM series runs over delta*: unlike the exact deviation it is
  // computed for every snapshot (screened or not), giving a uniform
  // sequential signal.
  const core::DriftPoint drift = stream->cusum.Observe(event.report.upper_bound);
  event.cusum = drift.cusum;
  event.change_point = drift.change_point;
  event.latency_ms = timer.Millis();

  // Publish the queryable per-stream view (GET …/deviation) under the
  // state lock; the cached model+index pair keeps later (f,g) queries off
  // the raw data. The stream's worker is the only writer, so the copies
  // are coherent.
  {
    MutexLock lock(&state_mutex_);
    PublishStatusLocked(stream, event, mined);
  }

  if (metrics_ != nullptr) {
    metrics_->GetCounter("snapshots_processed").Increment();
    if (event.report.screened_out) {
      metrics_->GetCounter("screened_out").Increment();
    }
    if (event.report.alert) metrics_->GetCounter("alerts").Increment();
    if (event.change_point) metrics_->GetCounter("change_points").Increment();
    metrics_->GetHistogram("inspect_latency_ms").Observe(event.latency_ms);
    metrics_->GetGauge("queue_depth").Set(static_cast<double>(queue_.size()));
  }
  return event;
}

void MonitorService::PublishStatusLocked(Stream* stream,
                                         const StreamEvent& event,
                                         const MinedSnapshot& mined) {
  StreamStatus& status = stream->status;
  ++status.processed;
  status.has_snapshot = true;
  status.sequence = event.sequence;
  status.num_transactions = event.num_transactions;
  status.delta_star = event.report.upper_bound;
  status.screened_out = event.report.screened_out;
  status.deviation = event.report.deviation;
  status.significance_percent = event.report.significance_percent;
  status.alert = event.report.alert;
  status.cusum = event.cusum;
  status.change_point = event.change_point;
  status.baseline_ready = stream->cusum.baseline_ready();
  status.baseline_mean = stream->cusum.baseline_mean();
  status.baseline_sd = stream->cusum.baseline_sd();
  stream->last_mined = mined;
}

void MonitorService::FinishOne() {
  MutexLock lock(&state_mutex_);
  --in_flight_;
  ++processed_;
  idle_cv_.NotifyAll();
}

void MonitorService::Flush() {
  MutexLock lock(&state_mutex_);
  idle_cv_.Wait(state_mutex_,
                [this]() REQUIRES(state_mutex_) { return in_flight_ == 0; });
}

void MonitorService::Shutdown() {
  {
    MutexLock lock(&state_mutex_);
    if (shutdown_) return;
    shutdown_ = true;
    idle_cv_.NotifyAll();  // wake Submit callers blocked on backpressure
  }
  queue_.Close();
  if (dispatcher_.joinable()) dispatcher_.join();
  Flush();        // drain jobs still running on the pool
  pool_.reset();  // joins the workers
}

int64_t MonitorService::processed() const {
  MutexLock lock(&state_mutex_);
  return processed_;
}

}  // namespace focus::serve
