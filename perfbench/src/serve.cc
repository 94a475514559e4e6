// serve_mixed / serve_sharded: the monitoring deployment over loopback HTTP.
//
//   serve_mixed    HttpServer -> HttpApi -> MonitorService (one event loop)
//   serve_sharded  2 SO_REUSEPORT reactors -> ShardedApi -> ShardRouter ->
//                  LocalShardChannel -> 2 ShardWorkers
//
// Load (4 connections from this process):
//   ingest  open loop at a fixed rate from one generator thread over one
//           connection; bodies from a pre-serialized pool, one in five
//           from a drifted process so stage 2 runs on it. Latency is timed
//           from the moment each request was due.
//   reads   3 closed-loop connections, deviation polls and compares 3:1.
//
// Every answer is checked: ingest content hashes, poll deviations (against
// LitsDeviation of the reference and the snapshot at the polled sequence)
// and compare deviations (against LitsDeviation of the two pool snapshots),
// all bit for bit against values computed in set-up.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/lits_deviation.h"
#include "core/lits_upper_bound.h"
#include "core/significance.h"
#include "data/vertical_index.h"
#include "datagen/quest_gen.h"
#include "io/data_io.h"
#include "itemsets/apriori.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/router.h"
#include "serve/api_util.h"
#include "serve/http_api.h"
#include "serve/metrics.h"
#include "serve/model_cache.h"
#include "serve/monitor_service.h"
#include "shard/shard_router.h"
#include "shard/shard_worker.h"
#include "shard/sharded_api.h"
#include "stats/rng.h"
#include "workload.h"

namespace focus::perfbench {
namespace {

constexpr int kStreams = 4;
constexpr int kPoolSize = 16;
// The last 4 pool bodies come from a drifted process; one ingest in 5
// carries one of them. Ingests rotate over the 4 streams, so each stream
// gets a drifted snapshot every 20 ingests and stage 2 (about 300 ms) has
// finished before that stream's next snapshot arrives.
constexpr int kDriftedBodies = 4;
constexpr int kDriftPeriod = 5;
constexpr int kComparePairs = 24;
constexpr int64_t kSnapshotTransactions = 1000;
constexpr uint64_t kPatternSeed = 99;
constexpr uint64_t kDriftedPatternSeed = 7;
// About half the rate at which the ingest queue starts to grow on a 4-CPU
// host (about 20 snapshots/s).
constexpr double kIngestPerSecond = 10.0;
// Reader connections: 3, fewer on hosts with under 4 CPUs, so load
// threads (readers + the ingest generator) never outnumber the CPUs.
int Readers() {
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cpus - 1, 1, 3);
}
// Pause between a reader's reply and its next request. The load generator
// shares the host's CPUs with the server; without the pause three readers
// saturate them and every latency measures CPU contention with the client.
constexpr double kReaderThinkMs = 1.0;
constexpr int kShards = 2;

serve::MonitorServiceOptions ServiceOptions() {
  serve::MonitorServiceOptions options;
  options.monitor.apriori.min_support = 0.02;
  options.monitor.apriori.max_itemset_size = 2;
  options.monitor.calibration_replicates = 3;
  options.monitor.significance.num_replicates = 3;
  options.num_threads = 2;
  options.queue_capacity = 32;
  return options;
}

std::string StreamName(int stream) {
  std::string name = "s";
  name += std::to_string(stream);
  return name;
}

// ---------------------------------------------------------------------------
// Inputs and the answers they must produce.

struct Pool {
  data::TransactionDb reference;
  std::vector<std::string> bodies;       // focus-txns-v1 text
  std::vector<std::string> hashes;       // content hash (hex) as parsed
};

datagen::QuestParams SnapshotParams(uint64_t seed, uint64_t which,
                                    bool drifted) {
  datagen::QuestParams params;
  params.num_transactions = kSnapshotTransactions;
  params.avg_transaction_length = 20;
  params.num_items = 1000;
  params.num_patterns = 500;
  params.avg_pattern_length = 4;
  params.pattern_seed = drifted ? kDriftedPatternSeed : kPatternSeed;
  params.seed = DeriveSeed(seed, 100 + which);
  return params;
}

Pool MakePool(uint64_t seed) {
  Span span("datagen.generate");
  Pool pool{datagen::GenerateQuest(SnapshotParams(seed, 0, false)), {}, {}};
  for (int b = 0; b < kPoolSize; ++b) {
    const data::TransactionDb db = datagen::GenerateQuest(
        SnapshotParams(seed, 1 + b, b >= kPoolSize - kDriftedBodies));
    std::ostringstream out;
    io::SaveTransactionDb(db, out);
    pool.bodies.push_back(out.str());
  }
  return pool;
}

struct Expected {
  std::vector<double> poll;  // per body: deviation from the reference
  struct Pair {
    int left = 0;
    int right = 0;
    double deviation = 0.0;
  };
  std::vector<Pair> compares;
  int64_t gcr_regions = 0;  // median over compare pairs
};

// Mines every pool body exactly as the service's model cache does and
// computes the answers polls and compares must return. Fills the pool's
// hashes from the parsed bodies, as the ingest handler computes them.
bool ComputeExpected(Pool* pool, uint64_t seed, Expected* expected,
                     std::string* error) {
  const lits::AprioriOptions mining = ServiceOptions().monitor.apriori;
  const core::DeviationFunction fn;  // abs/sum, the API's default
  const data::VerticalIndex ref_index(pool->reference);
  const lits::LitsModel ref_model =
      lits::Apriori(pool->reference, mining, ref_index);
  std::vector<data::TransactionDb> dbs;
  for (const std::string& body : pool->bodies) {
    std::istringstream in(body);
    auto db = io::LoadTransactionDb(in, error);
    if (!db.has_value()) return false;
    pool->hashes.push_back(
        serve::HashHex(serve::TransactionDbContentHash(*db)));
    dbs.push_back(std::move(*db));
  }
  std::vector<data::VerticalIndex> indexes;
  std::vector<lits::LitsModel> models;
  for (const data::TransactionDb& db : dbs) {
    indexes.emplace_back(db);
    models.push_back(lits::Apriori(db, mining, indexes.back()));
    expected->poll.push_back(core::LitsDeviation(
        ref_model, ref_index, models.back(), indexes.back(), fn));
  }
  // Compare pairs: three in four join two same-process bodies, one in four
  // a same-process and a drifted body. The fixed mix keeps the cost of the
  // median compare from changing with the seed.
  constexpr int kSameProcess = kPoolSize - kDriftedBodies;
  std::mt19937_64 rng = stats::MakeRng(DeriveSeed(seed, 200));
  std::vector<double> regions;
  for (int p = 0; p < kComparePairs; ++p) {
    Expected::Pair pair;
    pair.left = static_cast<int>(rng() % kSameProcess);
    pair.right =
        p % 4 == 3
            ? kSameProcess + static_cast<int>(rng() % kDriftedBodies)
            : (pair.left + 1 + static_cast<int>(rng() % (kSameProcess - 1))) %
                  kSameProcess;
    const lits::LitsModel& m1 = models[pair.left];
    const lits::LitsModel& m2 = models[pair.right];
    Traced("core.lits_upper_bound",
           [&] { return core::LitsUpperBound(m1, m2, fn.g); });
    pair.deviation = Traced("core.lits_deviation", [&] {
      return core::LitsDeviation(m1, indexes[pair.left], m2,
                                 indexes[pair.right], fn);
    });
    regions.push_back(static_cast<double>(core::LitsGcr(m1, m2).size()));
    expected->compares.push_back(pair);
  }
  expected->gcr_regions = static_cast<int64_t>(Median(regions));
  return true;
}

// ---------------------------------------------------------------------------
// Observation hooks: processed-snapshot events, and which pool body each
// stream sequence number carries.

struct EventInfo {
  double done_ms = 0.0;
  double inspect_ms = 0.0;
  bool screened_out = false;
  bool cache_hit = false;
};

class EventLog {
 public:
  void Record(const serve::StreamEvent& event) {
    EventInfo info;
    info.done_ms = NowMs();
    info.inspect_ms = event.latency_ms;
    info.screened_out = event.report.screened_out;
    info.cache_hit = event.cache_hit;
    common::MutexLock lock(&mu_);
    events_[{event.stream, event.sequence}] = info;
  }
  bool Find(const std::string& stream, int64_t sequence,
            EventInfo* info) const {
    common::MutexLock lock(&mu_);
    const auto it = events_.find({stream, sequence});
    if (it == events_.end()) return false;
    *info = it->second;
    return true;
  }

 private:
  mutable common::Mutex mu_;
  std::map<std::pair<std::string, int64_t>, EventInfo> events_
      GUARDED_BY(mu_);
};

// Sequences are dense per stream and assigned in submission order; one
// thread ingests at a time, so the next sequence is known before sending.
class SequenceBook {
 public:
  int64_t Reserve(int stream, int body) {
    common::MutexLock lock(&mu_);
    bodies_[stream].push_back(body);
    return static_cast<int64_t>(bodies_[stream].size()) - 1;
  }
  void Release(int stream) {  // the reserved sequence was not accepted
    common::MutexLock lock(&mu_);
    bodies_[stream].pop_back();
  }
  int BodyAt(int stream, int64_t sequence) const {
    common::MutexLock lock(&mu_);
    const auto& bodies = bodies_[stream];
    return sequence >= 0 && sequence < static_cast<int64_t>(bodies.size())
               ? bodies[sequence]
               : -1;
  }

 private:
  mutable common::Mutex mu_;
  std::vector<int> bodies_[kStreams] GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Layer hooks installed from outside the library.

// Times each dispatch into the API's own router (net.handler_*). The
// client passes its span id in the query (bench_span, bench_op) so the
// handler span links to the request span on the client thread.
net::Router TimedRouter(const net::Router* inner) {
  const auto timed = [inner](const char* name) {
    return [inner, name](const net::HttpRequest& request,
                         const net::PathParams&) {
      if (!Tracer::Get().enabled()) return inner->Dispatch(request);
      int64_t parent = 0, op = 0;
      if (const auto it = request.query.find("bench_span");
          it != request.query.end()) {
        parent = std::atoll(it->second.c_str());
      }
      if (const auto it = request.query.find("bench_op");
          it != request.query.end()) {
        op = std::atoll(it->second.c_str());
      }
      Span span(name, op, parent);
      return inner->Dispatch(request);
    };
  };
  net::Router outer;
  outer.Handle("POST", "/v1/streams/{name}/snapshots",
               timed("net.handler_ingest"));
  outer.Handle("GET", "/v1/streams/{name}/deviation",
               timed("net.handler_poll"));
  outer.Handle("POST", "/v1/compare", timed("net.handler_compare"));
  return outer;
}

const char* CallSpanName(shard::MessageType type) {
  switch (type) {
    case shard::MessageType::kSubmitSnapshot:
      return "shard.call_submit";
    case shard::MessageType::kDeviationQuery:
      return "shard.call_deviation";
    case shard::MessageType::kCompare:
      return "shard.call_compare";
    case shard::MessageType::kModelRegions:
      return "shard.call_model_regions";
    case shard::MessageType::kExtendRegions:
      return "shard.call_extend_regions";
    default:
      return "shard.call_other";
  }
}

// Timing decorator around one shard's channel: a span per call (a child of
// the handler span on the same reactor thread) plus frame byte counts.
class TimingChannel : public shard::ShardChannel {
 public:
  explicit TimingChannel(shard::ShardChannel* inner) : inner_(inner) {}

  bool Call(shard::MessageType type, const std::string& payload,
            shard::Frame* response, std::string* error) override {
    if (!Tracer::Get().enabled()) {
      return inner_->Call(type, payload, response, error);
    }
    Span span(CallSpanName(type));
    const bool ok = inner_->Call(type, payload, response, error);
    calls_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(static_cast<int64_t>(payload.size() +
                                          response->payload.size()),
                     std::memory_order_relaxed);
    return ok;
  }

  int64_t calls() const { return calls_.load(); }
  int64_t bytes() const { return bytes_.load(); }

 private:
  shard::ShardChannel* const inner_;
  std::atomic<int64_t> calls_{0};
  std::atomic<int64_t> bytes_{0};
};

// ---------------------------------------------------------------------------
// One deployment: the single-loop stack or the sharded one.

class Deployment {
 public:
  Deployment(const Pool& pool, bool sharded, EventLog* events)
      : pool_(pool) {
    const auto sink = [events](const serve::StreamEvent& event) {
      events->Record(event);
    };
    if (!sharded) {
      service_ = std::make_unique<serve::MonitorService>(ServiceOptions(),
                                                         &metrics_);
      service_->SetEventSink(sink);
      api_ = std::make_unique<serve::HttpApi>(serve::HttpApiOptions{},
                                              service_.get(), &pool_.reference,
                                              &metrics_);
      AddReactor(api_->BuildRouter(), [api = api_.get()](
                                           const net::HttpServer* server) {
        api->AttachServer(server);
      });
      return;
    }
    std::vector<shard::ShardChannel*> channels;
    for (int s = 0; s < kShards; ++s) {
      shard::ShardWorkerOptions options;
      options.shard_index = static_cast<uint32_t>(s);
      options.service = ServiceOptions();
      workers_.push_back(std::make_unique<shard::ShardWorker>(
          options, &pool_.reference, &metrics_));
      workers_.back()->service().SetEventSink(sink);
      local_.push_back(
          std::make_unique<shard::LocalShardChannel>(workers_.back().get()));
      timing_.push_back(std::make_unique<TimingChannel>(local_.back().get()));
      channels.push_back(timing_.back().get());
    }
    for (int r = 0; r < kShards; ++r) {
      routers_.push_back(std::make_unique<shard::ShardRouter>(channels));
      shard::ShardedApiOptions options;
      options.reactor_index = r;
      sharded_apis_.push_back(std::make_unique<shard::ShardedApi>(
          options, routers_.back().get(), &metrics_));
      AddReactor(sharded_apis_.back()->BuildRouter(),
                 [api = sharded_apis_.back().get()](
                     const net::HttpServer* server) {
                   api->AttachServer(server);
                 });
    }
  }

  ~Deployment() {
    for (auto& reactor : reactors_) {
      if (reactor.server != nullptr) reactor.server->Stop();
    }
    for (serve::MonitorService* service : services()) service->Shutdown();
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // Starts the reactors on one port (SO_REUSEPORT when sharded).
  bool Start(std::string* error) {
    for (Reactor& reactor : reactors_) {
      net::HttpServerOptions options;
      options.port = port_;
      options.reuse_port = reactors_.size() > 1;
      reactor.server = std::make_unique<net::HttpServer>(
          options, TimedRouter(reactor.inner.get()));
      reactor.attach(reactor.server.get());
      if (!reactor.server->Start(error)) return false;
      port_ = reactor.server->port();
    }
    return true;
  }

  uint16_t port() const { return port_; }

  std::vector<serve::MonitorService*> services() {
    std::vector<serve::MonitorService*> out;
    if (service_ != nullptr) out.push_back(service_.get());
    for (auto& worker : workers_) out.push_back(&worker->service());
    return out;
  }

  // Registers every stream on the service that owns it: mines the
  // reference and calibrates stage 1 (the ingest handler would do this
  // lazily on first ingest).
  void AddStreams() {
    for (int s = 0; s < kStreams; ++s) {
      serve::MonitorService* owner =
          service_ != nullptr
              ? service_.get()
              : &workers_[routers_.front()->ShardFor(StreamName(s))]
                     ->service();
      Span span("serve.add_stream");
      owner->AddStream(StreamName(s), pool_.reference);
    }
  }

  void Flush() {
    for (serve::MonitorService* service : services()) service->Flush();
  }

  net::HttpServerStats Stats() const {
    net::HttpServerStats total;
    for (const auto& reactor : reactors_) {
      const net::HttpServerStats stats = reactor.server->stats();
      total.requests_handled += stats.requests_handled;
      total.parse_errors += stats.parse_errors;
      total.connections_refused += stats.connections_refused;
    }
    return total;
  }

  // Connections each reactor has accepted so far.
  std::vector<int64_t> Accepted() const {
    std::vector<int64_t> accepted;
    for (const auto& reactor : reactors_) {
      accepted.push_back(reactor.server->stats().connections_accepted);
    }
    return accepted;
  }

  int64_t ShardCalls() const {
    int64_t calls = 0;
    for (const auto& channel : timing_) calls += channel->calls();
    return calls;
  }
  int64_t ShardBytes() const {
    int64_t bytes = 0;
    for (const auto& channel : timing_) bytes += channel->bytes();
    return bytes;
  }

 private:
  struct Reactor {
    std::unique_ptr<net::Router> inner;  // the API's own routes
    std::function<void(const net::HttpServer*)> attach;
    std::unique_ptr<net::HttpServer> server;
  };

  void AddReactor(net::Router api_router,
                  std::function<void(const net::HttpServer*)> attach) {
    Reactor reactor;
    reactor.inner = std::make_unique<net::Router>(std::move(api_router));
    reactor.attach = std::move(attach);
    reactors_.push_back(std::move(reactor));
  }

  const Pool& pool_;
  serve::MetricsRegistry metrics_;
  std::unique_ptr<serve::MonitorService> service_;
  std::unique_ptr<serve::HttpApi> api_;
  std::vector<std::unique_ptr<shard::ShardWorker>> workers_;
  std::vector<std::unique_ptr<shard::LocalShardChannel>> local_;
  std::vector<std::unique_ptr<TimingChannel>> timing_;
  std::vector<std::unique_ptr<shard::ShardRouter>> routers_;
  std::vector<std::unique_ptr<shard::ShardedApi>> sharded_apis_;
  std::vector<Reactor> reactors_;
  uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// Load generation.

enum Kind { kIngest = 0, kPoll = 1, kCompare = 2, kKinds = 3 };
constexpr const char* kRequestSpan[kKinds] = {"http.ingest", "http.poll",
                                              "http.compare"};

struct Ingested {
  int stream = 0;
  int64_t sequence = 0;
  double due_ms = 0.0;
};

// What one load thread saw; merged after the threads join.
struct LoadStats {
  std::vector<double> latency_ms[kKinds];
  std::vector<double> late_ms;  // ingest: send time minus due time
  std::vector<Ingested> ingested;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t completed = 0;  // 2xx with a correct answer
  int64_t overloaded = 0;
  std::vector<std::string> wrong;  // the first few failures
  double seconds = 0.0;

  // A failed request: an error status (429 included), a dropped
  // connection or a wrong answer.
  void Fail(std::string what) {
    ++failed;
    if (wrong.size() < 8) wrong.push_back(std::move(what));
  }

  void Merge(LoadStats other) {
    for (int k = 0; k < kKinds; ++k) {
      latency_ms[k].insert(latency_ms[k].end(), other.latency_ms[k].begin(),
                           other.latency_ms[k].end());
    }
    late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
    ingested.insert(ingested.end(), other.ingested.begin(),
                    other.ingested.end());
    attempted += other.attempted;
    failed += other.failed;
    completed += other.completed;
    overloaded += other.overloaded;
    wrong.insert(wrong.end(), other.wrong.begin(), other.wrong.end());
  }
  std::vector<double> AllLatencies() const {
    std::vector<double> all;
    for (const auto& kind : latency_ms) {
      all.insert(all.end(), kind.begin(), kind.end());
    }
    return all;
  }
};

std::string StringField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  return json.substr(begin, json.find('"', begin) - begin);
}

bool NumberField(const std::string& json, const std::string& key,
                 double* value) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  const char* begin = json.c_str() + at + needle.size();
  char* end = nullptr;
  *value = std::strtod(begin, &end);
  return end != begin;
}

class Load {
 public:
  Load(const Deployment& deployment, const Pool& pool,
       const Expected& expected, SequenceBook* book, uint64_t seed)
      : deployment_(deployment),
        pool_(pool),
        expected_(expected),
        book_(book),
        seed_(seed) {}

  // Ingests every pool body once (body b to stream b mod 4), in order.
  void Warm(LoadStats* stats) {
    net::HttpClient client;
    if (!client.Connect("127.0.0.1", deployment_.port())) {
      stats->Fail("warm-up cannot connect");
      return;
    }
    for (int b = 0; b < kPoolSize; ++b) {
      Ingest(client, b % kStreams, b, NowMs(), /*op=*/0, stats);
    }
  }

  // Runs the mixed load for `seconds`; spans are recorded when tracing is
  // on. `window` varies the ingest schedule between windows of one run.
  LoadStats Run(double seconds, int window) {
    const int readers = Readers();
    std::vector<net::HttpClient> clients;
    LoadStats total;
    if (!ConnectSpread(1 + readers, &clients)) {
      total.wrong.push_back("cannot place the load connections");
      return total;
    }
    const double start = NowMs();
    const double end = start + seconds * 1e3;
    std::vector<LoadStats> per_thread(1 + readers);
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      IngestLoop(clients[0], start, end, window, &per_thread[0]);
    });
    for (int r = 0; r < readers; ++r) {
      threads.emplace_back(
          [&, r] { ReadLoop(clients[1 + r], end, r, &per_thread[1 + r]); });
    }
    for (std::thread& thread : threads) thread.join();
    for (LoadStats& stats : per_thread) total.Merge(std::move(stats));
    total.seconds = (NowMs() - start) / 1e3;
    return total;
  }

 private:
  int64_t NextOp() { return next_op_.fetch_add(1); }

  // Adds the ids that link the handler span to this request's span.
  static std::string Tag(std::string target, const Span& span, int64_t op) {
    if (!Tracer::Get().enabled()) return target;
    target += target.find('?') == std::string::npos ? '?' : '&';
    return target + "bench_span=" + std::to_string(span.id()) +
           "&bench_op=" + std::to_string(op);
  }

  // Opens `count` connections, connection i accepted by reactor
  // i mod reactors. SO_REUSEPORT spreads connections by a hash of their
  // ports, so four connections land 4:0, 3:1 or 2:2 at random, and the
  // latencies differ by layout; the benchmark pins the 2:2 layout that
  // many connections would average to.
  bool ConnectSpread(int count, std::vector<net::HttpClient>* clients) {
    const int reactors = static_cast<int>(deployment_.Accepted().size());
    constexpr int kAttempts = 64;
    for (int i = 0; i < count; ++i) {
      bool placed = false;
      for (int attempt = 0; attempt < kAttempts && !placed; ++attempt) {
        const std::vector<int64_t> before = deployment_.Accepted();
        net::HttpClient client;
        if (!client.Connect("127.0.0.1", deployment_.port())) return false;
        int reactor = -1;
        for (int wait_ms = 0; reactor < 0 && wait_ms < 2000; ++wait_ms) {
          const std::vector<int64_t> after = deployment_.Accepted();
          for (int r = 0; r < reactors; ++r) {
            if (after[r] > before[r]) reactor = r;
          }
          if (reactor < 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        if (reactor == i % reactors) {
          clients->push_back(std::move(client));
          placed = true;
        }
      }
      if (!placed) return false;
    }
    return true;
  }

  void Reconnect(net::HttpClient& client) {
    client.Close();
    client.Connect("127.0.0.1", deployment_.port());
  }

  void IngestLoop(net::HttpClient& client, double start, double end,
                  int window, LoadStats* stats) {
    std::mt19937_64 rng = stats::MakeRng(DeriveSeed(seed_, 300 + window));
    const double interval_ms = 1e3 / kIngestPerSecond;
    for (int64_t k = 0;; ++k) {
      const double due = start + static_cast<double>(k) * interval_ms;
      if (due >= end) break;
      const double wait = due - NowMs();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(wait));
      }
      stats->late_ms.push_back(NowMs() - due);
      const int body =
          k % kDriftPeriod == kDriftPeriod - 1
              ? kPoolSize - kDriftedBodies +
                    static_cast<int>(rng() % kDriftedBodies)
              : static_cast<int>(rng() % (kPoolSize - kDriftedBodies));
      if (!Ingest(client, static_cast<int>(k % kStreams), body, due, NextOp(),
                  stats)) {
        Reconnect(client);
      }
    }
  }

  // One ingest; false when the connection dropped.
  bool Ingest(net::HttpClient& client, int stream, int body, double due,
              int64_t op, LoadStats* stats) {
    const int64_t sequence = book_->Reserve(stream, body);
    ++stats->attempted;
    std::optional<net::HttpClientResponse> response;
    {
      Span span(kRequestSpan[kIngest], op);
      response = client.Post(
          Tag("/v1/streams/" + StreamName(stream) + "/snapshots", span, op),
          pool_.bodies[body], "text/plain");
    }
    const double done = NowMs();
    if (!response.has_value() || response->status != 202) {
      book_->Release(stream);
      if (!response.has_value()) {
        stats->Fail("ingest: connection dropped");
        return false;
      }
      if (response->status == 429) ++stats->overloaded;
      stats->Fail("ingest answered HTTP " + std::to_string(response->status) +
                  ": " + response->body);
      return true;
    }
    double seq = -1;
    if (StringField(response->body, "content_hash") != pool_.hashes[body] ||
        !NumberField(response->body, "sequence", &seq) ||
        static_cast<int64_t>(seq) != sequence) {
      stats->Fail("ingest answer " + response->body);
      return true;
    }
    ++stats->completed;
    stats->latency_ms[kIngest].push_back(done - due);
    stats->ingested.push_back({stream, sequence, due});
    return true;
  }

  void ReadLoop(net::HttpClient& client, double end, int reader,
                LoadStats* stats) {
    for (int64_t i = 0; NowMs() < end; ++i) {
      if (i > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(kReaderThinkMs));
      }
      const bool compare = i % 4 == 3;
      const Kind kind = compare ? kCompare : kPoll;
      const int64_t op = NextOp();
      ++stats->attempted;
      const double sent = NowMs();
      std::optional<net::HttpClientResponse> response;
      int stream = 0;
      const Expected::Pair& pair =
          expected_.compares[(reader * 7 + i / 4) % kComparePairs];
      {
        Span span(kRequestSpan[kind], op);
        if (compare) {
          response = client.Post(Tag("/v1/compare?left=" +
                                         pool_.hashes[pair.left] + "&right=" +
                                         pool_.hashes[pair.right],
                                     span, op),
                                 "", "text/plain");
        } else {
          stream = static_cast<int>((reader + i) % kStreams);
          response = client.Get(
              Tag("/v1/streams/" + StreamName(stream) + "/deviation", span, op));
        }
      }
      const double done = NowMs();
      if (!response.has_value()) {
        stats->Fail(std::string(kRequestSpan[kind]) + ": connection dropped");
        Reconnect(client);
        continue;
      }
      if (response->status != 200) {
        stats->Fail(std::string(kRequestSpan[kind]) + " answered HTTP " +
                    std::to_string(response->status) + ": " + response->body);
        continue;
      }
      double deviation = 0.0;
      double expected = 0.0;
      bool ok = NumberField(response->body, "deviation", &deviation);
      if (compare) {
        expected = pair.deviation;
      } else {
        double seq = -1;
        ok = ok && NumberField(response->body, "seq", &seq);
        const int body = book_->BodyAt(stream, static_cast<int64_t>(seq));
        ok = ok && body >= 0;
        if (ok) expected = expected_.poll[body];
      }
      if (!ok || deviation != expected) {
        char what[96];
        std::snprintf(what, sizeof(what), "%s answered %.17g, expected %.17g",
                      kRequestSpan[kind], deviation, expected);
        stats->Fail(what + std::string(": ") + response->body);
        continue;
      }
      ++stats->completed;
      stats->latency_ms[kind].push_back(done - sent);
    }
  }

  const Deployment& deployment_;
  const Pool& pool_;
  const Expected& expected_;
  SequenceBook* const book_;
  const uint64_t seed_;
  std::atomic<int64_t> next_op_{1};
};

// Freshness (ingest due time until the event sink reported the snapshot
// processed) and its split into queue wait and inspect time.
struct Freshness {
  std::vector<double> freshness_ms, inspect_ms, queue_wait_ms;
  int64_t stage2 = 0;
  int64_t cache_hits = 0;
  int64_t missing = 0;
};

Freshness JoinEvents(const LoadStats& load, const EventLog& events) {
  Freshness out;
  for (const Ingested& ingest : load.ingested) {
    EventInfo info;
    if (!events.Find(StreamName(ingest.stream), ingest.sequence, &info)) {
      ++out.missing;
      continue;
    }
    const double freshness = info.done_ms - ingest.due_ms;
    out.freshness_ms.push_back(freshness);
    out.inspect_ms.push_back(info.inspect_ms);
    out.queue_wait_ms.push_back(freshness - info.inspect_ms);
    out.stage2 += info.screened_out ? 0 : 1;
    out.cache_hits += info.cache_hit ? 1 : 0;
  }
  return out;
}

void CountLoad(const LoadStats& load, Report* report) {
  report->attempted += load.attempted;
  report->failed += load.failed;
  for (const std::string& wrong : load.wrong) report->Wrong(wrong);
}

// Per request kind: median handler time and median of (client latency -
// handler time), pairing each handler span with its request span.
void HandlerSplit(const std::vector<SpanRecord>& spans, Report* report) {
  std::map<int64_t, const SpanRecord*> requests;
  for (const SpanRecord& span : spans) {
    if (span.name.rfind("http.", 0) == 0) requests[span.id] = &span;
  }
  const char* const kinds[] = {"ingest", "poll", "compare"};
  for (const char* kind : kinds) {
    const std::string handler = std::string("net.handler_") + kind;
    std::vector<double> inside, outside;
    for (const SpanRecord& span : spans) {
      if (span.name != handler) continue;
      inside.push_back(span.ms());
      const auto it = requests.find(span.parent);
      if (it != requests.end()) outside.push_back(it->second->ms() - span.ms());
    }
    report->per_layer[handler + "_ms_p50"] = Median(inside);
    report->per_layer[std::string("net.outside_handler_") + kind + "_ms_p50"] =
        Median(outside);
  }
}

}  // namespace

Report RunServe(const RunConfig& config, bool sharded) {
  Report report;
  Tracer& tracer = Tracer::Get();

  // The answers every request is checked against (untimed).
  Pool first = MakePool(config.seed);
  Expected expected;
  std::string error;
  tracer.SetEnabled(config.trace);
  const bool computed = ComputeExpected(&first, config.seed, &expected, &error);
  tracer.SetEnabled(false);
  if (!computed) {
    report.Wrong("pool body does not load: " + error);
    return report;
  }

  // Set-up, repeated: generate the pool, start the stack, register the
  // streams, ingest every pool body and wait until all are processed.
  std::vector<double> setup_s;
  std::unique_ptr<EventLog> events;
  std::unique_ptr<SequenceBook> book;
  std::unique_ptr<Pool> pool;
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<Load> load;
  LoadStats warm;
  for (int r = 0; r < kSetupRepeats; ++r) {
    load.reset();
    deployment.reset();
    pool.reset();
    events = std::make_unique<EventLog>();
    book = std::make_unique<SequenceBook>();
    warm = LoadStats{};
    tracer.SetEnabled(config.trace && r == kSetupRepeats - 1);
    const double start = NowMs();
    pool = std::make_unique<Pool>(MakePool(config.seed));
    pool->hashes = first.hashes;
    deployment = std::make_unique<Deployment>(*pool, sharded, events.get());
    if (!deployment->Start(&error)) {
      report.Wrong("cannot start the server: " + error);
      return report;
    }
    deployment->AddStreams();
    load = std::make_unique<Load>(*deployment, *pool, expected, book.get(),
                                  config.seed);
    load->Warm(&warm);
    deployment->Flush();
    setup_s.push_back((NowMs() - start) / 1e3);
    if (pool->bodies != first.bodies) {
      report.Wrong("pool generation is not deterministic");
    }
  }
  tracer.SetEnabled(false);
  std::vector<SpanRecord> setup_spans = tracer.Take();
  if (warm.completed != kPoolSize) {
    report.Wrong("warm-up ingested " + std::to_string(warm.completed) + " of " +
                 std::to_string(kPoolSize) + " pool bodies");
  }
  CountLoad(warm, &report);

  const Window window = SplitWindow(config);
  if (!ResetPeakRss()) report.Wrong("cannot reset the peak resident set");
  const LoadStats plain = load->Run(window.untraced_s, /*window=*/0);
  deployment->Flush();
  const double peak_rss_mib = PeakRssMib();
  CountLoad(plain, &report);
  const Freshness fresh = JoinEvents(plain, *events);
  if (fresh.missing > 0) {
    report.Wrong(std::to_string(fresh.missing) +
                 " accepted snapshots never reported processed");
  }

  auto& e2e = report.end_to_end;
  e2e["setup_s"] = Median(setup_s);
  e2e["peak_rss_mib"] = peak_rss_mib;
  e2e["throughput_ops_s"] = static_cast<double>(plain.completed) / plain.seconds;
  e2e["compare_ms_p50"] = Median(plain.latency_ms[kCompare]);
  e2e["answer_ms_p90"] = Quantile(fresh.freshness_ms, 0.9);
  report.samples["ingest"] =
      static_cast<int64_t>(plain.latency_ms[kIngest].size());
  report.samples["poll"] = static_cast<int64_t>(plain.latency_ms[kPoll].size());
  report.samples["compare"] =
      static_cast<int64_t>(plain.latency_ms[kCompare].size());
  report.samples["request"] =
      static_cast<int64_t>(plain.AllLatencies().size());
  report.samples["freshness"] =
      static_cast<int64_t>(fresh.freshness_ms.size());

  if (config.trace) {
    const net::HttpServerStats before = deployment->Stats();
    const int64_t calls_before = deployment->ShardCalls();
    const int64_t bytes_before = deployment->ShardBytes();
    tracer.SetEnabled(true);
    const LoadStats traced = load->Run(window.traced_s, /*window=*/1);
    deployment->Flush();
    const net::HttpServerStats after = deployment->Stats();
    const int64_t calls = deployment->ShardCalls() - calls_before;
    const int64_t bytes = deployment->ShardBytes() - bytes_before;
    // Standalone calls into the layers the ingest path crosses.
    const lits::AprioriOptions mining = ServiceOptions().monitor.apriori;
    std::optional<data::TransactionDb> drifted;
    for (const std::string& body : pool->bodies) {
      std::istringstream in(body);
      std::optional<data::TransactionDb> db =
          Traced("io.load_transactions",
                 [&] { return io::LoadTransactionDb(in, nullptr); });
      if (!db.has_value()) continue;
      Traced("serve.content_hash",
             [&] { return serve::TransactionDbContentHash(*db); });
      drifted = std::move(db);  // the last body is a drifted one
    }
    if (drifted.has_value()) {
      Traced("itemsets.apriori_horizontal",
             [&] { return lits::Apriori(*drifted, mining).size(); });
      Traced("stats.significance", [&] {
        return core::LitsDeviationSignificance(
            pool->reference, *drifted, mining, core::DeviationFunction{},
            ServiceOptions().monitor.significance);
      });
    }
    tracer.SetEnabled(false);
    CountLoad(traced, &report);
    std::vector<SpanRecord> spans = tracer.Take();
    const Freshness traced_fresh = JoinEvents(traced, *events);

    auto& layer = report.per_layer;
    const auto summary = SummarizeSpans(spans);
    ReportSelfTimes(summary, &report);
    const auto setup_summary = SummarizeSpans(setup_spans);
    layer["op.http_ingest_ms_p50"] = Median(plain.latency_ms[kIngest]);
    layer["op.http_ingest_ms_p90"] = Quantile(plain.latency_ms[kIngest], 0.9);
    layer["op.http_poll_ms_p50"] = Median(plain.latency_ms[kPoll]);
    layer["op.http_poll_ms_p90"] = Quantile(plain.latency_ms[kPoll], 0.9);
    layer["op.http_compare_ms_p50"] = Median(plain.latency_ms[kCompare]);
    layer["op.http_compare_ms_p90"] = Quantile(plain.latency_ms[kCompare], 0.9);
    layer["op.freshness_ms_p50"] = Median(fresh.freshness_ms);
    layer["op.freshness_ms_p90"] = Quantile(fresh.freshness_ms, 0.9);
    layer["datagen.generate_s"] =
        MedianMs(setup_summary, "datagen.generate") / 1e3;
    layer["serve.add_stream_ms"] = MedianMs(setup_summary, "serve.add_stream");
    layer["core.lits_upper_bound_ms"] =
        MedianMs(setup_summary, "core.lits_upper_bound");
    layer["core.lits_deviation_ms"] =
        MedianMs(setup_summary, "core.lits_deviation");
    layer["core.gcr_regions"] = static_cast<double>(expected.gcr_regions);
    layer["io.load_transactions_ms"] = MedianMs(summary, "io.load_transactions");
    layer["serve.content_hash_ms"] = MedianMs(summary, "serve.content_hash");
    layer["itemsets.apriori_horizontal_ms"] =
        MedianMs(summary, "itemsets.apriori_horizontal");
    layer["stats.significance_replicate_ms"] =
        MedianMs(summary, "stats.significance") /
        (ServiceOptions().monitor.significance.num_replicates + 1);
    layer["serve.inspect_ms_p50"] = Median(traced_fresh.inspect_ms);
    layer["serve.inspect_ms_p90"] = Quantile(traced_fresh.inspect_ms, 0.9);
    layer["serve.queue_wait_ms_p50"] = Median(traced_fresh.queue_wait_ms);
    layer["serve.queue_wait_ms_p90"] =
        Quantile(traced_fresh.queue_wait_ms, 0.9);
    const double processed =
        static_cast<double>(traced_fresh.freshness_ms.size());
    layer["serve.stage2_ratio"] =
        processed > 0 ? static_cast<double>(traced_fresh.stage2) / processed
                      : 0.0;
    layer["serve.model_cache_hit_ratio"] =
        processed > 0
            ? static_cast<double>(traced_fresh.cache_hits) / processed
            : 0.0;
    layer["serve.ingest_overloaded"] = static_cast<double>(traced.overloaded);
    HandlerSplit(spans, &report);
    layer["net.requests_handled"] =
        static_cast<double>(after.requests_handled - before.requests_handled);
    layer["net.parse_errors"] =
        static_cast<double>(after.parse_errors - before.parse_errors);
    layer["net.connections_refused"] = static_cast<double>(
        after.connections_refused - before.connections_refused);
    if (sharded) {
      for (const char* name :
           {"shard.call_submit", "shard.call_deviation", "shard.call_compare",
            "shard.call_model_regions", "shard.call_extend_regions"}) {
        layer[std::string(name) + "_ms_p50"] = MedianMs(summary, name);
      }
      const double requests = static_cast<double>(traced.attempted);
      layer["shard.calls_per_request"] =
          requests > 0 ? static_cast<double>(calls) / requests : 0.0;
      layer["shard.frame_bytes_per_call"] =
          calls > 0 ? static_cast<double>(bytes) / static_cast<double>(calls)
                    : 0.0;
    }
    layer["bench.ingest_late_ms_p90"] = Quantile(plain.late_ms, 0.9);
    layer["bench.tracing_overhead_pct"] =
        (Median(traced.AllLatencies()) / Median(plain.AllLatencies()) - 1.0) *
        100.0;
    report.samples["traced_request"] =
        static_cast<int64_t>(traced.AllLatencies().size());
    for (const char* kind : kRequestSpan) {
      ReportAccounting(spans, kind, &report);
    }
    spans.insert(spans.end(), setup_spans.begin(), setup_spans.end());
    WriteSpans(spans, config.workdir + "/spans.jsonl");
  }

  load.reset();
  deployment.reset();
  return report;
}

}  // namespace focus::perfbench
