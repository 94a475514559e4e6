// Socket-level integration tests for the network serving stack: a real
// HttpServer on an ephemeral loopback port routing into serve::HttpApi
// over each of its backends — one MonitorService, or a ShardRouter over
// two in-process shard workers. Every case runs on both, and one case
// diffs their answers byte for byte. Run under TSan in CI: concurrent
// clients hammer ingest while the event loop, dispatcher, and worker pool
// all interact.

#include <gtest/gtest.h>

#include "common/mutex.h"

#include <atomic>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "datagen/quest_gen.h"
#include "io/data_io.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "serve/api_util.h"
#include "serve/http_api.h"
#include "serve/metrics.h"
#include "serve/model_cache.h"
#include "serve/monitor_service.h"
#include "shard/hash_ring.h"
#include "shard/shard_router.h"
#include "shard/shard_worker.h"

namespace focus::serve {
namespace {

data::TransactionDb QuestDb(uint64_t seed, int num_transactions = 300) {
  datagen::QuestParams params;
  params.num_transactions = num_transactions;
  params.num_items = 60;
  params.num_patterns = 100;
  params.avg_pattern_length = 4;
  params.avg_transaction_length = 8;
  params.seed = seed;
  params.pattern_seed = 99;
  return datagen::GenerateQuest(params);
}

std::string Serialize(const data::TransactionDb& db) {
  std::ostringstream out;
  io::SaveTransactionDb(db, out);
  return out.str();
}

// Pulls `"key":"value"` or `"key":number` out of a flat JSON response.
// (The payloads are machine-generated and flat, so this stays honest.)
std::string JsonField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  size_t begin = at + needle.size();
  if (json[begin] == '"') {
    const size_t end = json.find('"', begin + 1);
    return json.substr(begin + 1, end - begin - 1);
  }
  size_t end = begin;
  while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
  return json.substr(begin, end - begin);
}

enum class Backend { kLocal, kSharded };
constexpr Backend kBackends[] = {Backend::kLocal, Backend::kSharded};
constexpr int kShards = 2;

const char* BackendName(Backend backend) {
  return backend == Backend::kLocal ? "local backend" : "2-shard router";
}

// Boots the whole stack (backend + api + server) around one reference db.
// The sharded backend is a ShardRouter over in-process ShardWorkers:
// LocalShardChannel runs the full frame codecs, only the sockets are gone.
class ApiStack {
 public:
  explicit ApiStack(Backend backend, MonitorServiceOptions service_options =
                                         MonitorServiceOptions())
      : reference_(QuestDb(1)) {
    if (backend == Backend::kLocal) {
      service_ = std::make_unique<MonitorService>(service_options, &metrics_);
      api_ = std::make_unique<HttpApi>(HttpApiOptions(), service_.get(),
                                       &reference_, &metrics_);
    } else {
      std::vector<shard::ShardChannel*> channels;
      for (uint32_t s = 0; s < kShards; ++s) {
        shard::ShardWorkerOptions options;
        options.shard_index = s;
        options.service = service_options;
        workers_.push_back(std::make_unique<shard::ShardWorker>(
            options, &reference_, &metrics_));
        channels_.push_back(
            std::make_unique<shard::LocalShardChannel>(workers_.back().get()));
        channels.push_back(channels_.back().get());
      }
      router_ = std::make_unique<shard::ShardRouter>(channels, &metrics_);
      api_ = std::make_unique<HttpApi>(HttpApiOptions(), router_.get(),
                                       &metrics_);
    }
    server_ = std::make_unique<net::HttpServer>(net::HttpServerOptions{},
                                                api_->BuildRouter());
    api_->AttachServer(server_.get());
    std::string error;
    started_ = server_->Start(&error);
    EXPECT_TRUE(started_) << error;
  }

  ~ApiStack() {
    server_->Stop();
    if (service_ != nullptr) service_->Shutdown();
    for (auto& worker : workers_) worker->Stop();
  }

  net::HttpClient Client(int timeout_ms = 10'000) {
    net::HttpClient client(timeout_ms);
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()));
    return client;
  }

  // Waits until every accepted snapshot is processed.
  void Flush() {
    if (service_ != nullptr) service_->Flush();
    for (auto& worker : workers_) worker->service().Flush();
  }

  int64_t Processed() {
    int64_t processed = service_ != nullptr ? service_->processed() : 0;
    for (auto& worker : workers_) processed += worker->service().processed();
    return processed;
  }

  MetricsRegistry metrics_;
  data::TransactionDb reference_;
  std::unique_ptr<MonitorService> service_;                  // local
  std::vector<std::unique_ptr<shard::ShardWorker>> workers_;  // sharded
  std::vector<std::unique_ptr<shard::LocalShardChannel>> channels_;
  std::unique_ptr<shard::ShardRouter> router_;
  std::unique_ptr<HttpApi> api_;
  std::unique_ptr<net::HttpServer> server_;
  bool started_ = false;
};

// Runs `test_case` once per backend.
template <typename TestCase>
void OnEveryBackend(TestCase test_case) {
  for (const Backend backend : kBackends) {
    SCOPED_TRACE(BackendName(backend));
    test_case(backend);
  }
}

TEST(HttpApiTest, IngestDeviationCompareRoundtrip) {
  OnEveryBackend([](Backend backend) {
    ApiStack stack(backend);
    auto client = stack.Client();

    const std::string snap_a = Serialize(QuestDb(2));
    const std::string snap_b = Serialize(QuestDb(3));

    const auto post_a =
        client.Post("/v1/streams/payments/snapshots", snap_a, "text/plain");
    ASSERT_TRUE(post_a.has_value());
    ASSERT_EQ(post_a->status, 202) << post_a->body;
    EXPECT_EQ(JsonField(post_a->body, "stream"), "payments");
    EXPECT_EQ(JsonField(post_a->body, "sequence"), "0");
    const std::string hash_a = JsonField(post_a->body, "content_hash");
    ASSERT_EQ(hash_a.size(), 16u);

    const auto post_b =
        client.Post("/v1/streams/payments/snapshots", snap_b, "text/plain");
    ASSERT_TRUE(post_b.has_value());
    ASSERT_EQ(post_b->status, 202);
    EXPECT_EQ(JsonField(post_b->body, "sequence"), "1");
    const std::string hash_b = JsonField(post_b->body, "content_hash");
    EXPECT_NE(hash_a, hash_b);

    stack.Flush();

    const auto deviation =
        client.Get("/v1/streams/payments/deviation?f=scaled&g=max");
    ASSERT_TRUE(deviation.has_value());
    ASSERT_EQ(deviation->status, 200) << deviation->body;
    EXPECT_EQ(JsonField(deviation->body, "processed"), "2");
    EXPECT_EQ(JsonField(deviation->body, "seq"), "1");
    EXPECT_EQ(JsonField(deviation->body, "f"), "scaled");
    EXPECT_FALSE(JsonField(deviation->body, "deviation").empty());

    // Compare the two ingested snapshots by content hash — served from the
    // model cache, and symmetric under (abs,sum).
    const auto ab = client.Post(
        "/v1/compare?left=" + hash_a + "&right=" + hash_b + "&f=abs&g=sum", "",
        "text/plain");
    ASSERT_TRUE(ab.has_value());
    ASSERT_EQ(ab->status, 200) << ab->body;
    const std::string delta_ab = JsonField(ab->body, "deviation");
    EXPECT_FALSE(delta_ab.empty());

    // Same parameters via a form body instead of the query string.
    const auto ba = client.Post(
        "/v1/compare", "left=" + hash_b + "&right=" + hash_a + "&f=abs&g=sum",
        "application/x-www-form-urlencoded");
    ASSERT_TRUE(ba.has_value());
    ASSERT_EQ(ba->status, 200) << ba->body;
    EXPECT_EQ(JsonField(ba->body, "deviation"), delta_ab);

    // A snapshot compared against itself deviates by zero.
    const auto aa = client.Post(
        "/v1/compare?left=" + hash_a + "&right=" + hash_a, "", "text/plain");
    ASSERT_TRUE(aa.has_value());
    EXPECT_EQ(JsonField(aa->body, "deviation"), "0");
  });
}

TEST(HttpApiTest, RejectsBadInputsWithPreciseStatuses) {
  OnEveryBackend([](Backend backend) {
    ApiStack stack(backend);
    auto client = stack.Client();

    const auto bad_body = client.Post("/v1/streams/s/snapshots",
                                      "this is not a snapshot", "text/plain");
    ASSERT_TRUE(bad_body.has_value());
    EXPECT_EQ(bad_body->status, 400);

    const auto empty_body =
        client.Post("/v1/streams/s/snapshots", "", "text/plain");
    ASSERT_TRUE(empty_body.has_value());
    EXPECT_EQ(empty_body->status, 400);

    const auto bad_name = client.Post("/v1/streams/bad%20name/snapshots",
                                      Serialize(QuestDb(2)), "text/plain");
    ASSERT_TRUE(bad_name.has_value());
    EXPECT_EQ(bad_name->status, 400);

    const auto unknown_stream = client.Get("/v1/streams/ghost/deviation");
    ASSERT_TRUE(unknown_stream.has_value());
    EXPECT_EQ(unknown_stream->status, 404);

    const auto bad_fn = client.Get("/v1/streams/ghost/deviation?f=cubed");
    ASSERT_TRUE(bad_fn.has_value());
    EXPECT_EQ(bad_fn->status, 400);

    const auto bad_hash =
        client.Post("/v1/compare?left=zzzz&right=0", "", "text/plain");
    ASSERT_TRUE(bad_hash.has_value());
    EXPECT_EQ(bad_hash->status, 400);

    const auto unknown_hash = client.Post(
        "/v1/compare?left=0123456789abcdef&right=fedcba9876543210", "",
        "text/plain");
    ASSERT_TRUE(unknown_hash.has_value());
    EXPECT_EQ(unknown_hash->status, 404);

    const auto wrong_method = client.Get("/v1/compare");
    ASSERT_TRUE(wrong_method.has_value());
    EXPECT_EQ(wrong_method->status, 405);
  });
}

TEST(HttpApiTest, MetricsAndHealthEndpoints) {
  OnEveryBackend([](Backend backend) {
    ApiStack stack(backend);
    auto client = stack.Client();
    ASSERT_EQ(client
                  .Post("/v1/streams/m/snapshots", Serialize(QuestDb(2)),
                        "text/plain")
                  ->status,
              202);
    stack.Flush();

    const auto prom = client.Get("/metrics");
    ASSERT_TRUE(prom.has_value());
    ASSERT_EQ(prom->status, 200);
    EXPECT_NE(prom->headers.at("content-type").find("text/plain"),
              std::string::npos);
    EXPECT_NE(prom->body.find("# TYPE focus_snapshots_processed_total counter"),
              std::string::npos);
    EXPECT_NE(prom->body.find("focus_snapshots_processed_total 1"),
              std::string::npos);
    EXPECT_NE(prom->body.find("focus_inspect_latency_ms_bucket{le=\"+Inf\"}"),
              std::string::npos);
    EXPECT_NE(prom->body.find("focus_http_requests_total"), std::string::npos);

    const auto json = client.Get("/metrics?format=json");
    ASSERT_TRUE(json.has_value());
    EXPECT_NE(json->body.find("\"counters\""), std::string::npos);

    const auto health = client.Get("/healthz");
    ASSERT_TRUE(health.has_value());
    EXPECT_EQ(JsonField(health->body, "status"), "ok");

    stack.api_->SetDraining(true);
    const auto draining = client.Get("/healthz");
    ASSERT_TRUE(draining.has_value());
    EXPECT_EQ(JsonField(draining->body, "status"), "draining");
  });
}

// The contract the ISSUE pins: ≥8 concurrent connections, every accepted
// snapshot processed exactly once (no losses, no duplicates).
TEST(HttpApiTest, ConcurrentIngestLosesNothing) {
  OnEveryBackend([](Backend backend) {
    ApiStack stack(backend);
    constexpr int kThreads = 8;
    constexpr int kPerThread = 6;

    common::Mutex mu;
    std::set<std::string> sequences;  // "<stream>#<seq>" pairs seen in 202s
    std::atomic<int> accepted{0}, rejected{0};

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        auto client = stack.Client();
        // Two streams shared across threads: sequence assignment itself is
        // contended, not just the queue.
        const std::string stream = "s" + std::to_string(t % 2);
        for (int i = 0; i < kPerThread; ++i) {
          const std::string body =
              Serialize(QuestDb(100 + t * kPerThread + i, 120));
          const auto response = client.Post(
              "/v1/streams/" + stream + "/snapshots", body, "text/plain");
          ASSERT_TRUE(response.has_value());
          if (response->status == 202) {
            accepted.fetch_add(1);
            common::MutexLock lock(&mu);
            const std::string sequence = JsonField(response->body, "sequence");
            const bool fresh = sequences.insert(stream + "#" + sequence).second;
            EXPECT_TRUE(fresh) << "duplicate sequence handed out";
          } else {
            EXPECT_EQ(response->status, 429);
            rejected.fetch_add(1);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();

    stack.Flush();
    // Every 202 corresponds to exactly one processed snapshot; nothing is
    // lost in the server, the api, or the queue, and nothing runs twice.
    EXPECT_EQ(stack.Processed(), accepted.load());
    EXPECT_EQ(static_cast<int>(sequences.size()), accepted.load());
    EXPECT_EQ(accepted.load() + rejected.load(), kThreads * kPerThread);
    // Per-stream sequences are dense 0..n-1 (the 429 path never burns one).
    for (const std::string stream : {"s0", "s1"}) {
      int count = 0;
      while (sequences.count(stream + "#" + std::to_string(count)) > 0) ++count;
      for (const auto& entry : sequences) {
        if (entry.rfind(stream + "#", 0) == 0) {
          EXPECT_LT(std::stoi(entry.substr(stream.size() + 1)), count)
              << "hole in " << stream << " sequence numbering";
        }
      }
    }
  });
}

// Saturate a tiny service so the bounded ingest wait expires: clients must
// see 429 + Retry-After, and accepted work still all completes.
TEST(HttpApiTest, BackpressureAnswers429WithRetryAfter) {
  OnEveryBackend([](Backend backend) {
    MonitorServiceOptions service_options;
    service_options.num_threads = 1;
    service_options.queue_capacity = 1;  // in-flight bound: 1
    service_options.ingest_wait_ms = 1;
    ApiStack stack(backend, service_options);

    constexpr int kThreads = 8;
    constexpr int kPerThread = 4;
    std::atomic<int> accepted{0}, overloaded{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        auto client = stack.Client();
        for (int i = 0; i < kPerThread; ++i) {
          // Distinct snapshots: every accepted one is a cache miss that
          // must be mined, keeping the single worker busy.
          const std::string body =
              Serialize(QuestDb(500 + t * kPerThread + i, 200));
          const auto response =
              client.Post("/v1/streams/hot/snapshots", body, "text/plain");
          ASSERT_TRUE(response.has_value());
          if (response->status == 202) {
            accepted.fetch_add(1);
          } else {
            ASSERT_EQ(response->status, 429) << response->body;
            EXPECT_EQ(response->headers.at("retry-after"), "1");
            overloaded.fetch_add(1);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();

    EXPECT_GT(overloaded.load(), 0) << "saturation never produced a 429";
    EXPECT_GT(accepted.load(), 0);
    stack.Flush();
    EXPECT_EQ(stack.Processed(), accepted.load());
    EXPECT_EQ(stack.metrics_.GetCounter("snapshots_shed").Value(),
              overloaded.load());
  });
}

TEST(HttpApiTest, DrainRefusesNewConnectionsAndFinishesWork) {
  OnEveryBackend([](Backend backend) {
    ApiStack stack(backend);
    auto client = stack.Client();
    ASSERT_EQ(client
                  .Post("/v1/streams/d/snapshots", Serialize(QuestDb(7)),
                        "text/plain")
                  ->status,
              202);

    stack.api_->SetDraining(true);
    stack.server_->BeginDrain();
    EXPECT_TRUE(stack.server_->WaitDrained(2000));
    stack.Flush();
    EXPECT_EQ(stack.Processed(), 1);
    EXPECT_EQ(stack.server_->stats().open_connections, 0);
  });
}

// The two backends behind one front end must be indistinguishable over
// HTTP: one scripted request sequence, run against each stack, gets the
// same status and the same body bytes for every response — successes,
// 404s (an unknown upper-case hash is echoed in canonical hex) and 400s.
TEST(HttpApiTest, BackendsAnswerByteIdentically) {
  // Two streams that share a shard and one on the other shard, so the
  // script covers both same-shard and cross-shard compares.
  const shard::HashRing ring(kShards);
  std::vector<std::string> on_shard[kShards];
  for (int i = 0; on_shard[0].size() < 2 || on_shard[1].empty(); ++i) {
    const std::string name = "stream-" + std::to_string(i);
    on_shard[ring.ShardFor(name)].push_back(name);
  }
  const std::string first = on_shard[0][0];
  const std::string second = on_shard[0][1];
  const std::string other = on_shard[1][0];

  struct Request {
    std::string method;  // GET, POST, or FLUSH (wait for processing)
    std::string target;
    std::string body;
  };
  std::vector<Request> script;
  std::vector<std::string> hashes;
  const auto ingest = [&](const std::string& stream, uint64_t seed) {
    const data::TransactionDb db = QuestDb(seed);
    hashes.push_back(HashHex(TransactionDbContentHash(db)));
    script.push_back(
        {"POST", "/v1/streams/" + stream + "/snapshots", Serialize(db)});
  };
  ingest(first, 2);
  ingest(second, 3);
  ingest(other, 4);
  ingest(first, 5);
  script.push_back({"FLUSH", "", ""});
  for (const char* fg : {"f=abs&g=sum", "f=abs&g=max", "f=scaled&g=sum",
                         "f=scaled&g=max"}) {
    for (const std::string& stream : {first, second, other}) {
      script.push_back(
          {"GET", "/v1/streams/" + stream + "/deviation?" + fg, ""});
    }
    // Same shard (hashes 0 and 1), then across shards (0 and 2).
    script.push_back({"POST",
                      "/v1/compare?left=" + hashes[0] + "&right=" +
                          hashes[1] + "&" + fg,
                      ""});
    script.push_back({"POST", "/v1/compare",
                      "left=" + hashes[0] + "&right=" + hashes[2] + "&" + fg});
    script.push_back({"GET", "/v1/deviation/summary?" + std::string(fg), ""});
  }
  script.push_back(
      {"POST", "/v1/compare?left=" + hashes[3] + "&right=ABCDEF0123456789",
       ""});
  script.push_back({"POST", "/v1/streams/bad%20name/snapshots",
                    Serialize(QuestDb(2))});
  script.push_back({"GET", "/v1/streams/" + first + "/deviation?f=cubed", ""});

  // Cheap calibration keeps the three lazy registrations fast under the
  // sanitizers; both stacks get the same options.
  MonitorServiceOptions options;
  options.monitor.calibration_replicates = 2;
  options.monitor.significance.num_replicates = 3;
  std::vector<std::string> answers[2];
  for (const Backend backend : kBackends) {
    ApiStack stack(backend, options);
    std::vector<std::string>& out = answers[static_cast<int>(backend)];
    for (const Request& request : script) {
      if (request.method == "FLUSH") {
        stack.Flush();
        continue;
      }
      // A connection per request: a slow flush must not let the server
      // reap an idle keep-alive mid-script.
      auto client = stack.Client();
      const auto response =
          request.method == "GET"
              ? client.Get(request.target)
              : client.Post(request.target, request.body, "text/plain");
      ASSERT_TRUE(response.has_value()) << request.target;
      out.push_back(std::to_string(response->status) + " " + response->body);
    }
  }
  ASSERT_EQ(answers[0].size(), answers[1].size());
  for (size_t i = 0; i < answers[0].size(); ++i) {
    EXPECT_EQ(answers[0][i], answers[1][i]) << "response " << i;
  }
  // The script exercises what it claims to: 202s, 200s, a 404, two 400s.
  EXPECT_EQ(answers[0][0].substr(0, 4), "202 ");
  EXPECT_EQ(answers[0][4].substr(0, 4), "200 ");
  EXPECT_EQ(answers[0][answers[0].size() - 3].substr(0, 4), "404 ");
  EXPECT_NE(answers[0][answers[0].size() - 3].find("abcdef0123456789"),
            std::string::npos);
  EXPECT_EQ(answers[0][answers[0].size() - 2].substr(0, 4), "400 ");
  EXPECT_EQ(answers[0].back().substr(0, 4), "400 ");
}

}  // namespace
}  // namespace focus::serve
