// Network serving throughput: loopback HTTP clients driving the full
// stack with the mixed workload a deployment sees — snapshot ingest,
// deviation polls, and cache-served compares. One front end (HttpApi)
// over either backend:
//   default      HttpServer event loop → HttpApi → MonitorService
//   --shards=N   N SO_REUSEPORT reactors → HttpApi → ShardRouter →
//                N in-process ShardWorkers (full wire codec per call)
// Emits JSON lines:
//   {"bench":"net_throughput","config":…,"clients":N,"shards":…,
//    "requests":…,"seconds":…,"requests_per_sec":…,…}

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "datagen/quest_gen.h"
#include "io/data_io.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "serve/http_api.h"
#include "serve/metrics.h"
#include "serve/monitor_service.h"
#include "shard/shard_router.h"
#include "shard/shard_worker.h"

namespace focus {
namespace {

data::TransactionDb SnapshotDb(int64_t num_transactions, uint64_t seed) {
  datagen::QuestParams params = bench::PaperQuestParams(
      num_transactions, /*num_patterns=*/500, /*pattern_length=*/4, seed);
  params.pattern_seed = 99;
  return datagen::GenerateQuest(params);
}

std::string Serialize(const data::TransactionDb& db) {
  std::ostringstream out;
  io::SaveTransactionDb(db, out);
  return out.str();
}

std::string JsonField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  return json.substr(begin, json.find('"', begin) - begin);
}

serve::MonitorServiceOptions ServiceConfig() {
  serve::MonitorServiceOptions options;
  options.monitor.apriori.min_support = 0.02;
  options.monitor.apriori.max_itemset_size = 2;
  options.monitor.calibration_replicates = 3;
  options.monitor.significance.num_replicates = 5;
  options.num_threads = 4;
  options.queue_capacity = 32;
  return options;
}

struct DriveCounts {
  int64_t accepted = 0;
  int64_t overloaded = 0;
  int64_t reads = 0;
  int64_t compares = 0;
  double seconds = 0.0;
};

// Drives `clients` concurrent keep-alive connections against the server
// at `port`, each issuing ingest/deviation/compare in a 2:3:1 mix. Both
// deployments (single loop and sharded reactors) see the identical byte
// stream. `flush` runs inside the measured window so the
// figure includes draining the ingest queue, as a real deployment would.
DriveCounts DriveClients(uint16_t port, int clients, int requests_per_client,
                         const std::vector<std::string>& bodies,
                         const std::function<void()>& flush) {
  std::atomic<int64_t> accepted{0}, overloaded{0}, reads{0}, compares{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c]() {
      net::HttpClient client;
      if (!client.Connect("127.0.0.1", port)) return;
      const std::string stream = "s" + std::to_string(c % 4);
      std::string left, right;  // content hashes seen on this connection
      for (int i = 0; i < requests_per_client; ++i) {
        switch (i % 6) {
          case 0:
          case 3: {  // ingest
            const auto response = client.Post(
                "/v1/streams/" + stream + "/snapshots",
                bodies[(c + i) % bodies.size()], "text/plain");
            if (!response.has_value()) return;
            if (response->status == 202) {
              accepted.fetch_add(1);
              left = right;
              right = JsonField(response->body, "content_hash");
            } else {
              overloaded.fetch_add(1);
            }
            break;
          }
          case 5: {  // compare two previously ingested snapshots
            if (left.empty() || right.empty()) break;
            const auto response = client.Post(
                "/v1/compare?left=" + left + "&right=" + right, "",
                "text/plain");
            if (!response.has_value()) return;
            compares.fetch_add(1);
            break;
          }
          default: {  // deviation poll
            const auto response =
                client.Get("/v1/streams/" + stream + "/deviation");
            if (!response.has_value()) return;
            reads.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  flush();
  DriveCounts counts;
  counts.accepted = accepted.load();
  counts.overloaded = overloaded.load();
  counts.reads = reads.load();
  counts.compares = compares.load();
  counts.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return counts;
}

void EmitLine(const char* label, int clients, int shards, int64_t total,
              int64_t snapshot_size, const DriveCounts& counts,
              int64_t processed) {
  // host_cpus qualifies the scaling numbers: reactors and shard workers
  // only run concurrently when the host has cores to put them on, so a
  // sharded figure from a 1-cpu container measures protocol overhead
  // (parity with the single loop), not scale-out.
  char line[448];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"net_throughput\",\"config\":\"%s\",\"clients\":%d,"
      "\"shards\":%d,\"host_cpus\":%u,\"requests\":%lld,"
      "\"snapshot_transactions\":%lld,"
      "\"seconds\":%.4f,\"requests_per_sec\":%.2f,\"ingest_accepted\":%lld,"
      "\"ingest_overloaded\":%lld,\"deviation_reads\":%lld,"
      "\"compares\":%lld,\"snapshots_processed\":%lld}",
      label, clients, shards, std::thread::hardware_concurrency(),
      static_cast<long long>(total),
      static_cast<long long>(snapshot_size), counts.seconds,
      total / counts.seconds, static_cast<long long>(counts.accepted),
      static_cast<long long>(counts.overloaded),
      static_cast<long long>(counts.reads),
      static_cast<long long>(counts.compares),
      static_cast<long long>(processed));
  bench::EmitBenchJson(line);
}

// Pre-serialize the snapshot pool so generation cost stays out of the
// measured window; a small pool keeps the cache-hit mix realistic.
std::vector<std::string> SnapshotPool(int unique_snapshots,
                                      int64_t snapshot_size) {
  std::vector<std::string> bodies;
  bodies.reserve(unique_snapshots);
  for (int i = 0; i < unique_snapshots; ++i) {
    bodies.push_back(Serialize(SnapshotDb(snapshot_size, 2000 + i)));
  }
  return bodies;
}

// Single event loop front end: HttpServer → HttpApi → MonitorService.
void RunConfig(const char* label, int clients, int requests_per_client,
               int64_t snapshot_size, int unique_snapshots) {
  serve::MetricsRegistry metrics;
  serve::MonitorService service(ServiceConfig(), &metrics);
  const data::TransactionDb reference = SnapshotDb(snapshot_size, 1000);

  serve::HttpApiOptions api_options;
  serve::HttpApi api(api_options, &service, &reference, &metrics);
  net::HttpServer server(net::HttpServerOptions{}, api.BuildRouter());
  api.AttachServer(&server);
  if (!server.Start()) {
    std::fprintf(stderr, "net_throughput: cannot start server\n");
    return;
  }

  const std::vector<std::string> bodies =
      SnapshotPool(unique_snapshots, snapshot_size);
  const DriveCounts counts =
      DriveClients(server.port(), clients, requests_per_client, bodies,
                   [&]() { service.Flush(); });
  server.Stop();
  service.Shutdown();

  EmitLine(label, clients, /*shards=*/0, server.stats().requests_handled,
           snapshot_size, counts, service.processed());
}

// Sharded deployment: one SO_REUSEPORT reactor per shard, each running its
// own HttpApi + ShardRouter over in-process ShardWorkers (the law
// tests pin that this path answers bit-identically to the single node).
// Every call still encodes and decodes full wire frames, so the protocol
// cost is measured; only the kernel socket hop is elided. Each shard owns
// a full MonitorService, as in a real scale-out deployment.
void RunShardedConfig(const char* label, int clients, int requests_per_client,
                      int64_t snapshot_size, int unique_snapshots,
                      int num_shards) {
  serve::MetricsRegistry metrics;
  const data::TransactionDb reference = SnapshotDb(snapshot_size, 1000);

  std::vector<std::unique_ptr<shard::ShardWorker>> workers;
  std::vector<std::unique_ptr<shard::LocalShardChannel>> channels;
  std::vector<shard::ShardChannel*> channel_ptrs;
  for (int s = 0; s < num_shards; ++s) {
    shard::ShardWorkerOptions worker_options;
    worker_options.shard_index = static_cast<uint32_t>(s);
    worker_options.service = ServiceConfig();
    workers.push_back(std::make_unique<shard::ShardWorker>(
        worker_options, &reference, &metrics));
    channels.push_back(
        std::make_unique<shard::LocalShardChannel>(workers.back().get()));
    channel_ptrs.push_back(channels.back().get());
  }

  // Reactors share one listening port via SO_REUSEPORT; the kernel
  // spreads connections across them. Each owns its router + api so shard
  // calls never serialize across reactors.
  struct Reactor {
    std::unique_ptr<shard::ShardRouter> router;
    std::unique_ptr<serve::HttpApi> api;
    std::unique_ptr<net::HttpServer> server;
  };
  std::vector<Reactor> reactors(static_cast<size_t>(num_shards));
  uint16_t port = 0;
  for (size_t r = 0; r < reactors.size(); ++r) {
    reactors[r].router =
        std::make_unique<shard::ShardRouter>(channel_ptrs, &metrics);
    serve::HttpApiOptions api_options;
    api_options.reactor_index = static_cast<int>(r);
    reactors[r].api = std::make_unique<serve::HttpApi>(
        api_options, reactors[r].router.get(), &metrics);
    net::HttpServerOptions server_options;
    server_options.port = port;
    server_options.reuse_port = reactors.size() > 1;
    reactors[r].server = std::make_unique<net::HttpServer>(
        server_options, reactors[r].api->BuildRouter());
    reactors[r].api->AttachServer(reactors[r].server.get());
    if (!reactors[r].server->Start()) {
      std::fprintf(stderr, "net_throughput: cannot start reactor %zu\n", r);
      return;
    }
    port = reactors[r].server->port();
  }

  const std::vector<std::string> bodies =
      SnapshotPool(unique_snapshots, snapshot_size);
  const DriveCounts counts =
      DriveClients(port, clients, requests_per_client, bodies, [&]() {
        for (auto& worker : workers) worker->service().Flush();
      });
  int64_t total = 0;
  for (auto& reactor : reactors) {
    total += reactor.server->stats().requests_handled;
  }
  for (auto& reactor : reactors) reactor.server->Stop();
  int64_t processed = 0;
  for (auto& worker : workers) {
    processed += worker->service().processed();
    worker->service().Shutdown();
  }

  EmitLine(label, clients, num_shards, total, snapshot_size, counts,
           processed);
}

int Run(int argc, char** argv) {
  int shards = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = std::atoi(argv[i] + 9);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: net_throughput [--shards=N]\n");
      return 2;
    }
  }

  const int requests_per_client =
      static_cast<int>(bench::ScaledCount(60, 300));
  const int64_t snapshot_size = bench::ScaledCount(1000, 20000);
  const int kClients[] = {8, 16, 64, 128};
  for (int clients : kClients) {
    char label[64];
    if (shards > 0) {
      std::snprintf(label, sizeof(label), "mixed_%d_clients_shards%d",
                    clients, shards);
      RunShardedConfig(label, clients, requests_per_client, snapshot_size,
                       /*unique_snapshots=*/8, shards);
    } else {
      std::snprintf(label, sizeof(label), "mixed_%d_clients", clients);
      RunConfig(label, clients, requests_per_client, snapshot_size,
                /*unique_snapshots=*/8);
    }
  }
  return 0;
}

}  // namespace
}  // namespace focus

int main(int argc, char** argv) { return focus::Run(argc, argv); }
