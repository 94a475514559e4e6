// focus_served — deviation monitoring over the network.
//
// Serves the HTTP API of serve::HttpApi to remote producers:
//
//   POST /v1/streams/{name}/snapshots    ingest a focus-txns-v1 snapshot
//        202 {"stream","sequence","content_hash"}; 429 + Retry-After when
//        the ingest queue is saturated; 400 on malformed payloads
//   GET  /v1/streams/{name}/deviation?f=abs|scaled&g=sum|max
//        latest window deviation + CUSUM state
//   POST /v1/compare?left=H&right=H&f=…&g=…
//        deviation between two previously ingested snapshots (by content
//        hash, via the model cache — no raw-data rescan)
//   GET  /v1/deviation/summary?f=…&g=…   cross-stream aggregate
//   GET  /metrics   Prometheus text exposition (?format=json)
//   GET  /healthz   {"status":"ok"|"draining"}
//
//   focus_served --reference R.txns
//     [--address 127.0.0.1] [--port 8080] [--port-file PATH]
//     [--minsup 0.01] [--factor 2.0] [--replicates 9] [--calibration 5]
//     [--warmup 5] [--slack 0.5] [--decision 5.0]
//     [--threads 4] [--queue 64] [--cache 64]
//     [--max-connections 256] [--read-deadline-ms 10000]
//     [--ingest-wait-ms 20] [--events PATH] [--force-poll 0]
//     [--shards 0] [--reactors 1] [--shard-dir PATH]
//
// --port 0 binds a kernel-assigned ephemeral port; --port-file writes the
// bound port as a single line once the server is listening (how the
// integration tests and scripts find it).
//
// The API runs on --reactors SO_REUSEPORT event loops sharing one port.
// What differs between deployments is only the backend behind them:
//
//   --shards 0 (default)  one in-process MonitorService; --events appends
//                         its processed-snapshot events as JSONL.
//   --shards N (N >= 1)   the sharded deployment of docs/SHARDING.md: N
//                         worker processes are forked, each running a full
//                         MonitorService behind the shard wire protocol on
//                         a Unix socket under --shard-dir (default: a fresh
//                         temp directory), and every reactor scatter-
//                         gathers over them through its own ShardRouter.
//                         Workers are forked before any thread exists, so
//                         the daemon stays clean under TSan. The answers
//                         are bit-identical to --shards 0
//                         (tests/laws/laws_shard_test.cc). --events is a
//                         usage error here: the events happen in the
//                         workers.
//
// SIGTERM/SIGINT trigger a graceful drain: /healthz flips to "draining",
// the listeners close, idle keep-alive connections are shut, in-flight
// requests finish, then the backend drains — the ingest queue is flushed,
// or every worker is SIGTERMed, drains the same way, and is reaped — and
// the process exits 0.
//
// Exit status: 0 on success (including signal-triggered drain), 1 on
// usage errors, 2 on I/O or bind failures (or a worker that did not
// drain cleanly).

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "io/data_io.h"
#include "net/http_server.h"
#include "serve/deviation_backend.h"
#include "serve/http_api.h"
#include "serve/metrics.h"
#include "serve/monitor_service.h"
#include "shard/shard_client.h"
#include "shard/shard_router.h"
#include "shard/shard_worker.h"

namespace focus::daemon {
namespace {

volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int sig) { g_signal = sig; }

void InstallSignalHandlers() {
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
#ifdef SIGPIPE
  std::signal(SIGPIPE, SIG_IGN);
#endif
}

int ReadDeadlineMs(const common::Flags& flags) {
  return static_cast<int>(flags.GetInt("read-deadline-ms", 10'000));
}

// The forked worker process: one ShardWorker on one Unix socket, drained
// on SIGTERM exactly like the single-node daemon.
int WorkerMain(uint32_t shard_index, const common::Flags& flags,
               const data::TransactionDb& reference,
               const std::string& socket_path) {
  shard::ShardWorkerOptions worker_options;
  worker_options.shard_index = shard_index;
  worker_options.service = serve::ServiceOptionsFromFlags(flags);

  shard::ShardWorker worker(worker_options, &reference, nullptr);
  shard::WireServerOptions server_options;
  server_options.unix_path = socket_path;
  server_options.read_deadline_ms = ReadDeadlineMs(flags);
  server_options.force_poll = flags.GetInt("force-poll", 0) != 0;
  std::string error;
  if (!worker.Serve(server_options, &error)) {
    std::fprintf(stderr, "focus_served[shard %u]: cannot listen on %s: %s\n",
                 shard_index, socket_path.c_str(), error.c_str());
    return 2;
  }

  while (g_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  worker.BeginDrain();
  worker.WaitDrained(server_options.read_deadline_ms);
  worker.Stop();
  std::printf("focus_served[shard %u]: drained; %lld snapshots processed\n",
              shard_index,
              static_cast<long long>(worker.service().processed()));
  return 0;
}

// The worker processes behind --shards N. Stop() (also run on
// destruction, so every early return reaps them) SIGTERMs and reaps each
// worker and removes a socket directory this fleet created.
class ShardFleet {
 public:
  ShardFleet() = default;
  ShardFleet(const ShardFleet&) = delete;
  ShardFleet& operator=(const ShardFleet&) = delete;
  ~ShardFleet() { Stop(); }

  // Prepares --shard-dir and forks one worker per shard. Must run while
  // the process is still single-threaded — the only fork() discipline
  // that is safe under TSan and avoids inheriting locked mutexes. False
  // (after printing why) on failure.
  bool Start(const common::Flags& flags, const data::TransactionDb& reference,
             int num_shards) {
    dir_ = flags.Get("shard-dir", "");
    if (dir_.empty()) {
      const char* tmp = std::getenv("TMPDIR");
      std::string pattern =
          std::string(tmp != nullptr ? tmp : "/tmp") + "/focus_shard_XXXXXX";
      std::vector<char> buffer(pattern.begin(), pattern.end());
      buffer.push_back('\0');
      if (::mkdtemp(buffer.data()) == nullptr) {
        std::perror("focus_served: mkdtemp");
        return false;
      }
      dir_.assign(buffer.data());
      made_dir_ = true;
    } else if (::mkdir(dir_.c_str(), 0700) == 0) {
      // Same contract as focus_monitord's spool dir: create a missing
      // --shard-dir instead of erroring (and clean it up on exit).
      made_dir_ = true;
    } else if (errno != EEXIST) {
      std::fprintf(stderr, "focus_served: cannot create shard dir %s: %s\n",
                   dir_.c_str(), std::strerror(errno));
      return false;
    }
    for (int i = 0; i < num_shards; ++i) {
      socket_paths_.push_back(dir_ + "/shard-" + std::to_string(i) + ".sock");
    }
    for (int i = 0; i < num_shards; ++i) {
      const pid_t pid = ::fork();
      if (pid < 0) {
        std::perror("focus_served: fork");
        return false;
      }
      if (pid == 0) {
        std::exit(WorkerMain(static_cast<uint32_t>(i), flags, reference,
                             socket_paths_[static_cast<size_t>(i)]));
      }
      pids_.push_back(pid);
    }
    return true;
  }

  const std::vector<std::string>& socket_paths() const {
    return socket_paths_;
  }

  // True when every worker drained and exited 0.
  bool Stop() {
    for (const pid_t pid : pids_) ::kill(pid, SIGTERM);
    bool all_clean = true;
    for (const pid_t pid : pids_) {
      int status = 0;
      if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
          WEXITSTATUS(status) != 0) {
        all_clean = false;
      }
    }
    pids_.clear();
    if (made_dir_) {
      for (const std::string& path : socket_paths_) ::unlink(path.c_str());
      ::rmdir(dir_.c_str());
      made_dir_ = false;
    }
    return all_clean;
  }

 private:
  std::string dir_;
  bool made_dir_ = false;
  std::vector<std::string> socket_paths_;
  std::vector<pid_t> pids_;
};

// One SO_REUSEPORT event loop: its own api and server and, when sharded,
// its own shard clients + router, so nothing serializes across reactors
// but the kernel accept queue (and, with --shards 0, the shared service).
struct Reactor {
  std::vector<std::unique_ptr<shard::ShardClient>> clients;
  std::unique_ptr<shard::ShardRouter> router;
  std::unique_ptr<serve::HttpApi> api;
  std::unique_ptr<net::HttpServer> server;
};

int Run(const common::Flags& flags) {
  const std::string reference_path = flags.Get("reference", "");
  if (reference_path.empty()) {
    std::fprintf(stderr, "focus_served requires --reference\n");
    return 1;
  }
  const int num_shards = static_cast<int>(flags.GetInt("shards", 0));
  if (num_shards < 0) {
    std::fprintf(stderr, "--shards must be >= 0\n");
    return 1;
  }
  const int num_reactors = static_cast<int>(flags.GetInt("reactors", 1));
  if (num_reactors < 1) {
    std::fprintf(stderr, "--reactors must be >= 1\n");
    return 1;
  }
  const std::string events_path = flags.Get("events", "");
  if (num_shards > 0 && !events_path.empty()) {
    std::fprintf(stderr,
                 "--events needs --shards 0 (events happen in the shard "
                 "workers)\n");
    return 1;
  }
  const auto reference = io::LoadTransactionDbFromFile(reference_path);
  if (!reference.has_value()) {
    std::fprintf(stderr, "cannot read --reference %s\n",
                 reference_path.c_str());
    return 2;
  }

  // Handlers go in before any fork so workers inherit them; g_signal is
  // per-process after the fork.
  InstallSignalHandlers();

  // The backend: forked shard workers, or one in-process service.
  ShardFleet fleet;
  std::unique_ptr<serve::MonitorService> service;
  std::unique_ptr<serve::LocalBackend> local;
  serve::MetricsRegistry metrics;
  std::ofstream events;
  if (num_shards > 0) {
    if (!fleet.Start(flags, *reference, num_shards)) return 2;
  } else {
    service = std::make_unique<serve::MonitorService>(
        serve::ServiceOptionsFromFlags(flags), &metrics);
    if (!events_path.empty()) {
      events.open(events_path, std::ios::app);
      if (!events) {
        std::fprintf(stderr, "cannot open --events %s for append\n",
                     events_path.c_str());
        return 2;
      }
      service->SetEventSink([&events](const serve::StreamEvent& event) {
        events << event.ToJson() << '\n';
        events.flush();
      });
    }
    local = std::make_unique<serve::LocalBackend>(service.get(), &*reference,
                                                  &metrics);
  }

  const std::string address = flags.Get("address", "127.0.0.1");
  std::vector<Reactor> reactors(static_cast<size_t>(num_reactors));
  uint16_t bound_port = 0;
  for (int r = 0; r < num_reactors; ++r) {
    Reactor& reactor = reactors[static_cast<size_t>(r)];
    serve::DeviationBackend* backend = local.get();
    if (num_shards > 0) {
      std::vector<shard::ShardChannel*> channels;
      for (const std::string& path : fleet.socket_paths()) {
        reactor.clients.push_back(std::make_unique<shard::ShardClient>(path));
        channels.push_back(reactor.clients.back().get());
      }
      reactor.router =
          std::make_unique<shard::ShardRouter>(channels, &metrics);
      backend = reactor.router.get();
    }
    serve::HttpApiOptions api_options;
    api_options.reactor_index = r;
    reactor.api =
        std::make_unique<serve::HttpApi>(api_options, backend, &metrics);

    net::HttpServerOptions server_options;
    server_options.bind_address = address;
    // Reactor 0 binds the requested port (possibly ephemeral); the rest
    // join it through SO_REUSEPORT so the kernel spreads connections.
    server_options.port =
        r == 0 ? static_cast<uint16_t>(flags.GetInt("port", 8080))
               : bound_port;
    server_options.reuse_port = num_reactors > 1;
    server_options.max_connections =
        static_cast<int>(flags.GetInt("max-connections", 256)) / num_reactors;
    server_options.read_deadline_ms = ReadDeadlineMs(flags);
    server_options.force_poll = flags.GetInt("force-poll", 0) != 0;
    reactor.server = std::make_unique<net::HttpServer>(
        server_options, reactor.api->BuildRouter());
    reactor.api->AttachServer(reactor.server.get());
    std::string error;
    if (!reactor.server->Start(&error)) {
      std::fprintf(stderr, "cannot start reactor %d on %s:%d: %s\n", r,
                   address.c_str(), static_cast<int>(server_options.port),
                   error.c_str());
      return 2;
    }
    if (r == 0) bound_port = reactor.server->port();
  }

  if (num_shards > 0) {
    // Wait until every worker answers a ping (sockets appear as each
    // child binds); tolerate a slow start, not a dead child.
    std::string error;
    bool up = false;
    for (int attempt = 0; attempt < 500 && g_signal == 0 && !up; ++attempt) {
      up = reactors[0].router->PingAll(&error);
      if (!up) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!up && g_signal == 0) {
      std::fprintf(stderr, "focus_served: shard workers not up: %s\n",
                   error.c_str());
      return 2;
    }
  }

  const std::string port_file = flags.Get("port-file", "");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << bound_port << '\n';
    if (!out) {
      std::fprintf(stderr, "cannot write --port-file %s\n", port_file.c_str());
      return 2;
    }
  }

  std::printf(
      "focus_served: listening on %s:%u, %d shards x %d reactors, "
      "reference=%s (%lld txns)\n",
      address.c_str(), static_cast<unsigned>(bound_port), num_shards,
      num_reactors, reference_path.c_str(),
      static_cast<long long>(reference->num_transactions()));
  std::fflush(stdout);

  while (g_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Graceful drain: the front end stops taking requests and finishes the
  // ones in flight, then the backend finishes everything it accepted.
  std::printf("focus_served: signal %d, draining…\n",
              static_cast<int>(g_signal));
  std::fflush(stdout);
  for (Reactor& reactor : reactors) reactor.api->SetDraining(true);
  for (Reactor& reactor : reactors) reactor.server->BeginDrain();
  for (Reactor& reactor : reactors) {
    reactor.server->WaitDrained(ReadDeadlineMs(flags));
  }
  for (Reactor& reactor : reactors) reactor.server->Stop();

  bool clean = true;
  std::string backend_report;
  if (service != nullptr) {
    service->Flush();
    service->Shutdown();
    backend_report =
        std::to_string(service->processed()) + " snapshots processed";
  } else {
    clean = fleet.Stop();
    backend_report = std::to_string(num_shards) + " workers " +
                     (clean ? "clean" : "UNCLEAN");
  }
  int64_t requests = 0, connections = 0;
  for (const Reactor& reactor : reactors) {
    const net::HttpServerStats stats = reactor.server->stats();
    requests += stats.requests_handled;
    connections += stats.connections_accepted;
  }
  std::printf("focus_served: drained; %lld requests over %lld connections, "
              "%s\n",
              static_cast<long long>(requests),
              static_cast<long long>(connections), backend_report.c_str());
  return clean ? 0 : 2;
}

}  // namespace
}  // namespace focus::daemon

int main(int argc, char** argv) {
  const auto flags = focus::common::Flags::Parse(
      argc, argv, 1,
      {"reference", "address", "port", "port-file", "minsup", "factor",
       "replicates", "calibration", "warmup", "slack", "decision", "threads",
       "queue", "cache", "max-connections", "read-deadline-ms",
       "ingest-wait-ms", "events", "force-poll", "shards", "reactors",
       "shard-dir"});
  if (!flags.has_value()) return 1;
  return focus::daemon::Run(*flags);
}
