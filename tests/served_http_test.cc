// End-to-end test of the REAL focus_served binary (compiled path in
// FOCUS_SERVED_PATH): boot it on an ephemeral loopback port, drive the
// HTTP API and the --spool directory from this process, then deliver an
// actual SIGTERM and verify the graceful drain — accepted work finishes,
// the process exits 0. Out-of-range flags must exit 1 before any work.

#include <csignal>
#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/transaction_db.h"
#include "io/data_io.h"
#include "net/http_client.h"

namespace focus {
namespace {

namespace fs = std::filesystem;

data::TransactionDb SmallDb(int32_t num_items, int64_t transactions,
                            int64_t salt = 0) {
  data::TransactionDb db(num_items);
  std::vector<int32_t> items;
  for (int64_t t = 0; t < transactions; ++t) {
    items.clear();
    for (int32_t i = 0; i < num_items; ++i) {
      if ((t + i + salt) % 3 != 0) items.push_back(i);
    }
    db.AddTransaction(items);
  }
  return db;
}

std::string Serialize(const data::TransactionDb& db) {
  std::ostringstream out;
  io::SaveTransactionDb(db, out);
  return out.str();
}

class ServedHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("served_http_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
    reference_path_ = (root_ / "reference.txns").string();
    port_file_ = (root_ / "port.txt").string();
    ASSERT_TRUE(io::SaveTransactionDbToFile(SmallDb(10, 60), reference_path_));
  }

  void TearDown() override {
    if (pid_ > 0) {  // a test failed before the clean shutdown
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    fs::remove_all(root_);
  }

  // Forks the daemon with the fixture's reference, an ephemeral port and
  // tiny calibration, plus `extra`; stdout and stderr go to stdout.txt.
  void Spawn(const std::vector<std::string>& extra) {
    std::error_code ec;
    fs::remove(port_file_, ec);
    std::vector<std::string> args = {
        FOCUS_SERVED_PATH, "--reference", reference_path_, "--port", "0",
        "--port-file", port_file_, "--calibration", "1", "--replicates", "1"};
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const std::string log = (root_ / "stdout.txt").string();
    pid_ = fork();
    if (pid_ == 0) {
      // Child: exec the daemon, logs to a file.
      const int out = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      dup2(out, STDOUT_FILENO);
      dup2(out, STDERR_FILENO);
      execv(FOCUS_SERVED_PATH, argv.data());
      _exit(127);  // exec failed
    }
  }

  // Spawns the daemon and waits for --port-file to announce the bound
  // port. Returns false (failing the test) on a boot timeout.
  bool StartDaemon(const std::vector<std::string>& extra = {"--threads", "2",
                                                            "--queue", "8"}) {
    Spawn(extra);
    for (int i = 0; i < 400; ++i) {
      std::ifstream in(port_file_);
      int port = 0;
      if (in >> port && port > 0) {
        port_ = static_cast<uint16_t>(port);
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ADD_FAILURE() << "daemon never wrote " << port_file_;
    return false;
  }

  // Runs the daemon to its own exit (usage errors, --once); returns its
  // exit code, or -1 if it died by a signal or is still running after
  // 60 s (TearDown then kills it).
  int RunDaemon(const std::vector<std::string>& extra) {
    Spawn(extra);
    int status = 0;
    for (int i = 0; i < 6000; ++i) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "daemon did not exit on its own";
    return -1;
  }

  // Everything the daemon printed (stdout and stderr).
  std::string Log() const {
    std::ifstream in(root_ / "stdout.txt");
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
  }

  // SIGTERM + waitpid; returns the daemon's exit code (-1 on signal death).
  int TerminateDaemon() {
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  fs::path root_;
  std::string reference_path_;
  std::string port_file_;
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

TEST_F(ServedHttpTest, ServesIngestAndDrainsOnSigterm) {
  ASSERT_TRUE(StartDaemon());

  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_));
  const auto health = client.Get("/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  EXPECT_NE(health->body.find("\"ok\""), std::string::npos);

  // Ingest a few snapshots across two streams, then read state back.
  for (int i = 0; i < 3; ++i) {
    const auto response = client.Post(
        "/v1/streams/alpha/snapshots", Serialize(SmallDb(10, 40, i)),
        "text/plain");
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->status, 202) << response->body;
  }
  ASSERT_EQ(client
                .Post("/v1/streams/beta/snapshots",
                      Serialize(SmallDb(10, 40, 9)), "text/plain")
                ->status,
            202);

  // The deviation endpoint converges once the snapshots are processed.
  bool processed = false;
  for (int i = 0; i < 200 && !processed; ++i) {
    const auto deviation = client.Get("/v1/streams/alpha/deviation");
    ASSERT_TRUE(deviation.has_value());
    ASSERT_EQ(deviation->status, 200);
    processed =
        deviation->body.find("\"processed\":3") != std::string::npos;
    if (!processed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  EXPECT_TRUE(processed);

  const auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->body.find("focus_snapshots_submitted_total 4"),
            std::string::npos)
      << metrics->body;

  // Real SIGTERM: the daemon must drain and exit 0 on its own.
  EXPECT_EQ(TerminateDaemon(), 0);

  // Its stdout records the drain and the final counts.
  const std::string log = Log();
  EXPECT_NE(log.find("draining"), std::string::npos) << log;
  EXPECT_NE(log.find("4 snapshots processed"), std::string::npos) << log;
}

TEST_F(ServedHttpTest, SigtermFinishesQueuedSnapshotsBeforeExit) {
  ASSERT_TRUE(StartDaemon());
  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_));

  // Queue several distinct (cache-missing) snapshots and SIGTERM straight
  // away: the drain contract is that everything answered 202 is still
  // processed before exit.
  int accepted = 0;
  for (int i = 0; i < 5; ++i) {
    const auto response = client.Post(
        "/v1/streams/burst/snapshots", Serialize(SmallDb(10, 50, 20 + i)),
        "text/plain");
    ASSERT_TRUE(response.has_value());
    if (response->status == 202) ++accepted;
  }
  ASSERT_GT(accepted, 0);
  EXPECT_EQ(TerminateDaemon(), 0);

  const std::string log = Log();
  EXPECT_NE(log.find(std::to_string(accepted) + " snapshots processed"),
            std::string::npos)
      << log;
}

// Out-of-range values exit 1 with a message instead of aborting, wrapping
// or refusing every request.
TEST_F(ServedHttpTest, OutOfRangeFlagsAreUsageErrors) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"--threads", "0"}, "--threads"},
      {{"--threads", "-1"}, "--threads"},
      {{"--cache", "0"}, "--cache"},
      {{"--cache", "-1"}, "--cache"},
      {{"--queue", "0"}, "--queue"},
      {{"--queue", "-1"}, "--queue"},
      {{"--max-connections", "1", "--reactors", "2"}, "--max-connections"},
      {{"--max-connections", "-1"}, "--max-connections"},
      {{"--once", "1"}, "--once and --ooc need --spool"},
      {{"--ooc", "1"}, "--once and --ooc need --spool"},
  };
  for (const auto& [args, message] : cases) {
    EXPECT_EQ(RunDaemon(args), 1) << args[0] << " " << args[1];
    const std::string log = Log();
    EXPECT_NE(log.find(message), std::string::npos)
        << args[0] << " " << args[1] << ": " << log;
  }
}

// ---------------------------------------------------------------- spool

// Malformed spool fixtures and the loader reason each must be rejected
// with. Kept in one table so the tests both write the fixtures and check
// the logged reasons.
struct MalformedFixture {
  const char* name;              // spool filename
  const char* content;           // raw file bytes
  const char* reason_substring;  // must appear in the stderr log line
};

const MalformedFixture kMalformed[] = {
    {"s1__000_badmagic.txns", "focus-txns-v9\n3 1\n0 1\n", "bad magic"},
    {"s1__001_badheader.txns", "focus-txns-v1\nthree 1\n0\n",
     "unparseable header counts"},
    {"s1__002_negitems.txns", "focus-txns-v1\n-2 1\n0\n",
     "header counts out of range"},
    {"s1__003_truncated.txns", "focus-txns-v1\n3 5\n0 1\n",
     "truncated: missing transaction"},
    {"s1__004_outofrange.txns", "focus-txns-v1\n3 1\n0 99\n",
     "item id out of range"},
    {"s1__005_garbage.txns", "focus-txns-v1\n3 1\n0 zebra\n",
     "non-numeric token"},
    {"s1__006_trailing.txns", "focus-txns-v1\n3 1\n0 1\n2\n",
     "trailing content"},
    {"s1__007_empty.txns", "", "empty file"},
};

// focus_served --spool: the directory ingest path. Each test boots the
// real daemon over its own spool directory.
class ServedSpoolTest : public ServedHttpTest {
 protected:
  void SetUp() override {
    ServedHttpTest::SetUp();
    spool_ = root_ / "spool";
    fs::create_directories(spool_);
  }

  std::vector<std::string> SpoolArgs(const fs::path& spool,
                                     std::vector<std::string> extra = {}) {
    std::vector<std::string> args = {"--threads", "2",      "--queue",
                                     "8",         "--warmup", "2",
                                     "--spool",   spool.string()};
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
  }

  // Writes under a temporary name and renames, so a running scanner never
  // sees a half-written snapshot.
  void WriteSpoolFile(const fs::path& spool, const std::string& name,
                      const std::string& content) {
    const fs::path tmp = spool / (name + ".partial");
    {
      std::ofstream out(tmp);
      out << content;
    }
    fs::rename(tmp, spool / name);
  }

  std::vector<std::string> FilesIn(const fs::path& dir) {
    std::vector<std::string> names;
    if (!fs::exists(dir)) return names;
    for (const auto& entry : fs::directory_iterator(dir)) {
      names.push_back(entry.path().filename().string());
    }
    return names;
  }

  // Waits until the scanner has taken every *.txns file out of `spool`.
  bool WaitSpoolEmpty(const fs::path& spool) {
    for (int i = 0; i < 800; ++i) {
      bool pending = false;
      for (const auto& entry : fs::directory_iterator(spool)) {
        pending |= entry.path().extension() == ".txns";
      }
      if (!pending) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return false;
  }

  // Polls GET /v1/streams/{stream}/deviation`query` until the stream has
  // processed `count` snapshots; returns the final body ("" on timeout).
  std::string WaitProcessed(net::HttpClient& client, const std::string& stream,
                            int count, const std::string& query = "") {
    const std::string want = "\"processed\":" + std::to_string(count) + ",";
    for (int i = 0; i < 800; ++i) {
      const auto deviation =
          client.Get("/v1/streams/" + stream + "/deviation" + query);
      if (deviation.has_value() && deviation->status == 200 &&
          deviation->body.find(want) != std::string::npos) {
        return deviation->body;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ADD_FAILURE() << stream << " never reached " << count << " processed";
    return "";
  }

  fs::path spool_;
};

TEST_F(ServedSpoolTest, EveryMalformedFixtureRejectedOnceWithReason) {
  for (const MalformedFixture& fixture : kMalformed) {
    WriteSpoolFile(spool_, fixture.name, fixture.content);
  }
  // Two well-formed snapshots mixed in; they must NOT be rejected.
  WriteSpoolFile(spool_, "s1__100_good.txns", Serialize(SmallDb(10, 40, 1)));
  WriteSpoolFile(spool_, "s2__000_good.txns", Serialize(SmallDb(10, 40, 2)));

  ASSERT_TRUE(StartDaemon(SpoolArgs(spool_)));
  ASSERT_TRUE(WaitSpoolEmpty(spool_)) << Log();

  // /metrics counted every rejection while the daemon runs.
  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_));
  const auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->body.find("focus_spool_rejected_files_total " +
                               std::to_string(std::size(kMalformed)) + "\n"),
            std::string::npos)
      << metrics->body;
  EXPECT_EQ(TerminateDaemon(), 0);

  // Exactly the malformed fixtures land in rejected/, each exactly once.
  const std::string log = Log();
  std::map<std::string, int> rejected;
  for (const std::string& name : FilesIn(spool_ / "rejected")) {
    ++rejected[name];
  }
  EXPECT_EQ(rejected.size(), std::size(kMalformed));
  for (const MalformedFixture& fixture : kMalformed) {
    EXPECT_EQ(rejected[fixture.name], 1) << fixture.name;
    // The daemon logged the loader's reason next to the filename.
    const size_t at = log.find(std::string("rejected malformed snapshot ") +
                               fixture.name + ": ");
    ASSERT_NE(at, std::string::npos) << fixture.name << "\nlog:\n" << log;
    const std::string line = log.substr(at, log.find('\n', at) - at);
    EXPECT_NE(line.find(fixture.reason_substring), std::string::npos)
        << "expected reason '" << fixture.reason_substring << "' in: " << line;
  }

  // The good snapshots were consumed, not quarantined, and processed.
  std::map<std::string, int> processed;
  for (const std::string& name : FilesIn(spool_ / "processed")) {
    ++processed[name];
  }
  EXPECT_EQ(processed["s1__100_good.txns"], 1);
  EXPECT_EQ(processed["s2__000_good.txns"], 1);
  EXPECT_NE(log.find("2 snapshots processed"), std::string::npos) << log;
}

TEST_F(ServedSpoolTest, RerunDoesNotDoubleCountRejections) {
  WriteSpoolFile(spool_, kMalformed[0].name, kMalformed[0].content);
  ASSERT_EQ(RunDaemon(SpoolArgs(spool_, {"--once", "1"})), 0) << Log();
  ASSERT_EQ(FilesIn(spool_ / "rejected").size(), 1u);

  // A second scan of the (now empty) spool must not re-reject or move
  // anything — quarantine is idempotent across restarts.
  ASSERT_EQ(RunDaemon(SpoolArgs(spool_, {"--once", "1"})), 0) << Log();
  EXPECT_EQ(FilesIn(spool_ / "rejected").size(), 1u);
  EXPECT_EQ(Log().find("rejected malformed snapshot"), std::string::npos);
}

// Spool and HTTP snapshots of one stream go through the same Ingest, so
// they share one dense sequence.
TEST_F(ServedSpoolTest, SpoolAndHttpIngestShareOneDenseSequence) {
  const std::string events = (root_ / "events.jsonl").string();
  ASSERT_TRUE(StartDaemon(SpoolArgs(spool_, {"--events", events})));
  WriteSpoolFile(spool_, "mix__000.txns", Serialize(SmallDb(10, 40, 3)));
  ASSERT_TRUE(WaitSpoolEmpty(spool_)) << Log();

  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_));
  const auto ingest = client.Post("/v1/streams/mix/snapshots",
                                  Serialize(SmallDb(10, 40, 4)), "text/plain");
  ASSERT_TRUE(ingest.has_value());
  ASSERT_EQ(ingest->status, 202) << ingest->body;
  EXPECT_NE(ingest->body.find("\"sequence\":1,"), std::string::npos)
      << ingest->body;
  EXPECT_NE(WaitProcessed(client, "mix", 2).find("\"seq\":1,"),
            std::string::npos);
  EXPECT_EQ(TerminateDaemon(), 0);

  std::ifstream in(events);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"seq\":0,\"source\":\"mix__000.txns\""),
            std::string::npos)
      << lines[0];
  EXPECT_NE(lines[1].find("\"seq\":1,\"source\":\"http\""),
            std::string::npos)
      << lines[1];
}

// --ooc serves spool snapshots from block files through the roaring index
// backend; the answers are byte-identical to a flat run.
TEST_F(ServedSpoolTest, OocDeviationMatchesFlatByteForByte) {
  const fs::path flat = root_ / "spool_flat";
  const fs::path ooc = root_ / "spool_ooc";
  fs::create_directories(flat);
  fs::create_directories(ooc);
  for (int i = 0; i < 3; ++i) {
    const std::string name = "s__00" + std::to_string(i) + ".txns";
    const std::string body = Serialize(SmallDb(10, 40 + 10 * i, 5 + i));
    WriteSpoolFile(flat, name, body);
    WriteSpoolFile(ooc, name, body);
  }
  const auto answers = [&](const fs::path& spool,
                           std::vector<std::string> extra) {
    std::vector<std::string> bodies;
    if (!StartDaemon(SpoolArgs(spool, std::move(extra)))) return bodies;
    net::HttpClient client;
    if (!client.Connect("127.0.0.1", port_)) return bodies;
    bodies.push_back(WaitProcessed(client, "s", 3));
    bodies.push_back(WaitProcessed(client, "s", 3, "?f=scaled&g=max"));
    EXPECT_EQ(TerminateDaemon(), 0);
    return bodies;
  };
  const std::vector<std::string> flat_bodies = answers(flat, {});
  const std::vector<std::string> ooc_bodies = answers(ooc, {"--ooc", "1"});
  ASSERT_EQ(flat_bodies.size(), 2u);
  EXPECT_NE(flat_bodies[0].find("\"deviation\":"), std::string::npos)
      << flat_bodies[0];
  EXPECT_EQ(ooc_bodies, flat_bodies);
  EXPECT_NE(Log().find("(ooc)"), std::string::npos) << Log();
}

TEST_F(ServedSpoolTest, SpoolWithShardsIsAUsageError) {
  EXPECT_EQ(RunDaemon(SpoolArgs(spool_, {"--shards", "1"})), 1);
  EXPECT_NE(Log().find("need --shards 0"), std::string::npos) << Log();
  EXPECT_EQ(RunDaemon({"--ooc", "1", "--shards", "1"}), 1);
}

TEST(DataIoErrorReasons, LoaderReportsSpecificReasons) {
  // The loader's out-param carries the same reasons the daemon logs.
  for (const MalformedFixture& fixture : kMalformed) {
    std::istringstream in(fixture.content);
    std::string error;
    ASSERT_FALSE(io::LoadTransactionDb(in, &error).has_value())
        << fixture.name;
    EXPECT_NE(error.find(fixture.reason_substring), std::string::npos)
        << fixture.name << ": got '" << error << "'";
  }
  // A clean load leaves no reason behind and the error param is optional.
  std::stringstream good;
  io::SaveTransactionDb(SmallDb(4, 5), good);
  EXPECT_TRUE(io::LoadTransactionDb(good).has_value());
}

}  // namespace
}  // namespace focus
