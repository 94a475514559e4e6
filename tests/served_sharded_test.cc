// End-to-end test of the REAL focus_served binary in sharded mode
// (--shards 2 --reactors 2): boot it on an ephemeral loopback port with
// two forked shard workers, drive the scatter-gather HTTP API from this
// process, then deliver an actual SIGTERM and verify the full-tree drain
// — every worker reaps cleanly and the parent exits 0.

#include <csignal>
#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
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

// Pulls the string value of `key` out of a flat JSON object body.
std::string JsonString(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = body.find(needle);
  if (at == std::string::npos) return "";
  const size_t start = at + needle.size();
  const size_t end = body.find('"', start);
  if (end == std::string::npos) return "";
  return body.substr(start, end - start);
}

class ServedShardedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("served_sharded_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::remove_all(root_);
    // The daemon must create the missing --shard-dir itself (same
    // contract as focus_monitord's spool directory).
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

  // Spawns the sharded daemon (2 workers, 2 reactors) and waits for
  // --port-file to announce the bound port. The port file is only written
  // after every worker answered a ping, so a successful boot already
  // proves fork + Unix-socket serve + PingAll.
  bool StartDaemon() {
    pid_ = fork();
    if (pid_ == 0) {
      const int out = open((root_ / "stdout.txt").c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC, 0644);
      dup2(out, STDOUT_FILENO);
      dup2(out, STDERR_FILENO);
      execl(FOCUS_SERVED_PATH, FOCUS_SERVED_PATH, "--reference",
            reference_path_.c_str(), "--port", "0", "--port-file",
            port_file_.c_str(), "--shards", "2", "--reactors", "2",
            "--shard-dir", (root_ / "shards").c_str(), "--minsup", "0.3",
            "--calibration", "1", "--replicates", "1", "--threads", "2",
            "--queue", "8", static_cast<char*>(nullptr));
      _exit(127);  // exec failed
    }
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

  // SIGTERM + waitpid; returns the daemon's exit code (-1 on signal death).
  int TerminateDaemon() {
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  std::string ReadLog() {
    std::ifstream log(root_ / "stdout.txt");
    std::stringstream text;
    text << log.rdbuf();
    return text.str();
  }

  fs::path root_;
  std::string reference_path_;
  std::string port_file_;
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

TEST_F(ServedShardedTest, ScatterGathersAndSigtermDrainsAllWorkers) {
  ASSERT_TRUE(StartDaemon());

  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_));
  const auto health = client.Get("/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  EXPECT_NE(health->body.find("\"ok\""), std::string::npos);

  // Enough distinct streams that the hash ring spreads work across both
  // shards; each first snapshot must come back with a dense sequence 0.
  const std::vector<std::string> streams = {"alpha", "beta",  "gamma",
                                            "delta", "omega", "sigma"};
  std::vector<std::string> hashes;
  for (size_t s = 0; s < streams.size(); ++s) {
    const auto response = client.Post(
        "/v1/streams/" + streams[s] + "/snapshots",
        Serialize(SmallDb(10, 40, static_cast<int64_t>(s))), "text/plain");
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->status, 202) << response->body;
    EXPECT_NE(response->body.find("\"sequence\":0"), std::string::npos)
        << response->body;
    const std::string hash = JsonString(response->body, "content_hash");
    ASSERT_FALSE(hash.empty()) << response->body;
    hashes.push_back(hash);
  }
  ASSERT_EQ(client
                .Post("/v1/streams/alpha/snapshots",
                      Serialize(SmallDb(10, 40, 17)), "text/plain")
                ->status,
            202);

  // Every stream's deviation converges — routed to whichever worker owns
  // it on the ring.
  for (size_t s = 0; s < streams.size(); ++s) {
    const std::string want =
        streams[s] == "alpha" ? "\"processed\":2" : "\"processed\":1";
    bool processed = false;
    for (int i = 0; i < 200 && !processed; ++i) {
      const auto deviation =
          client.Get("/v1/streams/" + streams[s] + "/deviation");
      ASSERT_TRUE(deviation.has_value());
      ASSERT_EQ(deviation->status, 200) << deviation->body;
      processed = deviation->body.find(want) != std::string::npos;
      if (!processed) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    }
    EXPECT_TRUE(processed) << streams[s];
  }

  // The summary endpoint gathers every shard's streams into one answer.
  const auto summary = client.Get("/v1/deviation/summary");
  ASSERT_TRUE(summary.has_value());
  ASSERT_EQ(summary->status, 200) << summary->body;
  for (const std::string& stream : streams) {
    EXPECT_NE(summary->body.find("\"" + stream + "\""), std::string::npos)
        << summary->body;
  }

  // Cross-shard compare: distinct snapshots give a positive deviation,
  // a snapshot against itself is exactly zero.
  const auto differ = client.Post(
      "/v1/compare", "left=" + hashes[0] + "&right=" + hashes[1],
      "application/x-www-form-urlencoded");
  ASSERT_TRUE(differ.has_value());
  ASSERT_EQ(differ->status, 200) << differ->body;
  EXPECT_NE(differ->body.find("\"deviation\":"), std::string::npos);
  const auto same = client.Post(
      "/v1/compare", "left=" + hashes[2] + "&right=" + hashes[2],
      "application/x-www-form-urlencoded");
  ASSERT_TRUE(same.has_value());
  ASSERT_EQ(same->status, 200) << same->body;
  EXPECT_NE(same->body.find("\"deviation\":0}"), std::string::npos)
      << same->body;

  // Real SIGTERM: parent drains both workers and reaps them cleanly.
  EXPECT_EQ(TerminateDaemon(), 0);

  const std::string log = ReadLog();
  EXPECT_NE(log.find("draining"), std::string::npos) << log;
  EXPECT_NE(log.find("[shard 0]: drained"), std::string::npos) << log;
  EXPECT_NE(log.find("[shard 1]: drained"), std::string::npos) << log;
  EXPECT_NE(log.find("2 workers clean"), std::string::npos) << log;
}

TEST_F(ServedShardedTest, SigtermFinishesAcceptedWorkAcrossShards) {
  ASSERT_TRUE(StartDaemon());
  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_));

  // Accept work on several ring positions, then SIGTERM straight away:
  // the drain contract is that every 202 is processed before the workers
  // exit, and both workers still report a clean drain.
  int accepted = 0;
  const std::vector<std::string> streams = {"burst-a", "burst-b", "burst-c",
                                            "burst-d"};
  for (size_t s = 0; s < streams.size(); ++s) {
    const auto response = client.Post(
        "/v1/streams/" + streams[s] + "/snapshots",
        Serialize(SmallDb(10, 50, 20 + static_cast<int64_t>(s))),
        "text/plain");
    ASSERT_TRUE(response.has_value());
    if (response->status == 202) ++accepted;
  }
  ASSERT_GT(accepted, 0);
  EXPECT_EQ(TerminateDaemon(), 0);

  const std::string log = ReadLog();
  EXPECT_NE(log.find("2 workers clean"), std::string::npos) << log;
  // Per-worker drain lines carry the processed counts; summed they must
  // equal every accepted snapshot.
  int processed = 0;
  size_t at = 0;
  while ((at = log.find("]: drained; ", at)) != std::string::npos) {
    at += std::string("]: drained; ").size();
    processed += std::stoi(log.substr(at));
  }
  EXPECT_EQ(processed, accepted) << log;
}

// --events logs the in-process service's events; with --shards the events
// happen in the workers, so asking for both is a usage error (exit 1)
// before anything is forked or bound.
TEST_F(ServedShardedTest, EventsWithShardsIsAUsageError) {
  const std::string events_path = (root_ / "events.jsonl").string();
  pid_ = fork();
  if (pid_ == 0) {
    const int out = open((root_ / "stdout.txt").c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
    dup2(out, STDOUT_FILENO);
    dup2(out, STDERR_FILENO);
    execl(FOCUS_SERVED_PATH, FOCUS_SERVED_PATH, "--reference",
          reference_path_.c_str(), "--port", "0", "--port-file",
          port_file_.c_str(), "--shards", "2", "--events",
          events_path.c_str(), static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  int status = 0;
  waitpid(pid_, &status, 0);
  pid_ = -1;
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  EXPECT_NE(ReadLog().find("--events"), std::string::npos) << ReadLog();
  EXPECT_FALSE(fs::exists(events_path));
  EXPECT_FALSE(fs::exists(port_file_));
}

}  // namespace
}  // namespace focus
