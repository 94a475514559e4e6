// Unit tests for the sharded scale-out stack: wire codec + incremental
// decoder, consistent-hash ring, the Unix-socket WireServer/ShardClient
// pair, and ShardWorker frame dispatch. The equivalence laws (sharded ≡
// single-node, bit-identical) live in tests/laws/laws_shard_test.cc; this
// file pins the byte-level and transport-level contracts.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "datagen/quest_gen.h"
#include "io/data_io.h"
#include "shard/hash_ring.h"
#include "shard/shard_client.h"
#include "shard/shard_router.h"
#include "shard/shard_worker.h"
#include "shard/wire.h"
#include "shard/wire_server.h"

namespace focus::shard {
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

// A fresh Unix-socket path under TMPDIR, unique per test.
std::string SocketPath(const std::string& tag) {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = tmp != nullptr ? tmp : "/tmp";
  return dir + "/focus_shard_test_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

// ------------------------------------------------------------------ codec

TEST(WireCodecTest, PayloadPrimitivesRoundTrip) {
  PayloadWriter writer;
  writer.PutU8(7);
  writer.PutU16(0xBEEF);
  writer.PutU32(0xDEADBEEF);
  writer.PutU64(0x0123456789ABCDEFull);
  writer.PutI64(-42);
  writer.PutDouble(0.1 + 0.2);  // not representable exactly: bits must match
  writer.PutString("hello");
  writer.PutItemset(lits::Itemset{1, 5, 9});

  PayloadReader reader(writer.bytes());
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double d = 0;
  std::string text;
  lits::Itemset itemset;
  EXPECT_TRUE(reader.GetU8(&u8));
  EXPECT_TRUE(reader.GetU16(&u16));
  EXPECT_TRUE(reader.GetU32(&u32));
  EXPECT_TRUE(reader.GetU64(&u64));
  EXPECT_TRUE(reader.GetI64(&i64));
  EXPECT_TRUE(reader.GetDouble(&d));
  EXPECT_TRUE(reader.GetString(&text));
  EXPECT_TRUE(reader.GetItemset(&itemset));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEF);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(d, 0.1 + 0.2);  // exact: IEEE-754 bits travel unchanged
  EXPECT_EQ(text, "hello");
  EXPECT_EQ(itemset, (lits::Itemset{1, 5, 9}));
  EXPECT_TRUE(reader.AtEnd());
  // One more read past the end flips ok().
  EXPECT_FALSE(reader.GetU8(&u8));
  EXPECT_FALSE(reader.ok());
}

TEST(WireCodecTest, TruncatedPayloadRejected) {
  PayloadWriter writer;
  writer.PutString("stream-name");
  const std::string bytes = writer.bytes();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    PayloadReader reader(std::string_view(bytes).substr(0, cut));
    std::string text;
    EXPECT_FALSE(reader.GetString(&text)) << "cut=" << cut;
  }
}

TEST(WireCodecTest, HostileListLengthCannotForceAllocation) {
  // A regions list claiming 2^31 entries but carrying 4 bytes must fail
  // fast instead of reserving gigabytes.
  PayloadWriter writer;
  writer.PutU32(0x80000000u);
  writer.PutU32(0);  // a lone itemset length
  PayloadReader reader(writer.bytes());
  std::vector<lits::Itemset> regions;
  EXPECT_FALSE(reader.GetRegions(&regions));
}

TEST(WireCodecTest, MessageBodiesRoundTrip) {
  {
    SubmitSnapshotBody body;
    body.stream = "payments";
    body.source = "10.0.0.1:9";
    body.snapshot = "focus-txns-v1\n...";
    SubmitSnapshotBody out;
    ASSERT_TRUE(out.Decode(body.Encode()));
    EXPECT_EQ(out.stream, body.stream);
    EXPECT_EQ(out.source, body.source);
    EXPECT_EQ(out.snapshot, body.snapshot);
  }
  {
    SubmitResultBody body;
    body.status = 429;
    body.sequence = 17;
    body.content_hash = 0xABCDEF0011223344ull;
    body.error = "ingest queue is full; retry later";
    SubmitResultBody out;
    ASSERT_TRUE(out.Decode(body.Encode()));
    EXPECT_EQ(out.status, body.status);
    EXPECT_EQ(out.sequence, body.sequence);
    EXPECT_EQ(out.content_hash, body.content_hash);
    EXPECT_EQ(out.error, body.error);
  }
  {
    DeviationResultBody body;
    body.found = 1;
    body.has_deviation = 1;
    body.deviation = 0.125;
    body.status.processed = 3;
    body.status.has_snapshot = true;
    body.status.sequence = 2;
    body.status.num_transactions = 300;
    body.status.delta_star = 0.5;
    body.status.deviation = 0.25;
    body.status.significance_percent = 99.0;
    body.status.alert = true;
    body.status.cusum = 1.5;
    body.status.change_point = true;
    body.status.baseline_ready = true;
    body.status.baseline_mean = 0.1;
    body.status.baseline_sd = 0.01;
    DeviationResultBody out;
    ASSERT_TRUE(out.Decode(body.Encode()));
    EXPECT_EQ(out.found, 1);
    EXPECT_EQ(out.deviation, body.deviation);
    EXPECT_EQ(out.status.sequence, 2);
    EXPECT_EQ(out.status.num_transactions, 300);
    EXPECT_EQ(out.status.significance_percent, 99.0);
    EXPECT_TRUE(out.status.alert);
    EXPECT_TRUE(out.status.change_point);
    EXPECT_EQ(out.status.baseline_sd, 0.01);
  }
  {
    ModelRegionsResultBody body;
    body.found = 1;
    body.num_transactions = 300;
    body.regions = {{1}, {1, 2}, {4, 7, 9}};
    ModelRegionsResultBody out;
    ASSERT_TRUE(out.Decode(body.Encode()));
    EXPECT_EQ(out.regions, body.regions);
    EXPECT_EQ(out.num_transactions, 300);
  }
  {
    PartialAggregateBody body;
    body.entries = {{"a", 1, 0.5}, {"b", 0, 0.0}};
    PartialAggregateBody out;
    ASSERT_TRUE(out.Decode(body.Encode()));
    ASSERT_EQ(out.entries.size(), 2u);
    EXPECT_EQ(out.entries[0].stream, "a");
    EXPECT_EQ(out.entries[0].deviation, 0.5);
    EXPECT_EQ(out.entries[1].has_deviation, 0);
  }
  {  // trailing garbage after a valid body must be rejected (AtEnd check)
    ErrorBody body;
    body.message = "boom";
    ErrorBody out;
    ASSERT_TRUE(out.Decode(body.Encode()));
    EXPECT_FALSE(out.Decode(body.Encode() + "x"));
  }
}

TEST(WireCodecTest, DeviationCodeMapping) {
  uint8_t f = 99, g = 99;
  ASSERT_TRUE(DeviationCodesFromNames("scaled", "max", &f, &g));
  EXPECT_EQ(f, kDiffScaled);
  EXPECT_EQ(g, kAggMax);
  EXPECT_FALSE(DeviationCodesFromNames("cubed", "max", &f, &g));

  core::DeviationFunction fn;
  ASSERT_TRUE(DeviationFunctionFromCodes(kDiffAbs, kAggSum, &fn));
  EXPECT_FALSE(DeviationFunctionFromCodes(7, kAggSum, &fn));
}

// ---------------------------------------------------------------- decoder

TEST(WireDecoderTest, ByteAtATimeMatchesOneShot) {
  Frame ping{MessageType::kPing, 1, ""};
  Frame query{MessageType::kDeviationQuery, 2,
              DeviationQueryBody{"s1", kDiffAbs, kAggMax}.Encode()};
  const std::string wire = EncodeFrame(ping) + EncodeFrame(query);

  WireDecoder one_shot;
  ASSERT_EQ(one_shot.Consume(wire), WireDecoder::Status::kComplete);
  EXPECT_EQ(one_shot.frame().type, MessageType::kPing);
  EXPECT_EQ(one_shot.frame().request_id, 1u);
  ASSERT_EQ(one_shot.Reset(), WireDecoder::Status::kComplete);
  EXPECT_EQ(one_shot.frame().type, MessageType::kDeviationQuery);
  EXPECT_EQ(one_shot.frame().request_id, 2u);
  EXPECT_EQ(one_shot.Reset(), WireDecoder::Status::kNeedMore);
  EXPECT_TRUE(one_shot.idle());

  WireDecoder dribble;
  std::vector<Frame> frames;
  for (char c : wire) {
    auto status = dribble.Consume(std::string_view(&c, 1));
    while (status == WireDecoder::Status::kComplete) {
      frames.push_back(dribble.frame());
      status = dribble.Reset();
    }
    ASSERT_NE(status, WireDecoder::Status::kError);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, MessageType::kPing);
  EXPECT_EQ(frames[1].payload, query.payload);
}

TEST(WireDecoderTest, OversizedPayloadIsTerminal) {
  WireLimits limits;
  limits.max_payload_bytes = 16;
  WireDecoder decoder(limits);
  Frame big{MessageType::kPing, 1, std::string(17, 'x')};
  EXPECT_EQ(decoder.Consume(EncodeFrame(big)), WireDecoder::Status::kError);
  EXPECT_FALSE(decoder.error().empty());
}

TEST(WireDecoderTest, UnknownTypeIsTerminal) {
  WireDecoder decoder;
  std::string wire = EncodeFrame(Frame{MessageType::kPing, 1, ""});
  wire[4] = '\x63';  // type byte out of range
  EXPECT_EQ(decoder.Consume(wire), WireDecoder::Status::kError);
}

TEST(WireDecoderTest, EncodeDecodeIsIdentity) {
  Frame frame{MessageType::kSubmitSnapshot, 0xFEEDF00Du,
              SubmitSnapshotBody{"s", "src", "payload"}.Encode()};
  WireDecoder decoder;
  ASSERT_EQ(decoder.Consume(EncodeFrame(frame)),
            WireDecoder::Status::kComplete);
  EXPECT_EQ(decoder.frame().type, frame.type);
  EXPECT_EQ(decoder.frame().request_id, frame.request_id);
  EXPECT_EQ(decoder.frame().payload, frame.payload);
  EXPECT_EQ(EncodeFrame(decoder.frame()), EncodeFrame(frame));
}

// -------------------------------------------------------------- hash ring

TEST(HashRingTest, AssignmentsAreDeterministicAndInRange) {
  HashRing ring(4);
  HashRing again(4);
  for (int i = 0; i < 200; ++i) {
    const std::string stream = "stream-" + std::to_string(i);
    const int shard = ring.ShardFor(stream);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    EXPECT_EQ(shard, again.ShardFor(stream));
  }
}

TEST(HashRingTest, SingleShardOwnsEverything) {
  HashRing ring(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(ring.ShardFor("s" + std::to_string(i)), 0);
  }
}

TEST(HashRingTest, LoadSpreadsAcrossShards) {
  HashRing ring(8);
  std::vector<int> counts(8, 0);
  const int kStreams = 4000;
  for (int i = 0; i < kStreams; ++i) {
    ++counts[ring.ShardFor("stream-" + std::to_string(i))];
  }
  // With 64 vnodes per shard the spread is loose but every shard must get
  // a meaningful share — no empty and no >2.5x-average shard.
  for (int shard = 0; shard < 8; ++shard) {
    EXPECT_GT(counts[shard], kStreams / 8 / 4) << "shard " << shard;
    EXPECT_LT(counts[shard], kStreams / 8 * 5 / 2) << "shard " << shard;
  }
}

TEST(HashRingTest, ResizeOnlyMovesABoundedFraction) {
  // Consistent hashing's point: going 4 -> 5 shards should move roughly
  // 1/5 of the keys, not reshuffle everything.
  HashRing four(4), five(5);
  const int kStreams = 4000;
  int moved = 0;
  for (int i = 0; i < kStreams; ++i) {
    const std::string stream = "stream-" + std::to_string(i);
    if (four.ShardFor(stream) != five.ShardFor(stream)) ++moved;
  }
  EXPECT_LT(moved, kStreams / 2);  // far below the ~100% of mod-N hashing
  EXPECT_GT(moved, 0);
}

// ------------------------------------------------- socket server + client

class WireSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reference_ = QuestDb(1);
    ShardWorkerOptions options;
    options.shard_index = 3;
    worker_ = std::make_unique<ShardWorker>(options, &reference_, nullptr);
    WireServerOptions server_options;
    server_options.unix_path = SocketPath("socket");
    std::string error;
    ASSERT_TRUE(worker_->Serve(server_options, &error)) << error;
    path_ = server_options.unix_path;
  }

  void TearDown() override {
    worker_->Stop();
    ::unlink(path_.c_str());
  }

  data::TransactionDb reference_;
  std::unique_ptr<ShardWorker> worker_;
  std::string path_;
};

TEST_F(WireSocketTest, PingRoundTripOverUnixSocket) {
  ShardClient client(path_);
  Frame response;
  std::string error;
  ASSERT_TRUE(client.Call(MessageType::kPing, "", &response, &error))
      << error;
  ASSERT_EQ(response.type, MessageType::kPong);
  PongBody pong;
  ASSERT_TRUE(pong.Decode(response.payload));
  EXPECT_EQ(pong.shard_index, 3u);
  EXPECT_EQ(pong.draining, 0);
}

TEST_F(WireSocketTest, SubmitThenQueryOverSocket) {
  ShardClient client(path_);
  Frame response;
  std::string error;

  SubmitSnapshotBody submit;
  submit.stream = "payments";
  submit.source = "test";
  submit.snapshot = Serialize(QuestDb(2));
  ASSERT_TRUE(client.Call(MessageType::kSubmitSnapshot, submit.Encode(),
                          &response, &error))
      << error;
  SubmitResultBody result;
  ASSERT_TRUE(result.Decode(response.payload));
  EXPECT_EQ(result.status, 202);
  EXPECT_EQ(result.sequence, 0);
  EXPECT_NE(result.content_hash, 0u);

  worker_->service().Flush();

  DeviationQueryBody query{"payments", kDiffAbs, kAggSum};
  ASSERT_TRUE(client.Call(MessageType::kDeviationQuery, query.Encode(),
                          &response, &error))
      << error;
  DeviationResultBody deviation;
  ASSERT_TRUE(deviation.Decode(response.payload));
  EXPECT_EQ(deviation.found, 1);
  EXPECT_EQ(deviation.has_deviation, 1);
  EXPECT_GT(deviation.deviation, 0.0);

  DeviationQueryBody unknown{"nope", kDiffAbs, kAggSum};
  ASSERT_TRUE(client.Call(MessageType::kDeviationQuery, unknown.Encode(),
                          &response, &error))
      << error;
  ASSERT_TRUE(deviation.Decode(response.payload));
  EXPECT_EQ(deviation.found, 0);
}

TEST_F(WireSocketTest, MalformedBodyAnswersErrorFrame) {
  ShardClient client(path_);
  Frame response;
  std::string error;
  // Valid frame, garbage body: the worker answers kError; the client
  // surfaces it as a failed call with the worker's message.
  EXPECT_FALSE(client.Call(MessageType::kDeviationQuery, "\x01garbage",
                           &response, &error));
  EXPECT_FALSE(error.empty());

  // The connection was poisoned by the failure; the next call transparently
  // reconnects and succeeds.
  ASSERT_TRUE(client.Call(MessageType::kPing, "", &response, &error))
      << error;
  EXPECT_EQ(response.type, MessageType::kPong);
}

TEST_F(WireSocketTest, ClientReportsServerGone) {
  ShardClient client(path_);
  Frame response;
  std::string error;
  ASSERT_TRUE(client.Call(MessageType::kPing, "", &response, &error));
  worker_->Stop();
  EXPECT_FALSE(client.Call(MessageType::kPing, "", &response, &error));
  EXPECT_FALSE(error.empty());
}

// --------------------------------------------------------- worker dispatch

TEST(ShardWorkerTest, RejectsMalformedSnapshotWithoutBurningSequence) {
  const data::TransactionDb reference = QuestDb(1);
  ShardWorker worker(ShardWorkerOptions{}, &reference, nullptr);

  SubmitSnapshotBody bad;
  bad.stream = "s";
  bad.snapshot = "this is not focus-txns-v1";
  Frame response = worker.HandleFrame(
      Frame{MessageType::kSubmitSnapshot, 1, bad.Encode()});
  SubmitResultBody result;
  ASSERT_TRUE(result.Decode(response.payload));
  EXPECT_EQ(result.status, 400);
  EXPECT_FALSE(result.error.empty());

  SubmitSnapshotBody good;
  good.stream = "s";
  good.snapshot = Serialize(QuestDb(2));
  response = worker.HandleFrame(
      Frame{MessageType::kSubmitSnapshot, 2, good.Encode()});
  ASSERT_TRUE(result.Decode(response.payload));
  EXPECT_EQ(result.status, 202);
  EXPECT_EQ(result.sequence, 0);  // the 400 did not consume a sequence
  worker.Stop();
}

TEST(ShardWorkerTest, DrainingWorkerAnswers503) {
  const data::TransactionDb reference = QuestDb(1);
  ShardWorker worker(ShardWorkerOptions{}, &reference, nullptr);
  worker.BeginDrain();

  SubmitSnapshotBody submit;
  submit.stream = "s";
  submit.snapshot = Serialize(QuestDb(2));
  const Frame response = worker.HandleFrame(
      Frame{MessageType::kSubmitSnapshot, 1, submit.Encode()});
  SubmitResultBody result;
  ASSERT_TRUE(result.Decode(response.payload));
  EXPECT_EQ(result.status, 503);
  worker.Stop();
}

TEST(ShardWorkerTest, ResponseEchoesRequestId) {
  const data::TransactionDb reference = QuestDb(1);
  ShardWorker worker(ShardWorkerOptions{}, &reference, nullptr);
  const Frame response =
      worker.HandleFrame(Frame{MessageType::kPing, 0xCAFE, ""});
  EXPECT_EQ(response.request_id, 0xCAFEu);
  worker.Stop();
}

// ----------------------------------------------------------------- router

TEST(ShardRouterTest, RoutesIngestAndQueriesToOwningShard) {
  const data::TransactionDb reference = QuestDb(1);
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::unique_ptr<LocalShardChannel>> channels;
  std::vector<ShardChannel*> shards;
  for (uint32_t i = 0; i < 3; ++i) {
    ShardWorkerOptions options;
    options.shard_index = i;
    workers.push_back(
        std::make_unique<ShardWorker>(options, &reference, nullptr));
    channels.push_back(
        std::make_unique<LocalShardChannel>(workers.back().get()));
    shards.push_back(channels.back().get());
  }
  ShardRouter router(shards);

  std::string error;
  EXPECT_TRUE(router.PingAll(&error)) << error;

  const std::string snapshot = Serialize(QuestDb(2));
  for (int i = 0; i < 6; ++i) {
    const std::string stream = "stream-" + std::to_string(i);
    SubmitResultBody result;
    ASSERT_EQ(router.Submit(stream, "test", snapshot, &result, &error),
              ShardRouter::Status::kOk)
        << error;
    EXPECT_EQ(result.status, 202);
    EXPECT_EQ(result.sequence, 0);  // every stream's first snapshot
  }
  for (auto& worker : workers) worker->service().Flush();

  for (int i = 0; i < 6; ++i) {
    const std::string stream = "stream-" + std::to_string(i);
    DeviationResultBody result;
    ASSERT_EQ(router.QueryDeviation(stream, kDiffAbs, kAggSum, &result,
                                    &error),
              ShardRouter::Status::kOk)
        << error;
    EXPECT_EQ(result.found, 1);
    EXPECT_EQ(result.has_deviation, 1);
    // The stream landed on exactly the shard the ring names.
    const int owner = router.ShardFor(stream);
    EXPECT_TRUE(workers[owner]->service().HasStream(stream));
    for (int other = 0; other < 3; ++other) {
      if (other != owner) {
        EXPECT_FALSE(workers[other]->service().HasStream(stream));
      }
    }
  }

  DeviationResultBody result;
  EXPECT_EQ(router.QueryDeviation("absent", kDiffAbs, kAggSum, &result,
                                  &error),
            ShardRouter::Status::kNotFound);

  std::vector<serve::SummaryEntry> entries;
  serve::SummaryResult summary;
  ASSERT_EQ(router.Summary(kDiffAbs, kAggSum, &entries, &summary, &error),
            ShardRouter::Status::kOk)
      << error;
  EXPECT_EQ(summary.num_streams, 6);
  EXPECT_EQ(summary.num_values, 6);
  EXPECT_TRUE(summary.has_aggregate);
  // Entries come back merged in canonical sorted order.
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].stream, entries[i].stream);
  }

  for (auto& worker : workers) worker->Stop();
}

TEST(ShardRouterTest, CompareAcrossShards) {
  const data::TransactionDb reference = QuestDb(1);
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::unique_ptr<LocalShardChannel>> channels;
  std::vector<ShardChannel*> shards;
  for (uint32_t i = 0; i < 2; ++i) {
    ShardWorkerOptions options;
    options.shard_index = i;
    workers.push_back(
        std::make_unique<ShardWorker>(options, &reference, nullptr));
    channels.push_back(
        std::make_unique<LocalShardChannel>(workers.back().get()));
    shards.push_back(channels.back().get());
  }
  ShardRouter router(shards);
  std::string error;

  // Find two streams owned by different shards.
  std::string left_stream, right_stream;
  for (int i = 0; i < 100 && (left_stream.empty() || right_stream.empty());
       ++i) {
    const std::string stream = "s" + std::to_string(i);
    if (router.ShardFor(stream) == 0 && left_stream.empty()) {
      left_stream = stream;
    }
    if (router.ShardFor(stream) == 1 && right_stream.empty()) {
      right_stream = stream;
    }
  }
  ASSERT_FALSE(left_stream.empty());
  ASSERT_FALSE(right_stream.empty());

  SubmitResultBody left_submit, right_submit;
  ASSERT_EQ(router.Submit(left_stream, "t", Serialize(QuestDb(2)),
                          &left_submit, &error),
            ShardRouter::Status::kOk);
  ASSERT_EQ(router.Submit(right_stream, "t", Serialize(QuestDb(3)),
                          &right_submit, &error),
            ShardRouter::Status::kOk);
  for (auto& worker : workers) worker->service().Flush();

  // Cross-shard: the two hashes live on different workers.
  double cross = 0.0;
  std::vector<uint64_t> missing;
  ASSERT_EQ(router.Compare(left_submit.content_hash,
                           right_submit.content_hash, kDiffAbs, kAggSum,
                           &cross, &missing, &error),
            ShardRouter::Status::kOk)
      << error;
  EXPECT_GT(cross, 0.0);

  // Self-compare of one hash: same shard holds both, deviation 0.
  double self = 1.0;
  ASSERT_EQ(router.Compare(left_submit.content_hash,
                           left_submit.content_hash, kDiffAbs, kAggSum,
                           &self, &missing, &error),
            ShardRouter::Status::kOk)
      << error;
  EXPECT_EQ(self, 0.0);

  // Unknown hashes are reported, not 500s.
  ASSERT_EQ(router.Compare(0x1111, 0x2222, kDiffAbs, kAggSum, &cross,
                           &missing, &error),
            ShardRouter::Status::kNotFound);
  EXPECT_EQ(missing.size(), 2u);

  EXPECT_EQ(router.Compare(left_submit.content_hash,
                           right_submit.content_hash, 9, 9, &cross, &missing,
                           &error),
            ShardRouter::Status::kInvalid);

  for (auto& worker : workers) worker->Stop();
}

TEST(ShardRouterTest, DeadShardSurfacesAsShardDown) {
  // A client pointed at a socket nobody serves: every router operation
  // reports kShardDown rather than wedging or crashing.
  ShardClient client(SocketPath("dead"));
  std::vector<ShardChannel*> shards = {&client};
  ShardRouter router(shards);
  std::string error;
  SubmitResultBody result;
  EXPECT_EQ(router.Submit("s", "t", "snapshot", &result, &error),
            ShardRouter::Status::kShardDown);
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(router.PingAll(&error));
}

}  // namespace
}  // namespace focus::shard
