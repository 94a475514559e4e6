// Tests for the serving layer: snapshot queue semantics, the mined-model
// LRU cache, the metrics registry/JSON export, and the MonitorService
// end-to-end (per-stream ordering, cross-stream concurrency, change-point
// detection on a shifted stream).

#include <gtest/gtest.h>

#include "common/mutex.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/functions.h"
#include "core/lits_deviation.h"
#include "core/monitor.h"
#include "data/vertical_index.h"
#include "datagen/quest_gen.h"
#include "itemsets/apriori.h"
#include "serve/metrics.h"
#include "serve/model_cache.h"
#include "serve/monitor_service.h"
#include "serve/snapshot_queue.h"

namespace focus::serve {
namespace {

data::TransactionDb QuestDb(uint64_t seed, uint64_t pattern_seed = 99) {
  datagen::QuestParams params;
  params.num_transactions = 400;
  params.num_items = 60;
  params.num_patterns = 100;
  params.avg_pattern_length = 4;
  params.avg_transaction_length = 8;
  params.seed = seed;
  params.pattern_seed = pattern_seed;
  return datagen::GenerateQuest(params);
}

Snapshot MakeSnapshot(const std::string& stream, int64_t sequence,
                      uint64_t seed, uint64_t pattern_seed = 99) {
  Snapshot snapshot;
  snapshot.stream = stream;
  snapshot.sequence = sequence;
  snapshot.source = "test";
  snapshot.db = QuestDb(seed, pattern_seed);
  return snapshot;
}

// ---------------------------------------------------------------- queue

TEST(SnapshotQueueTest, DeliversInFifoOrder) {
  SnapshotQueue queue(8);
  for (int i = 0; i < 5; ++i) {
    Snapshot s;
    s.stream = "a";
    s.sequence = i;
    s.db = data::TransactionDb(1);
    ASSERT_TRUE(queue.Push(std::move(s)));
  }
  for (int i = 0; i < 5; ++i) {
    auto popped = queue.Pop();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->sequence, i);
  }
}

TEST(SnapshotQueueTest, TryPushFailsWhenFull) {
  SnapshotQueue queue(2);
  Snapshot s;
  s.db = data::TransactionDb(1);
  EXPECT_TRUE(queue.TryPush(s));
  EXPECT_TRUE(queue.TryPush(s));
  EXPECT_FALSE(queue.TryPush(s));  // full
  EXPECT_EQ(queue.size(), 2u);
}

TEST(SnapshotQueueTest, PushBlocksUntilPopMakesRoom) {
  SnapshotQueue queue(1);
  Snapshot s;
  s.db = data::TransactionDb(1);
  ASSERT_TRUE(queue.Push(s));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    Snapshot t;
    t.sequence = 2;
    t.db = data::TransactionDb(1);
    queue.Push(std::move(t));
    second_pushed = true;
  });
  // The producer must be parked until a Pop frees a slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());
  EXPECT_TRUE(queue.Pop().has_value());
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(queue.Pop()->sequence, 2);
}

TEST(SnapshotQueueTest, CloseDrainsThenSignalsEnd) {
  SnapshotQueue queue(4);
  Snapshot s;
  s.sequence = 7;
  s.db = data::TransactionDb(1);
  ASSERT_TRUE(queue.Push(std::move(s)));
  queue.Close();
  Snapshot rejected;
  rejected.db = data::TransactionDb(1);
  EXPECT_FALSE(queue.Push(std::move(rejected)));  // closed to producers
  auto popped = queue.Pop();                      // queued item still delivered
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->sequence, 7);
  EXPECT_FALSE(queue.Pop().has_value());  // drained + closed => end
}

// Shutdown race: producers blocked in Push on a FULL queue while another
// thread calls Close. Every blocked Push must wake and return false (the
// snapshot is dropped, not enqueued past capacity), and the consumer must
// still drain exactly the pre-close items. Run under TSan in CI.
TEST(SnapshotQueueTest, CloseWakesProducersBlockedOnFullQueue) {
  SnapshotQueue queue(2);
  for (int i = 0; i < 2; ++i) {
    Snapshot s;
    s.sequence = i;
    s.db = data::TransactionDb(1);
    ASSERT_TRUE(queue.Push(std::move(s)));
  }

  constexpr int kProducers = 4;
  std::atomic<int> refused{0};
  std::atomic<int> started{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &refused, &started, p] {
      Snapshot s;
      s.sequence = 100 + p;
      s.db = data::TransactionDb(1);
      started.fetch_add(1);
      if (!queue.Push(std::move(s))) refused.fetch_add(1);
    });
  }
  // Give every producer a chance to park inside Push; none can proceed
  // while the queue is at capacity.
  while (started.load() < kProducers) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(queue.size(), 2u);

  queue.Close();
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(refused.load(), kProducers);

  // Only the two pre-close snapshots drain; then closed+empty = end.
  EXPECT_EQ(queue.Pop()->sequence, 0);
  EXPECT_EQ(queue.Pop()->sequence, 1);
  EXPECT_FALSE(queue.Pop().has_value());
}

// Close racing Pop on an EMPTY queue: a consumer parked in Pop must wake
// and observe end-of-stream rather than deadlock.
TEST(SnapshotQueueTest, CloseWakesConsumerBlockedOnEmptyQueue) {
  SnapshotQueue queue(2);
  std::atomic<bool> got_end{false};
  std::thread consumer([&queue, &got_end] {
    got_end.store(!queue.Pop().has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  consumer.join();
  EXPECT_TRUE(got_end.load());
}

// Producers, a consumer, and Close all racing: no snapshot may be lost or
// duplicated — every Push that returned true is Popped exactly once.
TEST(SnapshotQueueTest, CloseMidTrafficLosesNothingAccepted) {
  SnapshotQueue queue(3);
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 50;
  std::atomic<int> accepted{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &accepted, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Snapshot s;
        s.sequence = p * kPerProducer + i;
        s.db = data::TransactionDb(1);
        if (queue.Push(std::move(s))) accepted.fetch_add(1);
      }
    });
  }
  std::atomic<int> popped{0};
  std::thread consumer([&queue, &popped] {
    while (queue.Pop().has_value()) popped.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.Close();
  for (std::thread& t : producers) t.join();
  consumer.join();
  EXPECT_EQ(popped.load(), accepted.load());
  EXPECT_EQ(queue.size(), 0u);
}

TEST(SnapshotQueueTest, TryPushForTimesOutOnAFullQueue) {
  SnapshotQueue queue(1);
  Snapshot s;
  s.db = data::TransactionDb(1);
  ASSERT_TRUE(queue.Push(s));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(queue.TryPushFor(s, std::chrono::milliseconds(30)));
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_GE(waited, std::chrono::milliseconds(25));  // it really waited
  EXPECT_FALSE(queue.closed());  // timeout, not closure
  EXPECT_EQ(queue.size(), 1u);

  // Zero timeout degenerates to TryPush.
  EXPECT_FALSE(queue.TryPushFor(s, std::chrono::milliseconds(0)));
}

TEST(SnapshotQueueTest, TryPushForSucceedsWhenRoomAppears) {
  SnapshotQueue queue(1);
  Snapshot s;
  s.sequence = 1;
  s.db = data::TransactionDb(1);
  ASSERT_TRUE(queue.Push(s));
  std::thread consumer([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.Pop();
  });
  Snapshot t;
  t.sequence = 2;
  t.db = data::TransactionDb(1);
  EXPECT_TRUE(queue.TryPushFor(std::move(t), std::chrono::seconds(5)));
  consumer.join();
  EXPECT_EQ(queue.Pop()->sequence, 2);
}

TEST(SnapshotQueueTest, TryPushForRacingCloseNeverHangsOrLies) {
  // Producers spin TryPushFor while Close lands mid-traffic: every true
  // return must correspond to a popped snapshot, every false to nothing,
  // and nobody may hang past the bounded wait.
  SnapshotQueue queue(2);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 40;
  std::atomic<int> accepted{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &accepted] {
      for (int i = 0; i < kPerProducer; ++i) {
        Snapshot s;
        s.db = data::TransactionDb(1);
        if (queue.TryPushFor(std::move(s), std::chrono::milliseconds(5))) {
          accepted.fetch_add(1);
        }
      }
    });
  }
  std::atomic<int> popped{0};
  std::thread consumer([&queue, &popped] {
    while (queue.Pop().has_value()) popped.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  queue.Close();
  for (std::thread& t : producers) t.join();
  consumer.join();
  EXPECT_EQ(popped.load(), accepted.load());
  // Snapshot() (value-init), not Snapshot{}: list-init of the aggregate
  // trips GCC's explicit-constructor warning on the TransactionDb member.
  EXPECT_FALSE(queue.TryPushFor(Snapshot(), std::chrono::milliseconds(1)));
  EXPECT_TRUE(queue.closed());
}

// ------------------------------------------------------------ model cache

TEST(ModelCacheTest, ContentHashIsContentBased) {
  const data::TransactionDb a = QuestDb(1);
  const data::TransactionDb b = QuestDb(1);  // same content, fresh object
  const data::TransactionDb c = QuestDb(2);
  EXPECT_EQ(TransactionDbContentHash(a), TransactionDbContentHash(b));
  EXPECT_NE(TransactionDbContentHash(a), TransactionDbContentHash(c));
}

TEST(ModelCacheTest, HitsOnRepeatedSnapshotMissesOnNew) {
  lits::AprioriOptions options;
  options.min_support = 0.05;
  ModelCache cache(4, options);
  bool hit = true;
  const auto first = cache.GetOrMine(QuestDb(1), &hit);
  EXPECT_FALSE(hit);
  const auto again = cache.GetOrMine(QuestDb(1), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), again.get());  // same cached object
  cache.GetOrMine(QuestDb(2), &hit);
  EXPECT_FALSE(hit);
  const ModelCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ModelCacheTest, EvictsLeastRecentlyUsed) {
  lits::AprioriOptions options;
  options.min_support = 0.05;
  ModelCache cache(2, options);
  cache.GetOrMine(QuestDb(1));
  cache.GetOrMine(QuestDb(2));
  cache.GetOrMine(QuestDb(1));  // promote db1; db2 is now LRU
  cache.GetOrMine(QuestDb(3));  // evicts db2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  bool hit = false;
  cache.GetOrMine(QuestDb(1), &hit);
  EXPECT_TRUE(hit);  // survivor
  cache.GetOrMine(QuestDb(2), &hit);
  EXPECT_FALSE(hit);  // was evicted
}

TEST(ModelCacheTest, CachedModelMatchesDirectMining) {
  lits::AprioriOptions options;
  options.min_support = 0.05;
  ModelCache cache(2, options);
  const data::TransactionDb db = QuestDb(5);
  const auto cached = cache.GetOrMine(db);
  const lits::LitsModel direct = lits::Apriori(db, options);
  ASSERT_EQ(cached->size(), direct.size());
  for (const lits::Itemset& itemset : direct.StructuralComponent()) {
    EXPECT_DOUBLE_EQ(cached->SupportOr(itemset, -1.0),
                     direct.SupportOr(itemset, -1.0));
  }
}

TEST(ModelCacheTest, LookupMinedResolvesOnlyCachedHashes) {
  lits::AprioriOptions options;
  options.min_support = 0.05;
  ModelCache cache(2, options);
  const data::TransactionDb db = QuestDb(1);
  const MinedSnapshot mined = cache.GetOrMineIndexed(db);
  const uint64_t hash = TransactionDbContentHash(db);

  const auto found = cache.LookupMined(hash);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->model.get(), mined.model.get());
  EXPECT_EQ(found->index.get(), mined.index.get());
  EXPECT_FALSE(cache.LookupMined(hash ^ 1).has_value());

  // Lookup promotes: after touching db1, inserting two more evicts db2,
  // not db1.
  cache.GetOrMine(QuestDb(2));
  ASSERT_TRUE(cache.LookupMined(hash).has_value());
  cache.GetOrMine(QuestDb(3));
  EXPECT_TRUE(cache.LookupMined(hash).has_value());
  EXPECT_FALSE(
      cache.LookupMined(TransactionDbContentHash(QuestDb(2))).has_value());
}

TEST(ModelCacheTest, SurfacesCountersThroughMetricsRegistry) {
  lits::AprioriOptions options;
  options.min_support = 0.05;
  MetricsRegistry registry;
  ModelCache cache(1, options, &registry);
  cache.GetOrMine(QuestDb(1));  // miss
  cache.GetOrMine(QuestDb(1));  // hit
  cache.GetOrMine(QuestDb(2));  // miss + evicts db1
  EXPECT_EQ(registry.GetCounter("cache_hits").Value(), 1);
  EXPECT_EQ(registry.GetCounter("cache_misses").Value(), 2);
  EXPECT_EQ(registry.GetCounter("cache_evictions").Value(), 1);
  // The registry mirrors the cache's own stats exactly.
  const ModelCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.evictions, 1);
}

// --------------------------------------------------------------- metrics

TEST(MetricsTest, CountersAndGauges) {
  MetricsRegistry registry;
  registry.GetCounter("snapshots").Increment();
  registry.GetCounter("snapshots").Increment(4);
  registry.GetGauge("depth").Set(2.5);
  EXPECT_EQ(registry.GetCounter("snapshots").Value(), 5);
  EXPECT_DOUBLE_EQ(registry.GetGauge("depth").Value(), 2.5);
  // Same name must return the same object.
  EXPECT_EQ(&registry.GetCounter("snapshots"), &registry.GetCounter("snapshots"));
}

TEST(MetricsTest, HistogramStatsAndQuantiles) {
  Histogram histogram({1.0, 10.0, 100.0});
  for (double v : {0.5, 2.0, 3.0, 20.0}) histogram.Observe(v);
  EXPECT_EQ(histogram.count(), 4);
  EXPECT_DOUBLE_EQ(histogram.sum(), 25.5);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.5);
  EXPECT_DOUBLE_EQ(histogram.max(), 20.0);
  const double p50 = histogram.Quantile(0.5);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 10.0);  // median falls in the (1,10] bucket
  EXPECT_LE(histogram.Quantile(0.99), 100.0);
}

TEST(MetricsTest, EmptyHistogramIsSafe) {
  Histogram histogram({1.0});
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 0.0);
}

TEST(MetricsTest, JsonExportIsWellFormed) {
  MetricsRegistry registry;
  registry.GetCounter("a").Increment(3);
  registry.GetGauge("b").Set(1.5);
  registry.GetHistogram("c").Observe(2.0);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"unix_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"counters\":{\"a\":3}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{\"b\":1.5}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{\"c\":{"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(MetricsTest, JsonHelpers) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonNumber(1.5), "1.5");
  EXPECT_EQ(JsonNumber(0.0), "0");
  // Shortest representation must round-trip.
  EXPECT_EQ(std::stod(JsonNumber(0.1)), 0.1);
}

TEST(MetricsTest, PrometheusTextExposition) {
  MetricsRegistry registry;
  registry.GetCounter("snapshots_processed").Increment(7);
  registry.GetGauge("queue_depth").Set(3);
  Histogram& histogram = registry.GetHistogram("latency_ms");
  // Defaults span 0.1ms..~100s; observe into known buckets.
  histogram.Observe(0.05);
  histogram.Observe(50.0);
  const std::string text = registry.ToPrometheusText();

  EXPECT_NE(text.find("# TYPE focus_snapshots_processed_total counter\n"
                      "focus_snapshots_processed_total 7\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE focus_queue_depth gauge\n"
                      "focus_queue_depth 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE focus_latency_ms histogram"),
            std::string::npos);
  // Cumulative buckets end at +Inf == _count, and _sum matches.
  EXPECT_NE(text.find("focus_latency_ms_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("focus_latency_ms_sum 50.05"), std::string::npos);
  EXPECT_NE(text.find("focus_latency_ms_count 2"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');

  // Bucket counts are cumulative: every le series is >= the previous one.
  int64_t previous = -1;
  size_t at = 0;
  int buckets = 0;
  while ((at = text.find("focus_latency_ms_bucket{le=", at)) !=
         std::string::npos) {
    const size_t space = text.find("} ", at);
    const int64_t count = std::stoll(text.substr(space + 2));
    EXPECT_GE(count, previous);
    previous = count;
    ++buckets;
    ++at;
  }
  EXPECT_GT(buckets, 2);
}

TEST(MetricsTest, PrometheusNameSanitization) {
  EXPECT_EQ(PrometheusName("inspect_latency_ms"), "inspect_latency_ms");
  EXPECT_EQ(PrometheusName("weird-name.with spaces"),
            "weird_name_with_spaces");
  EXPECT_EQ(PrometheusName("9starts_with_digit"), "_9starts_with_digit");
  MetricsRegistry registry;
  registry.GetCounter("dotted.counter").Increment();
  EXPECT_NE(registry.ToPrometheusText().find("focus_dotted_counter_total 1"),
            std::string::npos);
}

// --------------------------------------------------------------- service

MonitorServiceOptions SmallServiceOptions() {
  MonitorServiceOptions options;
  options.monitor.apriori.min_support = 0.05;
  options.monitor.apriori.max_itemset_size = 2;
  options.monitor.calibration_replicates = 3;
  options.monitor.significance.num_replicates = 5;
  options.cusum.warmup = 4;
  options.cusum.decision_threshold = 4.0;
  options.num_threads = 2;
  options.queue_capacity = 8;
  options.model_cache_capacity = 8;
  return options;
}

TEST(MonitorServiceTest, ProcessesStreamInSubmissionOrder) {
  MetricsRegistry metrics;
  MonitorService service(SmallServiceOptions(), &metrics);
  service.AddStream("s", QuestDb(1000));
  EXPECT_TRUE(service.HasStream("s"));
  EXPECT_FALSE(service.HasStream("other"));

  std::vector<int64_t> order;
  service.SetEventSink(
      [&order](const StreamEvent& event) { order.push_back(event.sequence); });
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(service.Submit(MakeSnapshot("s", i, 2000 + i)));
  }
  service.Flush();
  ASSERT_EQ(order.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(service.processed(), 6);
  EXPECT_EQ(metrics.GetCounter("snapshots_processed").Value(), 6);
}

TEST(MonitorServiceTest, UnknownStreamIsRejectedNotProcessed) {
  MetricsRegistry metrics;
  MonitorService service(SmallServiceOptions(), &metrics);
  service.AddStream("known", QuestDb(1000));
  std::atomic<int> events{0};
  service.SetEventSink([&events](const StreamEvent&) { ++events; });
  EXPECT_TRUE(service.Submit(MakeSnapshot("unknown", 0, 1)));
  EXPECT_TRUE(service.Submit(MakeSnapshot("known", 0, 2)));
  service.Flush();
  EXPECT_EQ(events.load(), 1);
  EXPECT_EQ(metrics.GetCounter("snapshots_rejected").Value(), 1);
  EXPECT_EQ(service.processed(), 1);
}

TEST(MonitorServiceTest, RepeatedSnapshotHitsModelCache) {
  MetricsRegistry metrics;
  MonitorService service(SmallServiceOptions(), &metrics);
  service.AddStream("s", QuestDb(1000));
  bool saw_cache_hit = false;
  service.SetEventSink([&saw_cache_hit](const StreamEvent& event) {
    if (event.cache_hit) saw_cache_hit = true;
  });
  // The same snapshot content submitted twice: second mine must be skipped.
  ASSERT_TRUE(service.Submit(MakeSnapshot("s", 0, 77)));
  ASSERT_TRUE(service.Submit(MakeSnapshot("s", 1, 77)));
  service.Flush();
  EXPECT_TRUE(saw_cache_hit);
  EXPECT_GE(service.model_cache().stats().hits, 1);
  EXPECT_EQ(metrics.GetCounter("cache_hits").Value(), 1);
}

TEST(MonitorServiceTest, TwoStreamsProcessIndependently) {
  MetricsRegistry metrics;
  MonitorService service(SmallServiceOptions(), &metrics);
  service.AddStream("a", QuestDb(1000));
  service.AddStream("b", QuestDb(1001, /*pattern_seed=*/123));
  std::vector<std::string> seen_a, seen_b;
  common::Mutex mutex;
  service.SetEventSink([&](const StreamEvent& event) {
    common::MutexLock lock(&mutex);
    (event.stream == "a" ? seen_a : seen_b).push_back(event.stream);
  });
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.Submit(MakeSnapshot("a", i, 3000 + i)));
    ASSERT_TRUE(
        service.Submit(MakeSnapshot("b", i, 4000 + i, /*pattern_seed=*/123)));
  }
  service.Flush();
  EXPECT_EQ(seen_a.size(), 3u);
  EXPECT_EQ(seen_b.size(), 3u);
}

TEST(MonitorServiceTest, RegimeShiftTripsCusumChangePoint) {
  MonitorServiceOptions options = SmallServiceOptions();
  options.cusum.warmup = 5;
  options.cusum.decision_threshold = 4.0;
  MetricsRegistry metrics;
  MonitorService service(options, &metrics);
  // Reference and the first snapshots share pattern_seed 99: same
  // generating process, independent samples.
  service.AddStream("s", QuestDb(1000));
  bool change_point = false;
  service.SetEventSink([&change_point](const StreamEvent& event) {
    if (event.change_point) change_point = true;
  });
  int64_t seq = 0;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(service.Submit(MakeSnapshot("s", seq++, 5000 + i)));
  }
  // Regime shift: a different pattern table => different process.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        service.Submit(MakeSnapshot("s", seq++, 6000 + i, /*pattern_seed=*/7)));
  }
  service.Flush();
  EXPECT_TRUE(change_point);
  EXPECT_GE(metrics.GetCounter("change_points").Value(), 1);
}

TEST(MonitorServiceTest, SubmitAfterShutdownIsRefused) {
  MonitorService service(SmallServiceOptions(), /*metrics=*/nullptr);
  service.AddStream("s", QuestDb(1000));
  service.Shutdown();
  EXPECT_FALSE(service.Submit(MakeSnapshot("s", 0, 1)));
  service.Shutdown();  // idempotent
}

TEST(MonitorServiceTest, TrySubmitForShedsUnderSaturationThenRecovers) {
  MonitorServiceOptions options = SmallServiceOptions();
  options.num_threads = 1;
  options.queue_capacity = 1;  // in-flight bound: 1
  MetricsRegistry metrics;
  MonitorService service(options, &metrics);
  service.AddStream("s", QuestDb(1000));

  // The event sink runs on the worker BEFORE the snapshot stops counting
  // as in flight — blocking it holds the service at capacity
  // deterministically.
  common::Mutex gate_mutex;
  common::CondVar gate_cv;
  bool gate_open = false;
  std::atomic<int> events{0};
  service.SetEventSink([&](const StreamEvent&) {
    events.fetch_add(1);
    common::MutexLock lock(&gate_mutex);
    gate_cv.Wait(gate_mutex, [&] { return gate_open; });
  });

  ASSERT_EQ(service.TrySubmitFor(MakeSnapshot("s", 0, 7000),
                                 std::chrono::milliseconds(200)),
            SubmitResult::kAccepted);
  while (events.load() == 0) {  // the worker now sits inside the sink
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(service.TrySubmitFor(MakeSnapshot("s", 1, 7001),
                                 std::chrono::milliseconds(5)),
            SubmitResult::kOverloaded);
  EXPECT_EQ(metrics.GetCounter("snapshots_shed").Value(), 1);

  {
    common::MutexLock lock(&gate_mutex);
    gate_open = true;
  }
  gate_cv.NotifyAll();
  service.Flush();
  EXPECT_EQ(service.processed(), 1);  // the shed snapshot was dropped clean

  // After the backlog clears there is room again.
  EXPECT_EQ(service.TrySubmitFor(MakeSnapshot("s", 1, 7002),
                                 std::chrono::seconds(5)),
            SubmitResult::kAccepted);
  service.Flush();
  EXPECT_EQ(service.processed(), 2);

  service.Shutdown();
  EXPECT_EQ(service.TrySubmitFor(MakeSnapshot("s", 99, 8001),
                                 std::chrono::milliseconds(1)),
            SubmitResult::kShutdown);
}

// The one ingest decision every producer shares: a new stream registers
// on first sight, sequences are dense per stream and stamped on the
// snapshot, and a shed snapshot takes no number.
TEST(MonitorServiceTest, IngestRegistersLazilyAndNeverBurnsASequence) {
  MonitorServiceOptions options = SmallServiceOptions();
  options.num_threads = 1;
  options.queue_capacity = 1;  // in-flight bound: 1
  options.ingest_wait_ms = 5;
  MonitorService service(options, /*metrics=*/nullptr);
  const data::TransactionDb reference = QuestDb(1000);

  // Hold the single worker inside the sink so the service stays full.
  common::Mutex gate_mutex;
  common::CondVar gate_cv;
  bool gate_open = false;
  std::vector<std::string> seen;  // "<stream>#<seq>", guarded by the gate
  service.SetEventSink([&](const StreamEvent& event) {
    common::MutexLock lock(&gate_mutex);
    seen.push_back(event.stream + "#" + std::to_string(event.sequence));
    gate_cv.Wait(gate_mutex, [&] { return gate_open; });
  });
  const auto seen_count = [&] {
    common::MutexLock lock(&gate_mutex);
    return seen.size();
  };

  EXPECT_FALSE(service.HasStream("s"));
  const IngestResult first =
      service.Ingest(MakeSnapshot("s", -1, 7000), reference, false);
  EXPECT_TRUE(service.HasStream("s"));
  ASSERT_EQ(first.result, SubmitResult::kAccepted);
  EXPECT_EQ(first.sequence, 0);
  while (seen_count() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const IngestResult shed =
      service.Ingest(MakeSnapshot("s", -1, 7001), reference, false);
  EXPECT_EQ(shed.result, SubmitResult::kOverloaded);
  EXPECT_EQ(shed.sequence, -1);

  {
    common::MutexLock lock(&gate_mutex);
    gate_open = true;
  }
  gate_cv.NotifyAll();
  const IngestResult next =
      service.Ingest(MakeSnapshot("s", -1, 7002), reference, true);
  EXPECT_EQ(next.result, SubmitResult::kAccepted);
  EXPECT_EQ(next.sequence, 1);  // the shed snapshot burned nothing
  EXPECT_EQ(service.Ingest(MakeSnapshot("t", -1, 7003), reference, true)
                .sequence,
            0);
  service.Flush();
  EXPECT_EQ(service.processed(), 3);
  {
    common::MutexLock lock(&gate_mutex);
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, (std::vector<std::string>{"s#0", "s#1", "t#0"}));
  }

  service.Shutdown();
  const IngestResult late =
      service.Ingest(MakeSnapshot("s", -1, 7004), reference, true);
  EXPECT_EQ(late.result, SubmitResult::kShutdown);
  EXPECT_EQ(late.sequence, -1);
}

TEST(MonitorServiceTest, StatusAndQueryDeviationTrackLatestSnapshot) {
  MonitorService service(SmallServiceOptions(), /*metrics=*/nullptr);
  service.AddStream("s", QuestDb(1000));

  EXPECT_FALSE(service.GetStreamStatus("ghost").has_value());
  auto empty = service.GetStreamStatus("s");
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->processed, 0);
  EXPECT_FALSE(empty->has_snapshot);

  // Before any snapshot, QueryDeviation reports status but no deviation.
  core::DeviationFunction fn;
  fn.f = core::AbsoluteDiff();
  fn.g = core::AggregateKind::kSum;
  auto no_data = service.QueryDeviation("s", fn);
  ASSERT_TRUE(no_data.has_value());
  EXPECT_FALSE(no_data->has_deviation);

  ASSERT_TRUE(service.Submit(MakeSnapshot("s", 0, 42)));
  ASSERT_TRUE(service.Submit(MakeSnapshot("s", 1, 43)));
  service.Flush();

  const auto status = service.GetStreamStatus("s");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->processed, 2);
  EXPECT_TRUE(status->has_snapshot);
  EXPECT_EQ(status->sequence, 1);
  EXPECT_GT(status->num_transactions, 0);

  // The query recomputes from the CACHED model+index of snapshot 43 and
  // must agree with a direct vertical LitsDeviation over the same data.
  const auto result = service.QueryDeviation("s", fn);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->has_deviation);
  core::LitsChangeMonitor direct(QuestDb(1000),
                                 SmallServiceOptions().monitor);
  const data::TransactionDb latest = QuestDb(43);
  const data::VerticalIndex latest_index(latest);
  const lits::LitsModel latest_model = lits::Apriori(
      latest, SmallServiceOptions().monitor.apriori, &latest_index);
  EXPECT_DOUBLE_EQ(result->deviation,
                   core::LitsDeviation(direct.reference_model(),
                                       direct.reference_index(), latest_model,
                                       latest_index, fn));

  // Different (f,g) choices answer from the same cached state.
  core::DeviationFunction scaled_max;
  scaled_max.f = core::ScaledDiff();
  scaled_max.g = core::AggregateKind::kMax;
  const auto other = service.QueryDeviation("s", scaled_max);
  ASSERT_TRUE(other.has_value());
  EXPECT_TRUE(other->has_deviation);
}

TEST(StreamEventTest, ToJsonContainsCoreFields) {
  StreamEvent event;
  event.stream = "payments";
  event.sequence = 12;
  event.source = "spool/x.txns";
  event.num_transactions = 400;
  event.report.upper_bound = 0.25;
  event.report.screened_out = true;
  event.cusum = 1.5;
  event.cache_hit = true;
  const std::string json = event.ToJson();
  EXPECT_NE(json.find("\"type\":\"event\""), std::string::npos);
  EXPECT_NE(json.find("\"stream\":\"payments\""), std::string::npos);
  EXPECT_NE(json.find("\"seq\":12"), std::string::npos);
  EXPECT_NE(json.find("\"delta_star\":0.25"), std::string::npos);
  EXPECT_NE(json.find("\"screened_out\":true"), std::string::npos);
  EXPECT_NE(json.find("\"cusum\":1.5"), std::string::npos);
  // Screened-out events carry no exact deviation.
  EXPECT_EQ(json.find("\"delta\":"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

}  // namespace
}  // namespace focus::serve
