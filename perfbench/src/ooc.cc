// ooc_compare: the batch lits compare, same shape and size, over FBLK block
// files larger than the block cache. Each iteration opens both files
// (full validation), mines each through TxnSourceRef (streamed counting)
// and computes LitsDeviation over the two block sources.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/lits_deviation.h"
#include "data/block_store.h"
#include "data/block_txn_db.h"
#include "data/txn_source.h"
#include "data/vertical_index.h"
#include "datagen/quest_gen.h"
#include "inputs.h"
#include "itemsets/apriori.h"
#include "workload.h"

namespace focus::perfbench {
namespace {

// Small blocks so each file spans dozens of them.
constexpr int64_t kBlockSize = int64_t{16} << 10;
constexpr int kReadaheadThreads = 2;

// Writes `db` as a block file; returns its size in bytes.
int64_t WriteBlocks(const data::TransactionDb& db, const std::string& path) {
  Span span("data.block_write");
  auto out = data::OpenBlockFileForWrite(path);
  if (out == nullptr) return -1;
  data::BlockTransactionDbWriter writer(*out, db.num_items(), kBlockSize);
  for (int64_t t = 0; t < db.num_transactions(); ++t) {
    writer.Add(db.Transaction(t));
  }
  writer.Finish();
  out->flush();
  return out->good() ? static_cast<int64_t>(out->tellp()) : -1;
}

struct Reference {
  double deviation = 0.0;
  int64_t frequent_itemsets = 0;
};

struct IterationStats {
  double deviation = 0.0;
  int64_t frequent_itemsets = 0;
  int apriori_levels = 0;
  int64_t hits = 0, misses = 0, evictions = 0;
};

class OocRunner {
 public:
  OocRunner(std::string path1, std::string path2, int64_t cache_budget)
      : paths_{std::move(path1), std::move(path2)}, pool_(kReadaheadThreads) {
    options_.block_size = kBlockSize;
    options_.cache_budget_bytes = cache_budget;
    options_.pool = &pool_;
  }

  std::unique_ptr<data::BlockTransactionDb> Open(int which,
                                                 std::string* error) const {
    return data::BlockTransactionDb::OpenFile(paths_[which], options_, error);
  }

  // One iteration; false when a file fails to open.
  bool Iterate(IterationStats* stats, std::string* error) const {
    const lits::AprioriOptions mining = LitsMiningOptions();
    const core::DeviationFunction fn;
    const auto d1 = Traced("data.block_open", [&] { return Open(0, error); });
    if (d1 == nullptr) return false;
    const auto d2 = Traced("data.block_open", [&] { return Open(1, error); });
    if (d2 == nullptr) return false;
    const data::TxnSourceRef s1(*d1);
    const data::TxnSourceRef s2(*d2);
    const lits::LitsModel m1 = Traced(
        "itemsets.apriori_block", [&] { return lits::Apriori(s1, mining); });
    const lits::LitsModel m2 = Traced(
        "itemsets.apriori_block", [&] { return lits::Apriori(s2, mining); });
    stats->deviation = Traced("core.lits_deviation_block", [&] {
      return core::LitsDeviation(m1, s1, m2, s2, fn);
    });
    stats->frequent_itemsets = m1.size() + m2.size();
    for (const auto& [itemset, support] : m1.supports()) {
      stats->apriori_levels =
          std::max(stats->apriori_levels, static_cast<int>(itemset.size()));
    }
    stats->hits = d1->cache_hits() + d2->cache_hits();
    stats->misses = d1->cache_misses() + d2->cache_misses();
    stats->evictions = d1->cache_evictions() + d2->cache_evictions();
    return true;
  }

 private:
  const std::string paths_[2];
  common::ThreadPool pool_;
  data::BlockStoreOptions options_;
};

struct WindowStats {
  std::vector<double> iteration_ms;
  std::vector<double> hits, misses, evictions;
  int apriori_levels = 0;
  double seconds = 0.0;
};

WindowStats RunWindow(const OocRunner& runner, const Reference& reference,
                      double seconds, int64_t* next_op, Report* report) {
  WindowStats stats;
  const double start = NowMs();
  while (NowMs() - start < seconds * 1e3) {
    const int64_t op = (*next_op)++;
    SetCurrentOp(op);
    IterationStats iteration;
    std::string error;
    bool ok = false;
    const double t0 = NowMs();
    {
      Span span("op.lits_compare");
      ok = runner.Iterate(&iteration, &error);
    }
    const double t1 = NowMs();
    ++report->attempted;
    if (!ok) {
      report->Fail("iteration " + std::to_string(op) + ": " + error);
      break;
    }
    if (iteration.deviation != reference.deviation ||
        iteration.frequent_itemsets != reference.frequent_itemsets) {
      char what[160];
      std::snprintf(what, sizeof(what),
                    "iteration %lld: block deviation %.17g != in-memory %.17g",
                    static_cast<long long>(op), iteration.deviation,
                    reference.deviation);
      report->Fail(what);
    }
    stats.iteration_ms.push_back(t1 - t0);
    stats.hits.push_back(static_cast<double>(iteration.hits));
    stats.misses.push_back(static_cast<double>(iteration.misses));
    stats.evictions.push_back(static_cast<double>(iteration.evictions));
    stats.apriori_levels = iteration.apriori_levels;
  }
  SetCurrentOp(0);
  stats.seconds = (NowMs() - start) / 1e3;
  return stats;
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

}  // namespace

Report RunOocCompare(const RunConfig& config) {
  Report report;
  Tracer& tracer = Tracer::Get();
  const std::string prefix =
      config.workdir + "/ooc_" + std::to_string(config.seed);
  const std::string paths[2] = {prefix + "_0.fblk", prefix + "_1.fblk"};

  // Set-up: generate the batch workload's lits pair and write both block
  // files. Repeated; the files of the last repeat are used.
  std::vector<double> setup_s;
  int64_t file_bytes = 0;
  Reference reference;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const bool last = r == kSetupRepeats - 1;
    tracer.SetEnabled(config.trace && last);
    const double start = NowMs();
    std::vector<data::TransactionDb> dbs;
    {
      Span span("datagen.generate");
      for (int which = 0; which < 2; ++which) {
        dbs.push_back(datagen::GenerateQuest(
            LitsParams(config.seed, which, kLitsTransactions)));
      }
    }
    file_bytes = 0;
    for (int which = 0; which < 2; ++which) {
      const int64_t bytes = WriteBlocks(dbs[which], paths[which]);
      if (bytes < 0) {
        report.Wrong("cannot write " + paths[which]);
        return report;
      }
      file_bytes = std::max(file_bytes, bytes);
    }
    setup_s.push_back((NowMs() - start) / 1e3);
    if (last) {
      // The in-memory answer batch_compare computes for this seed
      // (untimed): flat vertical indexes, indexed Apriori, LitsDeviation.
      const lits::AprioriOptions mining = LitsMiningOptions();
      const data::VerticalIndex i1(dbs[0]);
      const data::VerticalIndex i2(dbs[1]);
      const lits::LitsModel m1 = lits::Apriori(dbs[0], mining, i1);
      const lits::LitsModel m2 = lits::Apriori(dbs[1], mining, i2);
      reference.deviation =
          core::LitsDeviation(m1, i1, m2, i2, core::DeviationFunction{});
      reference.frequent_itemsets = m1.size() + m2.size();
    }
  }
  tracer.SetEnabled(false);
  std::vector<SpanRecord> setup_spans = tracer.Take();

  // The decoded-block cache holds less than half of one encoded file, so
  // every scan streams most blocks from disk again.
  const OocRunner runner(paths[0], paths[1], file_bytes / 2);
  const Window window = SplitWindow(config);
  int64_t next_op = 1;
  if (!ResetPeakRss()) report.Wrong("cannot reset the peak resident set");
  const WindowStats plain =
      RunWindow(runner, reference, window.untraced_s, &next_op, &report);
  const double peak_rss_mib = PeakRssMib();

  auto& e2e = report.end_to_end;
  e2e["setup_s"] = Median(setup_s);
  e2e["peak_rss_mib"] = peak_rss_mib;
  e2e["throughput_ops_s"] =
      static_cast<double>(plain.iteration_ms.size()) / plain.seconds;
  e2e["compare_ms_p50"] = Median(plain.iteration_ms);
  e2e["answer_ms_p90"] = Quantile(plain.iteration_ms, 0.9);
  report.samples["iteration"] = static_cast<int64_t>(plain.iteration_ms.size());

  if (config.trace && report.correct) {
    tracer.SetEnabled(true);
    const WindowStats traced =
        RunWindow(runner, reference, window.traced_s, &next_op, &report);
    // One cold sequential scan of one file: read, CRC, decode.
    std::string error;
    const auto cold = runner.Open(0, &error);
    int64_t scanned = 0;
    if (cold != nullptr) {
      Span span("data.block_scan");
      cold->ForEachBlock([&](int64_t, const data::TransactionDb& block) {
        scanned += block.num_transactions();
      });
    }
    if (scanned != kLitsTransactions) {
      report.Wrong("cold scan read " + std::to_string(scanned) +
                   " transactions");
    }
    tracer.SetEnabled(false);
    std::vector<SpanRecord> spans = tracer.Take();

    const auto summary = SummarizeSpans(spans);
    ReportSelfTimes(summary, &report);
    const auto setup_summary = SummarizeSpans(setup_spans);
    auto& layer = report.per_layer;
    layer["op.lits_compare_ms_p50"] = Median(plain.iteration_ms);
    layer["datagen.generate_s"] =
        MedianMs(setup_summary, "datagen.generate") / 1e3;
    layer["data.block_write_s"] =
        MedianMs(setup_summary, "data.block_write") / 1e3;
    layer["data.block_open_ms"] = MedianMs(summary, "data.block_open");
    layer["data.block_scan_ms"] = MedianMs(summary, "data.block_scan");
    const double hits = Sum(traced.hits);
    const double misses = Sum(traced.misses);
    layer["data.block_cache_hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    layer["data.block_cache_misses"] = Median(traced.misses);
    layer["data.block_cache_evictions"] = Median(traced.evictions);
    layer["itemsets.apriori_block_ms"] =
        MedianMs(summary, "itemsets.apriori_block");
    layer["itemsets.frequent_itemsets"] =
        static_cast<double>(reference.frequent_itemsets);
    layer["core.lits_deviation_block_ms"] =
        MedianMs(summary, "core.lits_deviation_block");
    layer["itemsets.apriori_levels"] = traced.apriori_levels;
    layer["bench.tracing_overhead_pct"] =
        (Median(traced.iteration_ms) / Median(plain.iteration_ms) - 1.0) *
        100.0;
    report.samples["traced_iteration"] =
        static_cast<int64_t>(traced.iteration_ms.size());
    ReportAccounting(spans, "op.lits_compare", &report);
    spans.insert(spans.end(), setup_spans.begin(), setup_spans.end());
    WriteSpans(spans, config.workdir + "/spans.jsonl");
  }

  for (const std::string& path : paths) std::remove(path.c_str());
  return report;
}

}  // namespace focus::perfbench
