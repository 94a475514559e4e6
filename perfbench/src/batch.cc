// batch_compare: the analyst path, all in memory. One caller, closed loop;
// each iteration runs three ops from raw data with nothing cached between
// iterations:
//   lits compare   VerticalIndex x2, Apriori x2, LitsUpperBound, LitsDeviation
//   dt compare     BuildCart x2, DtModel x2, DtDeviation (pool of 3)
//   significance   LitsDeviationSignificance on a smaller pair

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/dt_deviation.h"
#include "core/lits_deviation.h"
#include "core/lits_upper_bound.h"
#include "core/significance.h"
#include "data/vertical_index.h"
#include "datagen/class_gen.h"
#include "datagen/quest_gen.h"
#include "inputs.h"
#include "itemsets/apriori.h"
#include "tree/cart_builder.h"
#include "workload.h"

namespace focus::perfbench {
namespace {

struct BatchInputs {
  data::TransactionDb lits1, lits2;
  data::Dataset dt1, dt2;
  data::TransactionDb sig1, sig2;
};

BatchInputs MakeInputs(uint64_t seed) {
  Span span("datagen.generate");
  datagen::ClassGenParams dt_params;
  dt_params.num_rows = kDtRows;
  dt_params.function = datagen::ClassFunction::kF4;
  dt_params.seed = DeriveSeed(seed, 20);
  datagen::ClassGenParams dt_params2 = dt_params;
  dt_params2.seed = DeriveSeed(seed, 21);
  return BatchInputs{
      datagen::GenerateQuest(LitsParams(seed, 0, kLitsTransactions)),
      datagen::GenerateQuest(LitsParams(seed, 1, kLitsTransactions)),
      datagen::GenerateClassification(dt_params),
      datagen::GenerateClassification(dt_params2),
      datagen::GenerateQuest(LitsParams(seed, 2, kSignificanceTransactions)),
      datagen::GenerateQuest(LitsParams(seed, 3, kSignificanceTransactions)),
  };
}

// The three answers of one iteration, compared bit for bit.
struct Answers {
  double upper_bound = 0.0;
  double lits_deviation = 0.0;
  double dt_deviation = 0.0;
  core::SignificanceResult significance;
  // Sizes, for the per-layer counts.
  int64_t frequent_itemsets = 0;
  int64_t gcr_regions = 0;
  int64_t leaves = 0;
  int64_t dt_gcr_regions = 0;

  bool SameAs(const Answers& other) const {
    return upper_bound == other.upper_bound &&
           lits_deviation == other.lits_deviation &&
           dt_deviation == other.dt_deviation &&
           significance.deviation == other.significance.deviation &&
           significance.significance_percent ==
               other.significance.significance_percent;
  }
};

struct OpTimes {
  double lits_ms = 0.0;
  double dt_ms = 0.0;
  double significance_ms = 0.0;
};

class BatchRunner {
 public:
  explicit BatchRunner(uint64_t seed)
      : inputs_(MakeInputs(seed)), dt_pool_(3) {
    cart_.max_depth = 10;
    cart_.min_leaf_size = 50;
    significance_.num_replicates = kSignificanceReplicates;
    significance_.seed = DeriveSeed(seed, 30);
  }

  // One iteration: all three ops from the raw data.
  Answers Iterate(OpTimes* times, bool with_sizes) {
    Answers answers;
    const lits::AprioriOptions mining = LitsMiningOptions();
    const core::DeviationFunction fn;

    double t0 = NowMs();
    {
      Span op("op.lits_compare");
      const data::VerticalIndex i1 = Traced(
          "data.vertical_index_build",
          [&] { return data::VerticalIndex(inputs_.lits1); });
      const data::VerticalIndex i2 = Traced(
          "data.vertical_index_build",
          [&] { return data::VerticalIndex(inputs_.lits2); });
      const lits::LitsModel m1 = Traced("itemsets.apriori", [&] {
        return lits::Apriori(inputs_.lits1, mining, i1);
      });
      const lits::LitsModel m2 = Traced("itemsets.apriori", [&] {
        return lits::Apriori(inputs_.lits2, mining, i2);
      });
      answers.upper_bound = Traced("core.lits_upper_bound", [&] {
        return core::LitsUpperBound(m1, m2, fn.g);
      });
      answers.lits_deviation = Traced("core.lits_deviation", [&] {
        return core::LitsDeviation(m1, i1, m2, i2, fn);
      });
      if (with_sizes) {
        answers.frequent_itemsets = m1.size() + m2.size();
        answers.gcr_regions =
            static_cast<int64_t>(core::LitsGcr(m1, m2).size());
      }
    }
    double t1 = NowMs();
    {
      Span op("op.dt_compare");
      dt::DecisionTree tree1 = Traced(
          "tree.build_cart", [&] { return dt::BuildCart(inputs_.dt1, cart_); });
      dt::DecisionTree tree2 = Traced(
          "tree.build_cart", [&] { return dt::BuildCart(inputs_.dt2, cart_); });
      const core::DtModel model1 = Traced("core.dt_model", [&] {
        return core::DtModel(std::move(tree1), inputs_.dt1);
      });
      const core::DtModel model2 = Traced("core.dt_model", [&] {
        return core::DtModel(std::move(tree2), inputs_.dt2);
      });
      core::DtDeviationOptions options;
      options.pool = &dt_pool_;
      answers.dt_deviation = Traced("core.dt_deviation", [&] {
        return core::DtDeviation(model1, inputs_.dt1, model2, inputs_.dt2,
                                 options);
      });
      if (with_sizes) {
        answers.leaves = model1.num_leaves() + model2.num_leaves();
        answers.dt_gcr_regions = core::DtGcr(model1, model2).num_regions();
      }
    }
    double t2 = NowMs();
    {
      Span op("op.significance");
      answers.significance = Traced("stats.significance", [&] {
        return core::LitsDeviationSignificance(inputs_.sig1, inputs_.sig2,
                                               mining, fn, significance_);
      });
    }
    double t3 = NowMs();
    times->lits_ms = t1 - t0;
    times->dt_ms = t2 - t1;
    times->significance_ms = t3 - t2;
    return answers;
  }

  // One mine without an index at the significance pair's size: the cost
  // each bootstrap replicate pays twice.
  void MeasureHorizontalMine() {
    Span span("itemsets.apriori_horizontal");
    lits::Apriori(inputs_.sig1, LitsMiningOptions());
  }

 private:
  BatchInputs inputs_;
  common::ThreadPool dt_pool_;
  dt::CartOptions cart_;
  core::SignificanceOptions significance_;
};

struct WindowStats {
  std::vector<double> iteration_ms, lits_ms, dt_ms, significance_ms;
  double seconds = 0.0;
};

WindowStats RunWindow(BatchRunner& runner, const Answers& reference,
                      double seconds, int64_t* next_op, Report* report) {
  WindowStats stats;
  const double start = NowMs();
  while (NowMs() - start < seconds * 1e3) {
    const int64_t op = (*next_op)++;
    SetCurrentOp(op);
    OpTimes times;
    Answers answers;
    {
      Span span("batch.iteration");
      answers = runner.Iterate(&times, /*with_sizes=*/false);
    }
    ++report->attempted;
    if (!answers.SameAs(reference)) {
      report->Fail("iteration " + std::to_string(op) +
                   " answers differ from the set-up reference");
    }
    stats.lits_ms.push_back(times.lits_ms);
    stats.dt_ms.push_back(times.dt_ms);
    stats.significance_ms.push_back(times.significance_ms);
    stats.iteration_ms.push_back(times.lits_ms + times.dt_ms +
                                 times.significance_ms);
  }
  SetCurrentOp(0);
  stats.seconds = (NowMs() - start) / 1e3;
  return stats;
}

}  // namespace

Report RunBatchCompare(const RunConfig& config) {
  Report report;
  Tracer& tracer = Tracer::Get();

  // Set-up: generate every dataset. Repeated; the last runner is kept.
  std::vector<double> setup_s;
  std::unique_ptr<BatchRunner> runner;
  for (int r = 0; r < kSetupRepeats; ++r) {
    tracer.SetEnabled(config.trace && r == kSetupRepeats - 1);
    runner.reset();
    const double start = NowMs();
    runner = std::make_unique<BatchRunner>(config.seed);
    setup_s.push_back((NowMs() - start) / 1e3);
  }

  // Reference answers (untimed): one iteration whose results every timed
  // iteration must reproduce bit for bit. It also checks Theorem 4.2's
  // delta* >= delta on this pair.
  OpTimes ignored;
  const Answers reference = runner->Iterate(&ignored, /*with_sizes=*/true);
  tracer.SetEnabled(false);
  if (!(reference.upper_bound >= reference.lits_deviation)) {
    report.Wrong("delta* below delta on the reference pair");
  }
  if (!(reference.significance.significance_percent >= 0.0 &&
        reference.significance.significance_percent < 100.0)) {
    report.Wrong("significance outside [0, 100)");
  }
  std::vector<SpanRecord> setup_spans = tracer.Take();

  const Window window = SplitWindow(config);
  int64_t next_op = 1;
  if (!ResetPeakRss()) report.Wrong("cannot reset the peak resident set");
  const WindowStats plain =
      RunWindow(*runner, reference, window.untraced_s, &next_op, &report);
  const double peak_rss_mib = PeakRssMib();

  auto& e2e = report.end_to_end;
  e2e["setup_s"] = Median(setup_s);
  e2e["peak_rss_mib"] = peak_rss_mib;
  e2e["throughput_ops_s"] =
      static_cast<double>(plain.iteration_ms.size()) / plain.seconds;
  e2e["compare_ms_p50"] = Median(plain.lits_ms);
  e2e["answer_ms_p90"] = Quantile(plain.iteration_ms, 0.9);
  report.samples["iteration"] = static_cast<int64_t>(plain.iteration_ms.size());

  if (!config.trace) return report;

  tracer.SetEnabled(true);
  const WindowStats traced =
      RunWindow(*runner, reference, window.traced_s, &next_op, &report);
  runner->MeasureHorizontalMine();
  tracer.SetEnabled(false);
  std::vector<SpanRecord> spans = tracer.Take();

  auto& layer = report.per_layer;
  const auto summary = SummarizeSpans(spans);
  ReportSelfTimes(summary, &report);
  const auto setup_summary = SummarizeSpans(setup_spans);
  layer["op.lits_compare_ms_p50"] = Median(plain.lits_ms);
  layer["op.dt_compare_ms_p50"] = Median(plain.dt_ms);
  layer["op.significance_ms_p50"] = Median(plain.significance_ms);
  layer["datagen.generate_s"] = MedianMs(setup_summary, "datagen.generate") / 1e3;
  layer["data.vertical_index_build_ms"] =
      MedianMs(summary, "data.vertical_index_build");
  layer["itemsets.apriori_ms"] = MedianMs(summary, "itemsets.apriori");
  layer["itemsets.frequent_itemsets"] =
      static_cast<double>(reference.frequent_itemsets);
  layer["itemsets.apriori_horizontal_ms"] =
      MedianMs(summary, "itemsets.apriori_horizontal");
  // A significance call mines the observed pair and then each replicate's
  // pair, so it costs about (replicates + 1) replicates.
  layer["stats.significance_replicate_ms"] =
      MedianMs(summary, "stats.significance") /
      (kSignificanceReplicates + 1);
  layer["core.lits_upper_bound_ms"] = MedianMs(summary, "core.lits_upper_bound");
  layer["core.lits_deviation_ms"] = MedianMs(summary, "core.lits_deviation");
  layer["core.gcr_regions"] = static_cast<double>(reference.gcr_regions);
  layer["core.dt_model_ms"] = MedianMs(summary, "core.dt_model");
  layer["core.dt_deviation_ms"] = MedianMs(summary, "core.dt_deviation");
  layer["core.dt_gcr_regions"] = static_cast<double>(reference.dt_gcr_regions);
  layer["tree.build_cart_ms"] = MedianMs(summary, "tree.build_cart");
  layer["tree.leaves"] = static_cast<double>(reference.leaves);
  layer["bench.tracing_overhead_pct"] =
      (Median(traced.iteration_ms) / Median(plain.iteration_ms) - 1.0) * 100.0;
  report.samples["traced_iteration"] =
      static_cast<int64_t>(traced.iteration_ms.size());
  ReportAccounting(spans, "batch.iteration", &report);
  ReportAccounting(spans, "op.lits_compare", &report);
  ReportAccounting(spans, "op.dt_compare", &report);
  ReportAccounting(spans, "op.significance", &report);

  spans.insert(spans.end(), setup_spans.begin(), setup_spans.end());
  WriteSpans(spans, config.workdir + "/spans.jsonl");
  return report;
}

}  // namespace focus::perfbench
