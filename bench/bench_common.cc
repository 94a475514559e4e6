#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/env.h"
#include "common/table_printer.h"
#include "common/timer.h"

namespace focus::bench {

void EmitBenchJson(const std::string& json_line) {
  std::printf("%s\n", json_line.c_str());
  std::fflush(stdout);
  const std::string path = common::GetEnvString("FOCUS_BENCH_JSON", "");
  if (path.empty()) return;
  std::ofstream out(path, std::ios::app);
  if (out) out << json_line << "\n";
}

int64_t ScaledCount(int64_t default_small, int64_t paper_full) {
  if (common::GetEnvBool("FOCUS_FULL", false)) return paper_full;
  const double scale = common::GetEnvDouble("FOCUS_SCALE", 1.0);
  const int64_t scaled =
      static_cast<int64_t>(static_cast<double>(default_small) * scale);
  // Tiny scales floor at 100, but never above the unscaled default, so a
  // smoke run is never larger than a default run.
  return std::max(scaled, std::min<int64_t>(100, default_small));
}

int SamplesPerFraction(int default_samples) {
  if (common::GetEnvBool("FOCUS_FULL", false)) return 50;  // the paper's 50
  return static_cast<int>(common::GetEnvInt("FOCUS_SAMPLES", default_samples));
}

int BootstrapReplicates(int default_replicates) {
  return static_cast<int>(
      common::GetEnvInt("FOCUS_REPLICATES", default_replicates));
}

void PrintHeader(const std::string& experiment_id, const std::string& title,
                 const std::string& paper_expectation) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", experiment_id.c_str(), title.c_str());
  std::printf("paper: %s\n", paper_expectation.c_str());
  std::printf("==============================================================\n");
}

datagen::QuestParams PaperQuestParams(int64_t num_transactions,
                                      int32_t num_patterns,
                                      double pattern_length, uint64_t seed) {
  datagen::QuestParams params;
  params.num_transactions = num_transactions;
  params.avg_transaction_length = 20;
  params.num_items = 1000;
  params.num_patterns = num_patterns;
  params.avg_pattern_length = pattern_length;
  params.seed = seed;
  return params;
}

datagen::ClassGenParams PaperClassParams(int64_t num_rows,
                                         datagen::ClassFunction function,
                                         uint64_t seed) {
  datagen::ClassGenParams params;
  params.num_rows = num_rows;
  params.function = function;
  params.seed = seed;
  return params;
}

void PrintSdSeries(const std::string& caption,
                   const std::vector<core::SampleStudyPoint>& points) {
  std::printf("%s\n", caption.c_str());
  common::TablePrinter table({"SF", "mean SD", "min SD", "max SD"});
  for (const core::SampleStudyPoint& point : points) {
    double lo = point.sample_deviations[0];
    double hi = point.sample_deviations[0];
    for (double sd : point.sample_deviations) {
      lo = sd < lo ? sd : lo;
      hi = sd > hi ? sd : hi;
    }
    table.AddRow({common::FormatDouble(point.fraction, 2),
                  common::FormatDouble(point.mean_sd, 5),
                  common::FormatDouble(lo, 5), common::FormatDouble(hi, 5)});
  }
  table.Print();
}

void PrintSignificanceTable(const std::vector<core::SampleStudyPoint>& points,
                            const std::vector<double>& significances) {
  std::vector<std::string> header = {"Sample Fraction"};
  std::vector<std::string> row = {"Significance"};
  for (size_t i = 0; i + 1 < points.size(); ++i) {
    header.push_back(common::FormatDouble(points[i].fraction, 2));
    row.push_back(common::FormatDouble(significances[i], 2));
  }
  common::TablePrinter table(header);
  table.AddRow(row);
  table.Print();
}

void RunLitsSdVsSfFigure(const std::string& figure_id, int64_t default_small,
                         int64_t paper_full) {
  const int64_t n = ScaledCount(default_small, paper_full);
  const datagen::QuestParams params = PaperQuestParams(n, 4000, 4, /*seed=*/1);
  PrintHeader(figure_id, "lits-models: SD vs SF, three minsup levels",
              "SD decreases with SF; lower minsup => larger SD; elbow near "
              "SF 0.2-0.3 (dataset " +
                  params.Name() + " family)");
  std::printf("measured on %s (scaled), %d samples per fraction\n\n",
              params.Name().c_str(), SamplesPerFraction(5));

  common::Timer timer;
  const data::TransactionDb db = datagen::GenerateQuest(params);
  for (const double min_support : {0.01, 0.008, 0.006}) {
    core::LitsStudyConfig config;
    config.apriori.min_support = min_support;
    config.samples_per_fraction = SamplesPerFraction(5);
    config.seed = 7;
    const auto points = core::LitsSampleStudy(db, config);
    char caption[96];
    std::snprintf(caption, sizeof(caption), "\nf_a,g_sum; minSup=%.3f",
                  min_support);
    PrintSdSeries(caption, points);
  }
  std::printf("\ntotal time: %.1fs\n", timer.Seconds());
}

void RunDtSdVsSfFigure(const std::string& figure_id, int64_t default_small,
                       int64_t paper_full) {
  const int64_t n = ScaledCount(default_small, paper_full);
  PrintHeader(figure_id, "dt-models: SD vs SF, functions F1-F4",
              "SD decreases with SF for every function; magnitudes around "
              "0.005-0.03 at small SF");
  std::printf("measured at %lld tuples (scaled), %d samples per fraction\n\n",
              static_cast<long long>(n), SamplesPerFraction(5));

  common::Timer timer;
  const datagen::ClassFunction functions[] = {
      datagen::ClassFunction::kF1, datagen::ClassFunction::kF2,
      datagen::ClassFunction::kF3, datagen::ClassFunction::kF4};
  for (const datagen::ClassFunction function : functions) {
    const data::Dataset dataset =
        datagen::GenerateClassification(PaperClassParams(n, function, 1));
    core::DtStudyConfig config;
    config.cart.max_depth = 8;
    config.cart.min_leaf_size = 50;
    config.samples_per_fraction = SamplesPerFraction(5);
    config.seed = 7;
    const auto points = core::DtSampleStudy(dataset, config);
    char caption[64];
    std::snprintf(caption, sizeof(caption), "\nf_a,g_sum: F%d",
                  static_cast<int>(function));
    PrintSdSeries(caption, points);
  }
  std::printf("\ntotal time: %.1fs\n", timer.Seconds());
}

}  // namespace focus::bench
