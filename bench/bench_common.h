#ifndef FOCUS_BENCH_BENCH_COMMON_H_
#define FOCUS_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/sampling_study.h"
#include "datagen/class_gen.h"
#include "datagen/quest_gen.h"

namespace focus::bench {

// Shared plumbing for the per-table/figure reproduction binaries.
//
// Workload scale: every binary prints the paper's reference rows and then
// the measured reproduction at a scaled-down default size (this box has a
// single core). Environment knobs:
//   FOCUS_SCALE=<float>  multiply default sizes (default 1.0)
//   FOCUS_FULL=1         use the paper's original sizes
//   FOCUS_SAMPLES=<int>  samples per fraction in SD studies (default 10;
//                        the paper uses 50)
//   FOCUS_REPLICATES=<n> bootstrap replicates for sig(delta) (default 9)

// Chooses a workload size: the paper's `paper_full` under FOCUS_FULL,
// otherwise `default_small` scaled by FOCUS_SCALE and floored at
// min(100, default_small).
int64_t ScaledCount(int64_t default_small, int64_t paper_full);

// Machine-readable results: prints `json_line` to stdout and, when the
// FOCUS_BENCH_JSON environment variable names a file, appends the line to
// it as well (JSONL). This is how the checked-in BENCH_*.json records are
// produced and how the CI bench-smoke job keeps them parseable.
void EmitBenchJson(const std::string& json_line);

int SamplesPerFraction(int default_samples = 10);
int BootstrapReplicates(int default_replicates = 9);

// Prints the standard experiment banner.
void PrintHeader(const std::string& experiment_id, const std::string& title,
                 const std::string& paper_expectation);

// Quest parameters for the paper's N.20L.1K.4000pats.4patlen family.
datagen::QuestParams PaperQuestParams(int64_t num_transactions,
                                      int32_t num_patterns, double pattern_length,
                                      uint64_t seed);

// Classification parameters for the paper's NM.Fnum family.
datagen::ClassGenParams PaperClassParams(int64_t num_rows,
                                         datagen::ClassFunction function,
                                         uint64_t seed);

// Renders one SD-vs-SF series as "SF sd" rows under a caption.
void PrintSdSeries(const std::string& caption,
                   const std::vector<core::SampleStudyPoint>& points);

// Renders a significance table row like the paper's Table 1/2.
void PrintSignificanceTable(const std::vector<core::SampleStudyPoint>& points,
                            const std::vector<double>& significances);

// Figures 7-9: SD-vs-SF curves for lits-models at three minimum-support
// levels (0.01 / 0.008 / 0.006) on a dataset of the given size.
void RunLitsSdVsSfFigure(const std::string& figure_id, int64_t default_small,
                         int64_t paper_full);

// Figures 10-12: SD-vs-SF curves for dt-models, one series per
// classification function F1..F4, on a dataset of the given size.
void RunDtSdVsSfFigure(const std::string& figure_id, int64_t default_small,
                       int64_t paper_full);

}  // namespace focus::bench

#endif  // FOCUS_BENCH_BENCH_COMMON_H_
