#ifndef FOCUS_PERFBENCH_INPUTS_H_
#define FOCUS_PERFBENCH_INPUTS_H_

// Inputs shared by the batch and out-of-core workloads, derived from the
// run seed alone: the same seed gives the same datasets in both, which is
// what lets ooc_compare check its deviation against the in-memory one.

#include <cstdint>

#include "datagen/class_gen.h"
#include "datagen/quest_gen.h"
#include "itemsets/apriori.h"
#include "workload.h"

namespace focus::perfbench {

// Transactions per dataset of the lits pair (paper family
// N.20L.1K.4000pats.4patlen).
inline constexpr int64_t kLitsTransactions = 10000;
// Rows per dataset of the dt pair (NM.F4: its tree keeps 22-24 leaves from
// sample to sample, where F2 swings between 11 and 23).
inline constexpr int64_t kDtRows = 30000;
// The significance pair is smaller: its replicates mine without an index.
inline constexpr int64_t kSignificanceTransactions = 500;
inline constexpr int kSignificanceReplicates = 2;

// The generating process (Quest pattern table) is fixed; the seed draws
// the samples. Per-seed pattern tables would change how many itemsets are
// frequent, and with it the cost of every op, by a quarter or more.
inline constexpr uint64_t kPatternSeed = 1;

// One dataset of the lits pair: an independent sample of the process.
inline datagen::QuestParams LitsParams(uint64_t seed, int which, int64_t n) {
  datagen::QuestParams params;
  params.num_transactions = n;
  params.avg_transaction_length = 20;
  params.num_items = 1000;
  params.num_patterns = 4000;
  params.avg_pattern_length = 4;
  params.pattern_seed = kPatternSeed;
  params.seed = DeriveSeed(seed, 10 + static_cast<uint64_t>(which));
  return params;
}

inline lits::AprioriOptions LitsMiningOptions() {
  lits::AprioriOptions options;
  options.min_support = 0.01;
  options.max_itemset_size = 3;
  return options;
}

}  // namespace focus::perfbench

#endif  // FOCUS_PERFBENCH_INPUTS_H_
