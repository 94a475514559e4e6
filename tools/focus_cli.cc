// focus_cli — command-line front end to the FOCUS library.
//
// Workflows mirror the paper's deployment story: generate or import data,
// mine/persist models, measure deviations (with the fast delta* bound),
// and qualify them statistically.
//
//   focus_cli gen-quest  --out D.txns [--transactions N] [--items I]
//                        [--patterns P] [--patlen L] [--txnlen T]
//                        [--seed S] [--pattern-seed S2]
//   focus_cli gen-class  --out D.data [--rows N] [--function 1..7]
//                        [--noise p] [--seed S]
//   focus_cli mine       --db D.txns --out M.model [--minsup s] [--maxk k]
//   focus_cli train      --data D.data --out T.tree [--max-depth d]
//                        [--min-leaf n] [--criterion gini|entropy]
//                        [--builder recursive|presorted]
//   focus_cli deviate    --db1 A.txns --db2 B.txns [--minsup s]
//                        [--f fa|fs] [--g sum|max] [--replicates R]
//   focus_cli deviate-dt --data1 A.data --data2 B.data [--max-depth d]
//                        [--f fa|fs] [--g sum|max] [--replicates R]
//   focus_cli bound      --model1 A.model --model2 B.model [--g sum|max]
//   focus_cli rank       --db1 A.txns --db2 B.txns [--minsup s] [--top n]
//
// Exit status: 0 on success, 1 on usage errors, 2 on I/O failures.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/flags.h"
#include "focus/focus.h"
#include "io/data_io.h"

namespace focus::cli {
namespace {

// Shared hardened parser (also used by focus_served): unknown flags and
// flags missing their value are hard errors, not silently ignored.
using common::Flags;

core::DeviationFunction ParseDeviationFunction(const Flags& flags) {
  core::DeviationFunction fn;
  const std::string f = flags.Get("f", "fa");
  fn.f = (f == "fs") ? core::ScaledDiff() : core::AbsoluteDiff();
  const std::string g = flags.Get("g", "sum");
  fn.g = (g == "max") ? core::AggregateKind::kMax : core::AggregateKind::kSum;
  return fn;
}

int GenQuest(const Flags& flags) {
  datagen::QuestParams params;
  params.num_transactions = flags.GetInt("transactions", 10000);
  params.num_items = static_cast<int32_t>(flags.GetInt("items", 1000));
  params.num_patterns = static_cast<int32_t>(flags.GetInt("patterns", 4000));
  params.avg_pattern_length = flags.GetDouble("patlen", 4);
  params.avg_transaction_length = flags.GetDouble("txnlen", 20);
  params.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  params.pattern_seed = static_cast<uint64_t>(flags.GetInt("pattern-seed", 0));
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "gen-quest requires --out\n");
    return 1;
  }
  const data::TransactionDb db = datagen::GenerateQuest(params);
  if (!io::SaveTransactionDbToFile(db, out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 2;
  }
  std::printf("wrote %s: %lld transactions (%s)\n", out.c_str(),
              static_cast<long long>(db.num_transactions()),
              params.Name().c_str());
  return 0;
}

int GenClass(const Flags& flags) {
  datagen::ClassGenParams params;
  params.num_rows = flags.GetInt("rows", 10000);
  const int64_t function = flags.GetInt("function", 1);
  if (function < 1 || function > 7) {
    std::fprintf(stderr, "--function must be 1..7\n");
    return 1;
  }
  params.function = static_cast<datagen::ClassFunction>(function);
  params.label_noise = flags.GetDouble("noise", 0.0);
  params.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "gen-class requires --out\n");
    return 1;
  }
  const data::Dataset dataset = datagen::GenerateClassification(params);
  if (!io::SaveDatasetToFile(dataset, out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 2;
  }
  std::printf("wrote %s: %lld rows (%s)\n", out.c_str(),
              static_cast<long long>(dataset.num_rows()),
              params.Name().c_str());
  return 0;
}

int Mine(const Flags& flags) {
  const auto db = io::LoadTransactionDbFromFile(flags.Get("db", ""));
  if (!db.has_value()) {
    std::fprintf(stderr, "cannot read --db\n");
    return 2;
  }
  lits::AprioriOptions options;
  options.min_support = flags.GetDouble("minsup", 0.01);
  options.max_itemset_size = static_cast<int>(flags.GetInt("maxk", 0));
  const std::string miner = flags.Get("miner", "apriori");
  if (miner != "apriori" && miner != "fpgrowth") {
    std::fprintf(stderr, "--miner must be apriori or fpgrowth\n");
    return 1;
  }
  const lits::LitsModel model = miner == "fpgrowth"
                                    ? lits::FpGrowth(*db, options)
                                    : lits::Apriori(*db, options);
  const std::string out = flags.Get("out", "");
  if (out.empty() || !io::SaveLitsModelToFile(model, out)) {
    std::fprintf(stderr, "cannot write --out\n");
    return 2;
  }
  std::printf("mined %lld frequent itemsets at minsup %.4f -> %s\n",
              static_cast<long long>(model.size()), options.min_support,
              out.c_str());
  return 0;
}

int Train(const Flags& flags) {
  const std::string criterion = flags.Get("criterion", "gini");
  if (criterion != "gini" && criterion != "entropy") {
    std::fprintf(stderr, "--criterion must be gini or entropy\n");
    return 1;
  }
  const std::string builder = flags.Get("builder", "recursive");
  if (builder != "recursive" && builder != "presorted") {
    std::fprintf(stderr, "--builder must be recursive or presorted\n");
    return 1;
  }
  const auto dataset = io::LoadDatasetFromFile(flags.Get("data", ""));
  if (!dataset.has_value()) {
    std::fprintf(stderr, "cannot read --data\n");
    return 2;
  }
  dt::CartOptions options;
  options.max_depth = static_cast<int>(flags.GetInt("max-depth", 8));
  options.min_leaf_size = flags.GetInt("min-leaf", 50);
  if (criterion == "entropy") options.criterion = dt::SplitCriterion::kEntropy;
  const dt::DecisionTree tree = builder == "presorted"
                                    ? dt::BuildCartPresorted(*dataset, options)
                                    : dt::BuildCart(*dataset, options);
  const std::string out = flags.Get("out", "");
  if (out.empty() || !io::SaveDecisionTreeToFile(tree, out)) {
    std::fprintf(stderr, "cannot write --out\n");
    return 2;
  }
  std::printf("trained tree: %d leaves, depth %d, training ME %.4f -> %s\n",
              tree.num_leaves(), tree.Depth(),
              core::MisclassificationError(tree, *dataset), out.c_str());
  return 0;
}

int Deviate(const Flags& flags) {
  const auto d1 = io::LoadTransactionDbFromFile(flags.Get("db1", ""));
  const auto d2 = io::LoadTransactionDbFromFile(flags.Get("db2", ""));
  if (!d1.has_value() || !d2.has_value()) {
    std::fprintf(stderr, "cannot read --db1/--db2\n");
    return 2;
  }
  lits::AprioriOptions apriori;
  apriori.min_support = flags.GetDouble("minsup", 0.01);
  const core::DeviationFunction fn = ParseDeviationFunction(flags);

  const lits::LitsModel m1 = lits::Apriori(*d1, apriori);
  const lits::LitsModel m2 = lits::Apriori(*d2, apriori);
  std::printf("delta  = %.6f\n", core::LitsDeviation(m1, *d1, m2, *d2, fn));
  std::printf("delta* = %.6f\n", core::LitsUpperBound(m1, m2, fn.g));

  const int replicates = static_cast<int>(flags.GetInt("replicates", 0));
  if (replicates > 0) {
    core::SignificanceOptions options;
    options.num_replicates = replicates;
    const auto result =
        core::LitsDeviationSignificance(*d1, *d2, apriori, fn, options);
    std::printf("sig(delta) = %.1f%% over %d bootstrap replicates\n",
                result.significance_percent, replicates);
  }
  return 0;
}

int DeviateDt(const Flags& flags) {
  const auto d1 = io::LoadDatasetFromFile(flags.Get("data1", ""));
  const auto d2 = io::LoadDatasetFromFile(flags.Get("data2", ""));
  if (!d1.has_value() || !d2.has_value()) {
    std::fprintf(stderr, "cannot read --data1/--data2\n");
    return 2;
  }
  dt::CartOptions cart;
  cart.max_depth = static_cast<int>(flags.GetInt("max-depth", 8));
  cart.min_leaf_size = flags.GetInt("min-leaf", 50);
  const core::DeviationFunction fn = ParseDeviationFunction(flags);

  const core::DtModel m1(dt::BuildCart(*d1, cart), *d1);
  const core::DtModel m2(dt::BuildCart(*d2, cart), *d2);
  core::DtDeviationOptions options;
  options.fn = fn;
  std::printf("delta = %.6f\n", core::DtDeviation(m1, *d1, m2, *d2, options));
  std::printf("ME(tree(D1), D2) = %.4f\n",
              core::MisclassificationError(m1.tree(), *d2));

  const int replicates = static_cast<int>(flags.GetInt("replicates", 0));
  if (replicates > 0) {
    core::SignificanceOptions sig_options;
    sig_options.num_replicates = replicates;
    const auto result =
        core::DtDeviationSignificance(*d1, *d2, cart, fn, sig_options);
    std::printf("sig(delta) = %.1f%% over %d bootstrap replicates\n",
                result.significance_percent, replicates);
  }
  return 0;
}

int Bound(const Flags& flags) {
  const auto m1 = io::LoadLitsModelFromFile(flags.Get("model1", ""));
  const auto m2 = io::LoadLitsModelFromFile(flags.Get("model2", ""));
  if (!m1.has_value() || !m2.has_value()) {
    std::fprintf(stderr, "cannot read --model1/--model2\n");
    return 2;
  }
  const core::AggregateKind g = flags.Get("g", "sum") == "max"
                                    ? core::AggregateKind::kMax
                                    : core::AggregateKind::kSum;
  std::printf("delta* = %.6f\n", core::LitsUpperBound(*m1, *m2, g));
  return 0;
}

int Rank(const Flags& flags) {
  const auto d1 = io::LoadTransactionDbFromFile(flags.Get("db1", ""));
  const auto d2 = io::LoadTransactionDbFromFile(flags.Get("db2", ""));
  if (!d1.has_value() || !d2.has_value()) {
    std::fprintf(stderr, "cannot read --db1/--db2\n");
    return 2;
  }
  lits::AprioriOptions apriori;
  apriori.min_support = flags.GetDouble("minsup", 0.01);
  const lits::LitsModel m1 = lits::Apriori(*d1, apriori);
  const lits::LitsModel m2 = lits::Apriori(*d2, apriori);
  const auto ranked = core::RankLitsRegions(core::LitsGcr(m1, m2), m1, *d1,
                                            m2, *d2, core::AbsoluteDiff());
  const size_t top = static_cast<size_t>(flags.GetInt("top", 10));
  for (const auto& entry : core::SelectTopN(ranked, top)) {
    std::printf("%-24s %.4f -> %.4f  |diff| %.4f\n",
                entry.itemset.ToString().c_str(), entry.support1,
                entry.support2, entry.deviation);
  }
  return 0;
}

// focus_cli embed --models a.model,b.model,... [--dims 2]
// FastMap embedding of a model collection over the delta* metric
// (§4.1.1's visual-comparison use).
int Embed(const Flags& flags) {
  const std::string list = flags.Get("models", "");
  if (list.empty()) {
    std::fprintf(stderr, "embed requires --models a.model,b.model,...\n");
    return 1;
  }
  std::vector<std::string> paths;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = list.find(',', start);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) paths.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (paths.size() < 2) {
    std::fprintf(stderr, "embed needs at least two models\n");
    return 1;
  }
  std::vector<lits::LitsModel> models;
  for (const std::string& path : paths) {
    auto model = io::LoadLitsModelFromFile(path);
    if (!model.has_value()) {
      std::fprintf(stderr, "cannot read model %s\n", path.c_str());
      return 2;
    }
    models.push_back(std::move(*model));
  }
  const int dims = static_cast<int>(flags.GetInt("dims", 2));
  const auto matrix = core::LitsUpperBoundMatrix(models, core::AggregateKind::kSum);
  const core::FastMapResult embedded = core::FastMapEmbedding(matrix, dims);
  for (size_t i = 0; i < paths.size(); ++i) {
    std::printf("%s", paths[i].c_str());
    for (double c : embedded.coordinates[i]) std::printf(" %.6f", c);
    std::printf("\n");
  }
  return 0;
}

// focus_cli monitor --reference D.txns --snapshots a.txns,b.txns,...
//                   [--minsup s] [--factor 2.0] [--replicates 9]
// Two-stage snapshot monitoring (delta* screen, then exact deviation +
// significance) over a list of snapshot files.
int MonitorCmd(const Flags& flags) {
  const auto reference =
      io::LoadTransactionDbFromFile(flags.Get("reference", ""));
  if (!reference.has_value()) {
    std::fprintf(stderr, "cannot read --reference\n");
    return 2;
  }
  const std::string list = flags.Get("snapshots", "");
  std::vector<std::string> paths;
  size_t start = 0;
  while (start <= list.size() && !list.empty()) {
    const size_t comma = list.find(',', start);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) paths.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (paths.empty()) {
    std::fprintf(stderr, "monitor requires --snapshots a.txns,b.txns,...\n");
    return 1;
  }
  core::MonitorOptions options;
  options.apriori.min_support = flags.GetDouble("minsup", 0.01);
  options.alert_factor = flags.GetDouble("factor", 2.0);
  options.significance.num_replicates =
      static_cast<int>(flags.GetInt("replicates", 9));
  const core::LitsChangeMonitor monitor(*reference, options);
  std::printf("alert threshold (delta*): %.4f\n", monitor.alert_threshold());
  std::printf("%-24s %10s %8s %10s %6s %s\n", "snapshot", "delta*", "screen",
              "delta", "sig%", "verdict");
  for (const std::string& path : paths) {
    const auto snapshot = io::LoadTransactionDbFromFile(path);
    if (!snapshot.has_value()) {
      std::fprintf(stderr, "cannot read snapshot %s\n", path.c_str());
      return 2;
    }
    const core::MonitorReport report = monitor.Inspect(*snapshot);
    if (report.screened_out) {
      std::printf("%-24s %10.4f %8s %10s %6s %s\n", path.c_str(),
                  report.upper_bound, "skip", "-", "-", "quiet");
    } else {
      std::printf("%-24s %10.4f %8s %10.4f %6.0f %s\n", path.c_str(),
                  report.upper_bound, "test", report.deviation,
                  report.significance_percent,
                  report.alert ? "ALERT" : "within noise");
    }
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: focus_cli <gen-quest|gen-class|mine|train|deviate|"
               "deviate-dt|bound|rank|embed|monitor> [--flag value ...]\n"
               "see the header of tools/focus_cli.cc for full flag lists\n");
  return 1;
}

struct Command {
  const char* name;
  std::vector<std::string> allowed_flags;
  int (*run)(const Flags&);
};

const std::vector<Command>& Commands() {
  static const std::vector<Command> commands = {
      {"gen-quest",
       {"out", "transactions", "items", "patterns", "patlen", "txnlen", "seed",
        "pattern-seed"},
       GenQuest},
      {"gen-class", {"out", "rows", "function", "noise", "seed"}, GenClass},
      {"mine", {"db", "out", "minsup", "maxk", "miner"}, Mine},
      {"train",
       {"data", "out", "max-depth", "min-leaf", "criterion", "builder"},
       Train},
      {"deviate", {"db1", "db2", "minsup", "f", "g", "replicates"}, Deviate},
      {"deviate-dt",
       {"data1", "data2", "max-depth", "min-leaf", "f", "g", "replicates"},
       DeviateDt},
      {"bound", {"model1", "model2", "g"}, Bound},
      {"rank", {"db1", "db2", "minsup", "top"}, Rank},
      {"embed", {"models", "dims"}, Embed},
      {"monitor",
       {"reference", "snapshots", "minsup", "factor", "replicates"},
       MonitorCmd},
  };
  return commands;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  for (const Command& candidate : Commands()) {
    if (command != candidate.name) continue;
    const auto flags =
        Flags::Parse(argc, argv, 2, candidate.allowed_flags);
    if (!flags.has_value()) return 1;
    return candidate.run(*flags);
  }
  return Usage();
}

}  // namespace
}  // namespace focus::cli

int main(int argc, char** argv) { return focus::cli::Main(argc, argv); }
