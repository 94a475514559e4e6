// End-to-end tests for tools/focus_analyze: every checker is proven live
// by fixtures that trip it at pinned file:line positions, the sanctioned
// patterns / allow() escapes / path exemptions are proven inert, and the
// repo itself must scan clean (this is the gate that keeps `ctest -L
// analyze` equivalent to CI's static-analysis job).
//
// Binary paths and the fixture root are injected at compile time
// (FOCUS_ANALYZE_PATH / FOCUS_ANALYZE_FIXTURES / FOCUS_ANALYZE_REPO_ROOT,
// see tests/CMakeLists.txt) so the test works from any build directory.

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"

namespace focus::analyze {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult RunAnalyze(const std::string& args) {
  RunResult result;
  const std::string command =
      std::string(FOCUS_ANALYZE_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  size_t got = 0;
  while ((got = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, got);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

using Finding = std::tuple<std::string, int, std::string>;  // file, line, checker

// Parses "file:line: [checker] message" diagnostics, ignoring the
// trailing summary line and anything that does not match the shape.
std::vector<Finding> ParseFindings(const std::string& output) {
  std::vector<Finding> findings;
  size_t start = 0;
  while (start < output.size()) {
    size_t end = output.find('\n', start);
    if (end == std::string::npos) end = output.size();
    const std::string line = output.substr(start, end - start);
    start = end + 1;
    const size_t open = line.find(": [");
    const size_t close = line.find(']', open == std::string::npos ? 0 : open);
    if (open == std::string::npos || close == std::string::npos) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos || colon >= open) continue;
    findings.emplace_back(
        line.substr(0, colon),
        std::atoi(line.c_str() + colon + 1),
        line.substr(open + 3, close - open - 3));
  }
  return findings;
}

const char* const kAllCheckers[] = {
    "raw-mutex",
    "naked-mt19937",
    "std-function-in-hot-loop",
    "unchecked-strtol",
    "nondet-iteration",
    "untrusted-length-alloc",
    "unchecked-status",
    "locked-suffix",
};

TEST(FocusAnalyzeTest, ListCheckersNamesEveryChecker) {
  const RunResult result = RunAnalyze("--list-checkers");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  for (const char* checker : kAllCheckers) {
    EXPECT_NE(result.output.find(checker), std::string::npos)
        << "missing checker " << checker << " in:\n"
        << result.output;
  }
}

TEST(FocusAnalyzeTest, UnknownFlagIsUsageError) {
  const RunResult result = RunAnalyze("--no-such-flag");
  EXPECT_EQ(result.exit_code, 2) << result.output;
}

// The heart of the corpus: every *_bad.cc fixture trips its checker at
// exactly the pinned line, and nothing else fires — which also proves
// every *_ok.cc / *_allowed.cc fixture is clean.
TEST(FocusAnalyzeTest, FixturesTriggerExactPinnedDiagnostics) {
  const RunResult result =
      RunAnalyze(std::string("--root ") + FOCUS_ANALYZE_FIXTURES);
  EXPECT_EQ(result.exit_code, 1) << result.output;

  std::vector<Finding> expected = {
      // raw-mutex: 3 shapes, outside src/common/.
      {"src/serve/raw_mutex_bad.cc", 8, "raw-mutex"},
      {"src/net/raw_mutex_condvar_bad.cc", 8, "raw-mutex"},
      {"src/core/raw_mutex_shared_bad.cc", 8, "raw-mutex"},
      // naked-mt19937: named, braced, and temporary construction.
      {"src/core/naked_mt19937_bad.cc", 7, "naked-mt19937"},
      {"src/serve/naked_mt19937_64_bad.cc", 7, "naked-mt19937"},
      {"src/io/naked_mt19937_temp_bad.cc", 9, "naked-mt19937"},
      // std-function-in-hot-loop: for / while / range-for bodies.
      {"src/core/hot_loop_for_bad.cc", 10, "std-function-in-hot-loop"},
      {"src/itemsets/hot_loop_while_bad.cc", 11, "std-function-in-hot-loop"},
      {"src/tree/hot_loop_rangefor_bad.cc", 10, "std-function-in-hot-loop"},
      // unchecked-strtol: atoi, strtol(nullptr), std::strtod(NULL).
      {"src/io/atoi_bad.cc", 6, "unchecked-strtol"},
      {"src/io/strtol_null_bad.cc", 6, "unchecked-strtol"},
      {"src/io/strtod_null_bad.cc", 6, "unchecked-strtol"},
      // nondet-iteration: FP fold, unsorted append, serialization.
      {"src/core/nondet_fp_accum_bad.cc", 9, "nondet-iteration"},
      {"src/serve/nondet_append_bad.cc", 12, "nondet-iteration"},
      {"src/io/nondet_serialize_bad.cc", 15, "nondet-iteration"},
      // untrusted-length-alloc: resize, new[], reserve sinks.
      {"src/io/untrusted_resize_bad.cc", 15, "untrusted-length-alloc"},
      {"src/net/untrusted_new_bad.cc", 14, "untrusted-length-alloc"},
      {"src/shard/untrusted_reserve_bad.cc", 11, "untrusted-length-alloc"},
      // unchecked-status: free function, socket helper, member call.
      {"src/io/unchecked_save_bad.cc", 10, "unchecked-status"},
      {"src/net/unchecked_socket_bad.cc", 8, "unchecked-status"},
      {"src/shard/unchecked_open_bad.cc", 13, "unchecked-status"},
      // locked-suffix: plain, member-chain, and evidence-after-call
      // (only the first DropLocked in locked_suffix_order_bad fires).
      {"src/serve/locked_suffix_bad.cc", 13, "locked-suffix"},
      {"src/core/locked_suffix_chain_bad.cc", 18, "locked-suffix"},
      {"src/net/locked_suffix_order_bad.cc", 17, "locked-suffix"},
  };
  std::vector<Finding> actual = ParseFindings(result.output);
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual, expected) << "fixture diagnostics moved:\n"
                              << result.output;

  // Belt and braces: the clean fixtures never appear even in passing.
  for (const char* clean :
       {"raw_mutex_allowed.cc", "raw_mutex_ok.cc", "make_rng_ok.cc",
        "naked_mt19937_ok.cc", "hot_loop_outside_ok.cc",
        "hot_loop_scope_ok.cc", "checked_strtol_ok.cc", "strtol_allowed.cc",
        "nondet_sorted_ok.cc", "nondet_allowed.cc", "untrusted_checked_ok.cc",
        "untrusted_clamped_ok.cc", "checked_save_ok.cc",
        "unchecked_void_ok.cc", "locked_suffix_ok.cc",
        "locked_suffix_helper_ok.cc"}) {
    EXPECT_EQ(result.output.find(clean), std::string::npos)
        << clean << " should be clean:\n"
        << result.output;
  }
}

// The repo-wide gate: the tree this test was built from analyzes clean.
// A failure here means an invariant-breaking pattern landed in src/,
// tools/, tests/, bench/, fuzz/, or examples/ — fix the call site or
// justify an inline `// focus-analyze: allow(<checker>)`.
TEST(FocusAnalyzeTest, RepositoryScansClean) {
  const RunResult result =
      RunAnalyze(std::string("--root ") + FOCUS_ANALYZE_REPO_ROOT);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_TRUE(ParseFindings(result.output).empty()) << result.output;
}

}  // namespace
}  // namespace focus::analyze
