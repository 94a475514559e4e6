#ifndef FOCUS_ANALYZE_DRIVER_H_
#define FOCUS_ANALYZE_DRIVER_H_

#include <string>
#include <vector>

#include "analyze/checker.h"

namespace focus::analyze {

// Stage 7: the driver. Two passes over the file set: pass 1 builds every
// FileModel and the GlobalIndex (so `m.supports()` resolves to an
// unordered container even when LitsModel is declared in another file);
// pass 2 runs every in-scope checker. Diagnostics come back sorted by
// (file, line, checker).

struct AnalyzeResult {
  std::vector<Diagnostic> diagnostics;
  size_t files_scanned = 0;
  bool io_error = false;
};

// Builds a FileModel from in-memory text (exposed for unit tests).
FileModel BuildFileModel(const std::string& rel_path,
                         const std::string& text);

// Analyzes a set of (rel_path, text) files — the pure core of the tool.
AnalyzeResult AnalyzeFiles(
    const std::vector<std::pair<std::string, std::string>>& files);

// Command-line entry point of tools/focus_analyze:
//   <tool> [--root DIR] [--list-checkers] [paths...]
// With no paths scans src/ tools/ tests/ bench/ fuzz/ examples/ under
// --root, skipping build trees, fuzz corpora, and the analyzer's own
// fixture directories. Exit status: 0 clean, 1 findings, 2 usage/IO.
int AnalyzerMain(int argc, char** argv, const char* tool_name);

}  // namespace focus::analyze

#endif  // FOCUS_ANALYZE_DRIVER_H_
