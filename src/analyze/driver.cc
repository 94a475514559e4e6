#include "analyze/driver.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

namespace focus::analyze {
namespace {

namespace fs = std::filesystem;

// File/class-scope declarations: every token span outside function
// bodies (members, globals, method declarations with return types).
SymbolTable CollectScopeSymbols(const std::vector<Token>& tokens,
                                const std::vector<Function>& functions) {
  SymbolTable out;
  size_t cursor = 0;
  for (const Function& fn : functions) {
    if (fn.body_begin > cursor) {
      CollectDeclsLinear(tokens, cursor, fn.body_begin, &out);
    }
    cursor = std::max(cursor, fn.body_end);
  }
  if (cursor < tokens.size()) {
    CollectDeclsLinear(tokens, cursor, tokens.size(), &out);
  }
  return out;
}

// x.cc -> x.h (then x.hpp) in the same directory.
std::string PairedHeaderPath(const std::string& rel_path) {
  const size_t dot = rel_path.rfind('.');
  if (dot == std::string::npos) return "";
  const std::string ext = rel_path.substr(dot);
  if (ext != ".cc" && ext != ".cpp") return "";
  return rel_path.substr(0, dot);  // caller appends .h / .hpp
}

bool AnalyzableExtension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
}

bool SkippedDirectory(const std::string& name) {
  return name == "analyze_fixtures" || name == "corpus" || name == ".git" ||
         name == "third_party" || name.rfind("build", 0) == 0;
}

void CollectFiles(const fs::path& path, std::vector<fs::path>* files) {
  std::error_code ec;
  if (fs::is_regular_file(path, ec)) {
    if (AnalyzableExtension(path)) files->push_back(path);
    return;
  }
  if (!fs::is_directory(path, ec)) return;
  for (fs::directory_iterator it(path, ec), end; it != end && !ec;
       it.increment(ec)) {
    const fs::path& entry = it->path();
    if (fs::is_directory(entry, ec)) {
      if (!SkippedDirectory(entry.filename().string())) {
        CollectFiles(entry, files);
      }
    } else if (AnalyzableExtension(entry)) {
      files->push_back(entry);
    }
  }
}

std::string RelativeTo(const fs::path& path, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(path, root, ec);
  if (ec || rel.empty()) rel = path;
  return rel.generic_string();
}

}  // namespace

FileModel BuildFileModel(const std::string& rel_path,
                         const std::string& text) {
  FileModel model;
  model.rel_path = rel_path;
  model.display_path = rel_path;
  model.stripped = Strip(text);
  model.tokens = Lex(model.stripped);
  model.functions = ParseFunctions(model.tokens);
  model.scope = CollectScopeSymbols(model.tokens, model.functions);
  model.allowed = AllowedCheckers(model.stripped);
  return model;
}

AnalyzeResult AnalyzeFiles(
    const std::vector<std::pair<std::string, std::string>>& files) {
  AnalyzeResult result;
  result.files_scanned = files.size();

  // Pass 1: models + global index.
  std::vector<FileModel> models;
  models.reserve(files.size());
  for (const auto& [rel_path, text] : files) {
    models.push_back(BuildFileModel(rel_path, text));
  }
  GlobalIndex index;
  std::map<std::string, const FileModel*> by_path;
  for (const FileModel& model : models) {
    by_path[model.rel_path] = &model;
    for (const auto& [name, decl] : model.scope.functions) {
      if (decl.type.find("unordered_") != std::string::npos) {
        index.unordered_methods.insert(Unqualified(name));
      }
      if (decl.type.find("void") != std::string::npos &&
          decl.type.find("*") == std::string::npos) {
        index.void_functions.insert(Unqualified(name));
      }
    }
  }

  // Pass 2: checkers.
  for (const FileModel& model : models) {
    const FileModel* paired = nullptr;
    const std::string stem = PairedHeaderPath(model.rel_path);
    if (!stem.empty()) {
      auto it = by_path.find(stem + ".h");
      if (it == by_path.end()) it = by_path.find(stem + ".hpp");
      if (it != by_path.end()) paired = it->second;
    }
    CheckContext ctx(model, paired, index, &result.diagnostics);
    for (const Checker& checker : Registry()) {
      if (!checker.in_scope(model.rel_path)) continue;
      checker.check(ctx);
    }
  }

  std::sort(result.diagnostics.begin(), result.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.checker) <
                     std::tie(b.file, b.line, b.checker);
            });
  return result;
}

int AnalyzerMain(int argc, char** argv, const char* tool_name) {
  fs::path root = ".";
  std::vector<fs::path> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --root needs a directory\n", tool_name);
        return 2;
      }
      root = argv[++i];
    } else if (arg == "--list-checkers") {
      for (const Checker& checker : Registry()) {
        std::printf("%-26s %s\n", checker.name.c_str(),
                    checker.scope.c_str());
      }
      return 0;
    } else if (arg == "--help") {
      std::printf(
          "usage: %s [--root DIR] [--list-checkers] [paths...]\n",
          tool_name);
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "%s: unknown flag %s\n", tool_name, arg.c_str());
      return 2;
    } else {
      inputs.push_back(arg);
    }
  }
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    std::fprintf(stderr, "%s: --root %s is not a directory\n", tool_name,
                 root.string().c_str());
    return 2;
  }
  if (inputs.empty()) {
    for (const char* dir :
         {"src", "tools", "tests", "bench", "fuzz", "examples"}) {
      const fs::path path = root / dir;
      if (fs::exists(path, ec)) inputs.push_back(path);
    }
  }
  std::vector<fs::path> paths;
  for (const fs::path& input : inputs) CollectFiles(input, &paths);
  std::sort(paths.begin(), paths.end());

  std::vector<std::pair<std::string, std::string>> files;
  files.reserve(paths.size());
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "%s: cannot read %s\n", tool_name,
                   path.string().c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    files.emplace_back(RelativeTo(path, root), buffer.str());
  }

  const AnalyzeResult result = AnalyzeFiles(files);
  for (const Diagnostic& diag : result.diagnostics) {
    std::printf("%s:%d: [%s] %s\n", diag.file.c_str(), diag.line,
                diag.checker.c_str(), diag.message.c_str());
  }
  if (!result.diagnostics.empty()) {
    std::printf("%s: %zu finding(s) in %zu file(s) scanned\n", tool_name,
                result.diagnostics.size(), result.files_scanned);
    return 1;
  }
  return 0;
}

}  // namespace focus::analyze
