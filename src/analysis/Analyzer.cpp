//===--- Analyzer.cpp - chameleon-checker driver --------------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"

#include "analysis/Extractor.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace fs = std::filesystem;

namespace chameleon::analysis {

namespace {

bool isSourceFile(const fs::path &P) {
  std::string Ext = P.extension().string();
  return Ext == ".cpp" || Ext == ".h";
}

/// Directory recursion skips fixture trees: tools/testdata holds *seeded*
/// checker violations that must not count against the real tree. Passing
/// such a file explicitly still analyzes it.
bool isFixturePath(const fs::path &P) {
  for (const fs::path &Part : P)
    if (Part == "testdata")
      return true;
  return false;
}

/// Expands files and directories into the sorted, de-duplicated file list.
std::vector<std::string> collectFiles(const std::vector<std::string> &Inputs,
                                      std::vector<Diagnostic> &IoDiags) {
  std::vector<std::string> Files;
  for (const std::string &In : Inputs) {
    std::error_code EC;
    if (fs::is_directory(In, EC)) {
      for (fs::recursive_directory_iterator It(In, EC), End; It != End;
           It.increment(EC)) {
        if (EC)
          break;
        if (It->is_regular_file(EC) && isSourceFile(It->path()) &&
            !isFixturePath(It->path()))
          Files.push_back(It->path().generic_string());
      }
    } else if (fs::is_regular_file(In, EC)) {
      Files.push_back(fs::path(In).generic_string());
    } else {
      IoDiags.push_back({In, 0, 0, Severity::Error, "check-io",
                         "no such file or directory", In});
    }
  }
  std::sort(Files.begin(), Files.end());
  Files.erase(std::unique(Files.begin(), Files.end()), Files.end());
  return Files;
}

std::string stripPrefix(std::string Path, const std::string &Prefix) {
  if (Prefix.empty())
    return Path;
  std::string P = Prefix;
  if (!P.empty() && P.back() != '/')
    P += '/';
  if (Path.rfind(P, 0) == 0)
    return Path.substr(P.size());
  return Path;
}

/// True when a `cham-checker-ok(D.ID)` comment sits on D's line or the
/// line above it.
bool isSuppressed(const Diagnostic &D, const std::vector<Suppression> &Sups) {
  for (const Suppression &S : Sups)
    if (S.ID == D.ID && (S.Line == D.Line || S.Line + 1 == D.Line))
      return true;
  return false;
}

} // namespace

std::vector<Diagnostic> analyzeModel(TreeModel &Model) {
  FunctionIndex Index(Model);
  std::vector<Diagnostic> Raw;
  runAllChecks(Model, Index, Raw);
  std::vector<Diagnostic> Kept;
  for (Diagnostic &D : Raw) {
    const std::vector<Suppression> *Sups = nullptr;
    for (const FileModel &FM : Model.Files)
      if (FM.File == D.File) {
        Sups = &FM.Suppressions;
        break;
      }
    if (Sups && isSuppressed(D, *Sups))
      continue;
    Kept.push_back(std::move(D));
  }
  return Kept;
}

AnalysisResult analyze(const AnalyzerOptions &Opts) {
  AnalysisResult R;
  std::vector<Diagnostic> Raw;
  std::vector<std::string> Files = collectFiles(Opts.Inputs, Raw);

  for (const std::string &F : Files) {
    std::ifstream In(F, std::ios::binary);
    if (!In) {
      Raw.push_back({stripPrefix(F, Opts.RelativeTo), 0, 0,
                     Severity::Error, "check-io", "cannot read file",
                     F});
      continue;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    FileModel FM = extractFile(stripPrefix(F, Opts.RelativeTo), Buf.str());
    R.TokensLexed += FM.Tokens;
    R.Model.Files.push_back(std::move(FM));
    ++R.FilesAnalyzed;
  }

  std::vector<Diagnostic> Checked = analyzeModel(R.Model);
  Raw.insert(Raw.end(), std::make_move_iterator(Checked.begin()),
             std::make_move_iterator(Checked.end()));

  for (Diagnostic &D : Raw) {
    if (Opts.Base.contains(D))
      R.Baselined.push_back(std::move(D));
    else
      R.Diags.push_back(std::move(D));
  }
  sortDiagnostics(R.Diags);
  sortDiagnostics(R.Baselined);
  R.StaleBaselineKeys = staleBaselineKeys(Opts.Base, R.Baselined);
  return R;
}

} // namespace chameleon::analysis
