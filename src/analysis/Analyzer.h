//===--- Analyzer.h - chameleon-checker driver -----------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end driver behind tools/chameleon-checker: collects the
/// input files (directories recurse into *.cpp / *.h, sorted), extracts
/// a TreeModel, builds the FunctionIndex, runs every check, honours
/// in-source `cham-checker-ok(id)` waivers, and splits the remaining
/// findings against a baseline. Pure apart from reading the inputs; the
/// CLI owns exit codes, --Werror promotion, and output rendering.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_ANALYSIS_ANALYZER_H
#define CHAMELEON_ANALYSIS_ANALYZER_H

#include "analysis/Baseline.h"
#include "analysis/Checks.h"
#include "analysis/Model.h"
#include "support/Diagnostics.h"

#include <string>
#include <vector>

namespace chameleon::analysis {

struct AnalyzerOptions {
  /// Files or directories to analyze. Directories are walked recursively
  /// for `*.cpp` / `*.h`; the final file list is sorted and de-duplicated.
  std::vector<std::string> Inputs;
  /// When set, reported paths have this prefix (plus a trailing '/')
  /// stripped, so baseline keys are stable regardless of where the tree is
  /// checked out. Typically the repo root.
  std::string RelativeTo;
  /// Baseline to subtract from the findings; empty for none.
  Baseline Base;
};

struct AnalysisResult {
  TreeModel Model;
  /// Findings after suppression comments and the baseline, sorted.
  std::vector<Diagnostic> Diags;
  /// Findings waived by the baseline, sorted (for --list-baselined).
  std::vector<Diagnostic> Baselined;
  /// Baseline keys that matched nothing — stale entries to delete.
  std::vector<std::string> StaleBaselineKeys;
  /// Files that could not be read (reported as errors in Diags too).
  size_t FilesAnalyzed = 0;
  size_t TokensLexed = 0;
};

/// Runs the full analysis. Never throws; unreadable files produce
/// diagnostics with ID "check-io".
AnalysisResult analyze(const AnalyzerOptions &Opts);

/// Runs the checks over an already-extracted model, honouring in-source
/// `cham-checker-ok` waivers (no baseline, no sorting). Builds the
/// FunctionIndex as a side effect, so the model's computed may-safepoint /
/// may-allocate flags are filled in. Exposed for the fixture tests.
std::vector<Diagnostic> analyzeModel(TreeModel &Model);

} // namespace chameleon::analysis

#endif // CHAMELEON_ANALYSIS_ANALYZER_H
