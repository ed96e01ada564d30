//===--- micro_checker.cpp - chameleon-checker analysis speed -*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How long chameleon-checker takes to analyze the whole tree (DESIGN.md
/// §13). The checker runs on every CI push and inside the tier-1 test
/// suite, so its cost has to stay trivial next to the compile: the budget
/// is 10 seconds for a full src + tools + bench pass, and in practice a
/// pass is well under one second. Reports files, tokens, extracted
/// functions, wall time per pass (best of N), and fails — exit 1 — if the
/// budget is exceeded, so a regression in the lexer or the fixpoint shows
/// up as a red bench run rather than as quietly slower CI everywhere.
///
/// `--json <path>` writes the perf-trajectory record; `--quick` drops to a
/// single pass for sanitizer CI.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "support/Format.h"

#include "Harness.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace chameleon;
using namespace chameleon::analysis;

namespace {

constexpr double BudgetSeconds = 10.0;

} // namespace

int main(int argc, char **argv) {
  bench::Harness H("micro_checker", argc, argv, {{"--quick"}});

  const std::string Root = CHAMELEON_SOURCE_ROOT;
  AnalyzerOptions Opts;
  Opts.Inputs = {Root + "/src", Root + "/tools", Root + "/bench"};
  Opts.RelativeTo = Root;
  // The committed baseline, same as the CI invocation, so the findings
  // line reports zero on a healthy tree.
  if (std::ifstream In{Root + "/tools/checker_baseline.txt"}) {
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Opts.Base = parseBaseline(Buf.str());
  }

  const int Passes = H.quick() ? 1 : 5;
  double BestSeconds = 0.0;
  AnalysisResult R;
  for (int P = 0; P < Passes; ++P) {
    bench::Clock::time_point Start = bench::Clock::now();
    R = analyze(Opts);
    double S = bench::secondsSince(Start);
    if (P == 0 || S < BestSeconds)
      BestSeconds = S;
  }

  size_t Functions = 0;
  for (const FileModel &F : R.Model.Files)
    Functions += F.Functions.size();

  auto Line = [&](const char *Label, const std::string &Value) {
    std::printf("  %-22s %s\n", Label, Value.c_str());
  };
  std::printf("chameleon-checker full-tree analysis (best of %d)\n\n",
              Passes);
  Line("files analyzed",
       H.metric("files_analyzed", static_cast<double>(R.FilesAnalyzed)));
  Line("tokens lexed",
       H.metric("tokens_lexed", static_cast<double>(R.TokensLexed)));
  Line("functions extracted",
       H.metric("functions_extracted", static_cast<double>(Functions)));
  Line("findings (unbaselined)",
       H.metric("findings_unbaselined", static_cast<double>(R.Diags.size())));
  Line("wall time", H.metric("wall_time_s", BestSeconds, {3, " s"}));
  Line("tokens / second",
       H.metric("tokens_per_sec", R.TokensLexed / BestSeconds));
  H.metric("budget_seconds", BudgetSeconds);
  std::printf("\nclaim to check: a full-tree pass stays under %.0f s, so "
              "the checker can\nrun on every CI push and inside tier-1 "
              "without moving the needle.\n",
              BudgetSeconds);

  if (int Status = H.finish())
    return Status;
  if (BestSeconds >= BudgetSeconds) {
    std::printf("FAIL: budget violated (%.3f s >= %.0f s)\n", BestSeconds,
                BudgetSeconds);
    return 1;
  }
  return 0;
}
