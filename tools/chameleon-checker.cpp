//===--- chameleon-checker.cpp - GC-safety & lock-discipline checker ------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token-level static analyzer for the Chameleon tree itself: GC-safety
/// (CHAM_NO_SAFEPOINT reachability, raw heap references live across
/// may-safepoint calls), lock discipline (CHAM_LOCK_RANK ordering,
/// allocation under a SpinLock), and project lints (metric naming,
/// duplicate metric registrations, duplicate CHAM_FAULT tags). See
/// DESIGN.md §13 for the diagnostic catalogue and the frontend's limits.
///
///   chameleon-checker src/                       # analyze a tree
///   chameleon-checker --Werror --relative-to .   # the CI invocation
///       --baseline tools/checker_baseline.txt src tools bench
///   chameleon-checker --json src/                # machine-readable output
///   chameleon-checker --write-baseline FILE ...  # accept current findings
///
/// Exit status: 0 clean — warnings print but do not fail unless --Werror
/// promotes them (baselined findings never count); 1 errors; 2 usage
/// errors.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace chameleon;
using namespace chameleon::analysis;

namespace {

void printUsage(const char *Argv0) {
  std::printf(
      "usage: %s [options] <file-or-dir>...\n"
      "  --Werror              treat warnings as errors\n"
      "  --json                emit findings as a JSON array on stdout\n"
      "  --baseline FILE       drop findings recorded in FILE\n"
      "  --write-baseline FILE write current findings to FILE and exit 0\n"
      "  --relative-to DIR     report paths relative to DIR (stable keys)\n"
      "  --list-baselined      also print the findings the baseline waived\n"
      "  --stats               print files/functions/tokens analyzed\n"
      "  -h, --help            show this help\n",
      Argv0);
}

} // namespace

int main(int argc, char **argv) {
  bool WarningsAreErrors = false;
  bool Json = false;
  bool ListBaselined = false;
  bool Stats = false;
  std::string BaselinePath;
  std::string WriteBaselinePath;
  AnalyzerOptions Opts;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto needValue = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires a value\n", argv[0], Flag);
        std::exit(2);
      }
      return argv[++I];
    };
    if (Arg == "--Werror") {
      WarningsAreErrors = true;
    } else if (Arg == "--json") {
      Json = true;
    } else if (Arg == "--baseline") {
      BaselinePath = needValue("--baseline");
    } else if (Arg == "--write-baseline") {
      WriteBaselinePath = needValue("--write-baseline");
    } else if (Arg == "--relative-to") {
      Opts.RelativeTo = needValue("--relative-to");
    } else if (Arg == "--list-baselined") {
      ListBaselined = true;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--help" || Arg == "-h") {
      printUsage(argv[0]);
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], Arg.c_str());
      return 2;
    } else {
      Opts.Inputs.push_back(Arg);
    }
  }

  if (Opts.Inputs.empty()) {
    std::fprintf(stderr, "%s: no inputs (try a directory, e.g. src/)\n",
                 argv[0]);
    return 2;
  }

  if (!BaselinePath.empty()) {
    std::ifstream In(BaselinePath);
    if (!In) {
      std::fprintf(stderr, "%s: cannot read baseline '%s'\n", argv[0],
                   BaselinePath.c_str());
      return 2;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Opts.Base = parseBaseline(Buf.str());
  }

  AnalysisResult R = analyze(Opts);

  if (WarningsAreErrors)
    for (Diagnostic &D : R.Diags)
      if (D.Sev == Severity::Warning)
        D.Sev = Severity::Error;

  if (!WriteBaselinePath.empty()) {
    std::vector<Diagnostic> All = R.Diags;
    All.insert(All.end(), R.Baselined.begin(), R.Baselined.end());
    std::ofstream Out(WriteBaselinePath, std::ios::trunc);
    if (!Out) {
      std::fprintf(stderr, "%s: cannot write baseline '%s'\n", argv[0],
                   WriteBaselinePath.c_str());
      return 2;
    }
    Out << renderBaseline(All);
    std::fprintf(stderr, "%s: wrote %zu finding(s) to %s\n", argv[0],
                 All.size(), WriteBaselinePath.c_str());
    return 0;
  }

  if (Json) {
    std::fputs(diagnosticsToJson(R.Diags).c_str(), stdout);
  } else {
    std::fputs(formatDiagnostics(R.Diags).c_str(), stderr);
    if (ListBaselined && !R.Baselined.empty()) {
      std::fprintf(stderr, "-- baselined (%zu) --\n", R.Baselined.size());
      std::fputs(formatDiagnostics(R.Baselined).c_str(), stderr);
    }
    for (const std::string &K : R.StaleBaselineKeys)
      std::fprintf(stderr, "note: stale baseline entry (no longer matches "
                           "anything): %s\n",
                   K.c_str());
  }
  if (Stats)
    std::fprintf(stderr,
                 "%zu file(s) analyzed, %zu finding(s), %zu baselined\n",
                 R.FilesAnalyzed, R.Diags.size(), R.Baselined.size());

  return hasErrors(R.Diags) ? 1 : 0;
}
