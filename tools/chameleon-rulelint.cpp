//===--- chameleon-rulelint.cpp - Rule-file semantic linter ----*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line semantic linter for rule files written in the paper's
/// Fig. 4 selection language. On top of the parser's syntax checks it runs
/// the Sema pass: unbound/unused $-parameters, replacement-target
/// validation, condition satisfiability (interval analysis over the
/// Table-1 metric domains), rule shadowing, and metric-scale confusions.
///
///   chameleon-rulelint file.rules              # lint, warnings allowed
///   chameleon-rulelint --Werror file.rules     # warnings fail the lint
///   chameleon-rulelint --param X=32 file.rules # bind $X for the analysis
///   chameleon-rulelint --builtin               # lint the built-in rules
///   chameleon-rulelint --json file.rules       # diagnostics as JSON
///
/// Diagnostics print as "file:line:col: [error|warning:] message [id]"
/// with did-you-mean fix-it hints for misspelled metric, operation,
/// implementation and source-type names; with --json they print to stdout
/// as one JSON array in the same key layout as chameleon-checker --json.
/// Exits nonzero when any error (or, under --Werror, any warning) was
/// reported.
///
//===----------------------------------------------------------------------===//

#include "rules/RuleEngine.h"
#include "rules/Sema.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace chameleon;
using namespace chameleon::rules;

namespace {

void printUsage(const char *Argv0) {
  std::printf("usage: %s [options] [file...]\n"
              "  --builtin       lint the built-in Table-2 rule set\n"
              "  --Werror        treat warnings as errors\n"
              "  --json          print diagnostics as a JSON array on "
              "stdout\n"
              "  --param NAME=V  bind the $-parameter NAME to V "
              "(repeatable)\n"
              "  -h, --help      show this help\n",
              Argv0);
}

/// Lints one source buffer; returns 1 when it should fail the run. With
/// \p Json set, diagnostics accumulate into \p JsonDiags (rendered once at
/// the end of the run) instead of printing to stderr.
int lintSource(const std::string &Name, const std::string &Source,
               const SemaOptions &Opts, bool WarningsAreErrors, bool Json,
               std::vector<Diagnostic> &JsonDiags) {
  LintResult Result = lintRuleSource(Source, Opts);
  for (Diagnostic &D : Result.Diags) {
    D.File = Name;
    if (Json)
      JsonDiags.push_back(D);
    else
      std::fprintf(stderr, "%s\n", D.format().c_str());
  }
  if (Result.hasErrors())
    return 1;
  if (WarningsAreErrors && Result.hasWarnings())
    return 1;
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  bool Builtin = false;
  bool WarningsAreErrors = false;
  bool Json = false;
  RuleParams Params;
  bool HaveParams = false;
  std::vector<std::string> Files;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--builtin") {
      Builtin = true;
    } else if (Arg == "--Werror") {
      WarningsAreErrors = true;
    } else if (Arg == "--json") {
      Json = true;
    } else if (Arg == "--param") {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "%s: --param requires NAME=VALUE\n", argv[0]);
        return 2;
      }
      std::string Binding = argv[++I];
      size_t Eq = Binding.find('=');
      if (Eq == std::string::npos || Eq == 0) {
        std::fprintf(stderr, "%s: malformed --param '%s' (want NAME=VALUE)\n",
                     argv[0], Binding.c_str());
        return 2;
      }
      char *End = nullptr;
      double Value = std::strtod(Binding.c_str() + Eq + 1, &End);
      if (End == Binding.c_str() + Eq + 1 || *End != '\0') {
        std::fprintf(stderr, "%s: non-numeric --param value in '%s'\n",
                     argv[0], Binding.c_str());
        return 2;
      }
      Params[Binding.substr(0, Eq)] = Value;
      HaveParams = true;
    } else if (Arg == "--help" || Arg == "-h") {
      printUsage(argv[0]);
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                   Arg.c_str());
      return 2;
    } else {
      Files.push_back(Arg);
    }
  }

  if (!Builtin && Files.empty()) {
    std::fprintf(stderr, "%s: no input (try --builtin or a file)\n",
                 argv[0]);
    return 2;
  }

  SemaOptions Opts;
  if (HaveParams)
    Opts.Params = &Params;

  int Status = 0;
  std::vector<Diagnostic> JsonDiags;
  if (Builtin)
    Status |= lintSource("<builtin>", RuleEngine::builtinRulesText(), Opts,
                         WarningsAreErrors, Json, JsonDiags);
  for (const std::string &File : Files) {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "%s: cannot open file\n", File.c_str());
      Status = 1;
      continue;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Status |= lintSource(File, Buf.str(), Opts, WarningsAreErrors, Json,
                         JsonDiags);
  }
  if (Json)
    std::fputs(diagnosticsToJson(JsonDiags).c_str(), stdout);
  return Status;
}
