//===--- chameleon-rulefmt.cpp - Rule-file linter and formatter -*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line linter and canonical formatter for rule files written in
/// the paper's Fig. 4 selection language. Every run goes through the full
/// front end: the parser's syntax checks plus the Sema pass (unbound and
/// unused $-parameters, replacement-target validation, condition
/// satisfiability by interval analysis over the Table-1 metric domains,
/// rule shadowing, and metric-scale confusions).
///
///   chameleon-rulefmt file.rules              # format to stdout
///   chameleon-rulefmt --check file.rules      # diagnostics only
///   chameleon-rulefmt --Werror file.rules     # warnings fail the run
///   chameleon-rulefmt --param X=32 file.rules # bind $X for the analysis
///   chameleon-rulefmt --builtin               # the built-in rule set
///   chameleon-rulefmt --json file.rules       # diagnostics as JSON
///
/// Diagnostics print as "file:line:col: [error|warning:] message [id]"
/// with did-you-mean fix-it hints for misspelled metric, operation,
/// implementation and source-type names. All diagnostics for every input
/// are printed; formatted output is only produced for files that parsed
/// without errors. --json implies --check (stdout carries the diagnostic
/// array, in the same key layout as chameleon-checker --json). Exit: 0
/// clean, 1 errors (or, under --Werror, warnings), 2 usage error.
///
//===----------------------------------------------------------------------===//

#include "rules/Printer.h"
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
              "  --check         print diagnostics only, no formatted rules\n"
              "  --builtin       the built-in Table-2 rule set\n"
              "  --Werror        treat warnings as errors\n"
              "  --json          print diagnostics as a JSON array on "
              "stdout (implies --check)\n"
              "  --param NAME=V  bind the $-parameter NAME to V "
              "(repeatable)\n"
              "  -h, --help      show this help\n",
              Argv0);
}

struct Options {
  bool CheckOnly = false;
  bool WarningsAreErrors = false;
  bool Json = false;
  SemaOptions Sema;
};

/// Lints one source buffer and, unless checking only, prints it formatted;
/// returns 1 when it should fail the run. With --json, diagnostics
/// accumulate into \p JsonDiags (rendered once at the end of the run)
/// instead of printing to stderr.
int runOnSource(const std::string &Name, const std::string &Source,
                const Options &Opt, std::vector<Diagnostic> &JsonDiags) {
  LintResult Result = lintRuleSource(Source, Opt.Sema);
  for (Diagnostic &D : Result.Diags) {
    D.File = Name;
    if (Opt.Json)
      JsonDiags.push_back(D);
    else
      std::fprintf(stderr, "%s\n", D.format().c_str());
  }
  if (Result.hasErrors())
    return 1;
  if (!Opt.CheckOnly)
    std::fputs(printRules(Result.Rules).c_str(), stdout);
  if (Opt.WarningsAreErrors && Result.hasWarnings())
    return 1;
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  Options Opt;
  RuleParams Params;
  bool Builtin = false;
  std::vector<std::string> Files;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--check") {
      Opt.CheckOnly = true;
    } else if (Arg == "--Werror") {
      Opt.WarningsAreErrors = true;
    } else if (Arg == "--json") {
      Opt.Json = true;
      Opt.CheckOnly = true; // stdout carries the diagnostic array
    } else if (Arg == "--builtin") {
      Builtin = true;
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
      Opt.Sema.Params = &Params;
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

  int Status = 0;
  std::vector<Diagnostic> JsonDiags;
  if (Builtin)
    Status |= runOnSource("<builtin>", RuleEngine::builtinRulesText(), Opt,
                          JsonDiags);
  for (const std::string &File : Files) {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "%s: cannot open file\n", File.c_str());
      Status = 1;
      continue;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Status |= runOnSource(File, Buf.str(), Opt, JsonDiags);
  }
  if (Opt.Json)
    std::fputs(diagnosticsToJson(JsonDiags).c_str(), stdout);
  return Status;
}
