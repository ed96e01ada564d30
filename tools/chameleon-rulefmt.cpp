//===--- chameleon-rulefmt.cpp - Rule-file validator/formatter -*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line validator and canonical formatter for rule files written
/// in the paper's Fig. 4 selection language. Both checking and formatting
/// run the full front end (parse + sema), so semantic problems — unbound
/// parameters, unsatisfiable conditions, shadowed rules — are reported
/// while formatting, not just syntax errors.
///
///   chameleon-rulefmt file.rules          # format to stdout
///   chameleon-rulefmt --check file.rules  # diagnostics only
///   chameleon-rulefmt --Werror file.rules # warnings fail the run
///   chameleon-rulefmt --builtin           # print the built-in rule set
///   chameleon-rulefmt --json file.rules   # diagnostics as JSON
///
/// All diagnostics for every input are printed before exiting. Exits
/// nonzero when any file has errors (or, under --Werror, warnings); the
/// formatted output is only produced for files that parsed without
/// errors. --json implies --check (stdout carries the diagnostic array,
/// in the same key layout as chameleon-checker --json).
///
//===----------------------------------------------------------------------===//

#include "rules/Printer.h"
#include "rules/RuleEngine.h"
#include "rules/Sema.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace chameleon;
using namespace chameleon::rules;

static int runOnSource(const std::string &Name, const std::string &Source,
                       bool CheckOnly, bool WarningsAreErrors, bool Json,
                       std::vector<Diagnostic> &JsonDiags) {
  LintResult Result = lintRuleSource(Source, SemaOptions());
  for (Diagnostic &D : Result.Diags) {
    D.File = Name;
    if (Json)
      JsonDiags.push_back(D);
    else
      std::fprintf(stderr, "%s\n", D.format().c_str());
  }
  if (Result.hasErrors())
    return 1;
  if (!CheckOnly)
    std::fputs(printRules(Result.Rules).c_str(), stdout);
  if (WarningsAreErrors && Result.hasWarnings())
    return 1;
  return 0;
}

int main(int argc, char **argv) {
  bool CheckOnly = false;
  bool WarningsAreErrors = false;
  bool Json = false;
  std::vector<std::string> Files;
  bool Builtin = false;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--check") {
      CheckOnly = true;
    } else if (Arg == "--Werror") {
      WarningsAreErrors = true;
    } else if (Arg == "--json") {
      Json = true;
      CheckOnly = true; // stdout carries the diagnostic array
    } else if (Arg == "--builtin") {
      Builtin = true;
    } else if (Arg == "--help" || Arg == "-h") {
      std::printf(
          "usage: %s [--check] [--Werror] [--json] [--builtin] [file...]\n",
          argv[0]);
      return 0;
    } else {
      Files.push_back(Arg);
    }
  }

  int Status = 0;
  std::vector<Diagnostic> JsonDiags;
  if (Builtin)
    Status |= runOnSource("<builtin>", RuleEngine::builtinRulesText(),
                          CheckOnly, WarningsAreErrors, Json, JsonDiags);
  for (const std::string &File : Files) {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "%s: cannot open file\n", File.c_str());
      Status = 1;
      continue;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Status |= runOnSource(File, Buf.str(), CheckOnly, WarningsAreErrors, Json,
                          JsonDiags);
  }
  if (Json)
    std::fputs(diagnosticsToJson(JsonDiags).c_str(), stdout);
  if (!Builtin && Files.empty()) {
    std::fprintf(stderr, "%s: no input (try --builtin or a file)\n",
                 argv[0]);
    return 1;
  }
  return Status;
}
