//===--- Parser.h - Parser for the rule language ---------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for the rule language of Fig. 4. The concrete
/// grammar accepted:
///
///   ruleset  := rule*
///   rule     := attrs? srcType ':' cond '->' action STRING?
///   attrs    := '[' IDENT (',' IDENT)* ']'        // name / 'unstable'
///   action   := implType ('(' expr ')')?          // replacement
///             | 'setCapacity' '(' expr ')'        // capacity tuning
///             | 'warn'                            // advisory
///   cond     := andCond ('||' andCond)*
///   andCond  := notCond ('&&' notCond)*
///   notCond  := '!' notCond | '(' cond ')' | compare
///   compare  := expr relop expr
///   expr     := term (('+'|'-') term)*
///   term     := factor (('*'|'/') factor)*
///   factor   := NUMBER | OPCOUNT | OPVAR | metricIdent | '(' expr ')'
///
/// On error the parser reports a positioned diagnostic and recovers by
/// skipping to what looks like the start of the next rule.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_RULES_PARSER_H
#define CHAMELEON_RULES_PARSER_H

#include "rules/Ast.h"
#include "rules/Token.h"
#include "support/Diagnostics.h"

#include <vector>

namespace chameleon::rules {

/// Result of parsing a rule file: the rules that parsed plus diagnostics
/// for the ones that did not. RuleEngine::addRules reuses this type and,
/// when sema is enabled, appends semantic diagnostics (which may be mere
/// warnings) to Diags.
struct ParseResult {
  std::vector<Rule> Rules;
  std::vector<Diagnostic> Diags;

  /// No *errors*; warnings do not fail a parse/load.
  bool succeeded() const { return !hasErrors(Diags); }
};

/// Parses rule-language source text.
ParseResult parseRules(const std::string &Source);

} // namespace chameleon::rules

#endif // CHAMELEON_RULES_PARSER_H
