//===--- Sema.h - Semantic analysis of rule files --------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static semantic analysis ("lint") for the selection-rule language of
/// paper Fig. 4. The parser guarantees only well-formedness; this pass
/// checks that a rule set can actually do what it says before any workload
/// runs:
///
///   sema-unbound-param       rule references a $-parameter with no binding
///   sema-unused-param        parameter bound but never referenced
///   sema-target-kind-mismatch  replacement target cannot back the srcType's
///                              ADT (e.g. a Map replaced with a List impl)
///   sema-self-replacement    replacing a concrete type with itself
///   sema-never-fires         condition is arithmetically unsatisfiable over
///                            the Table-1 metric domains
///   sema-always-true         comparison that always holds (redundant guard)
///   sema-dead-branch         comparison that never holds inside an '||'
///   sema-shadowed-rule       a later rule's condition implies an earlier
///                            rule's on the same srcType, so its replacement
///                            is always preceded in the plan
///   sema-ops-size-comparison operation-count average compared against a
///                            size metric (almost always a typo'd threshold)
///   sema-mixed-scope         per-instance average compared against a
///                            lifetime/heap aggregate
///
/// Satisfiability is decided by constant folding + interval analysis: every
/// metric's domain is [0, +inf) (counts, sizes, bytes and stddevs are
/// non-negative), a metric lattice orders the Table-1 heap measures
/// (core <= used <= live <= heap-live, per-cycle max <= lifetime total),
/// and within a conjunction the bounds each comparison places on a
/// canonical sub-expression are intersected — so `maxSize > 8 && maxSize
/// < 3`, `#contains < 0` and `totUsed > totLive` are all recognized as
/// "can never fire".
///
/// The pass is deliberately conservative: a diagnostic is emitted only
/// when the defect is provable from the rule text (plus the provided
/// parameter bindings); anything data-dependent stays silent.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_RULES_SEMA_H
#define CHAMELEON_RULES_SEMA_H

#include "rules/Ast.h"
#include "rules/Evaluator.h"
#include "support/Diagnostics.h"

#include <string>
#include <vector>

namespace chameleon::rules {

/// Knobs for one analysis run.
struct SemaOptions {
  /// Current $-parameter bindings; nullptr means "nothing bound", which
  /// makes every referenced parameter an unbound-param warning, and a
  /// binding no rule references is an unused-param warning.
  const RuleParams *Params = nullptr;
};

/// Analysis result: diagnostics plus a per-rule static verdict, parallel
/// to the analyzed rule list.
struct SemaResult {
  struct RuleVerdict {
    /// The condition can never be satisfied (independent of workload).
    bool NeverFires = false;
    /// $-parameters the rule references that have no binding.
    std::vector<std::string> UnboundParams;
  };

  std::vector<Diagnostic> Diags;
  std::vector<RuleVerdict> Verdicts;

  bool hasErrors() const { return chameleon::hasErrors(Diags); }
};

/// Runs the full semantic analysis over a parsed rule list. Diagnostics
/// come back sorted by source position.
SemaResult analyzeRules(const std::vector<Rule> &Rules,
                        const SemaOptions &Opts = SemaOptions());

/// Parse + sema in one call: the front end shared by chameleon-rulefmt and
/// tests. Diags merges parse and sema diagnostics in source order; Rules
/// holds what parsed (even in the presence of errors).
struct LintResult {
  std::vector<Rule> Rules;
  std::vector<Diagnostic> Diags;

  bool hasErrors() const { return chameleon::hasErrors(Diags); }
  bool hasWarnings() const { return chameleon::hasWarnings(Diags); }
};

LintResult lintRuleSource(const std::string &Source,
                          const SemaOptions &Opts = SemaOptions());

//===----------------------------------------------------------------------===//
// Fix-it helpers (shared with the parser's did-you-mean hints)
//===----------------------------------------------------------------------===//

/// Levenshtein edit distance (case-insensitive).
unsigned editDistance(const std::string &A, const std::string &B);

/// Nearest known metric name to a misspelled identifier; suggests the
/// "#op" spelling when the identifier is really an operation counter.
/// Empty when nothing is plausibly close.
std::string suggestMetricName(const std::string &Name);

/// Nearest operation-counter name (for '#'/'@' references); falls back to
/// a bare metric name when the '#' was spurious. Empty when nothing close.
std::string suggestOpName(const std::string &Name);

/// Nearest implementation-type or action name for a replacement target.
std::string suggestImplName(const std::string &Name);

/// Nearest source-type name ("Collection", ADTs, concrete types).
std::string suggestSourceTypeName(const std::string &Name);

} // namespace chameleon::rules

#endif // CHAMELEON_RULES_SEMA_H
