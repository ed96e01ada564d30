//===--- RuleEngine.h - The collection-selection rule engine ---*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The rule engine of paper §3.3: evaluates selection rules over every
/// allocation context's profile and emits per-context suggestions, which
/// can be rendered as the paper's report or compiled into a
/// `ReplacementPlan` for automatic application. Built-in rules implement
/// Table 2 (plus the singleton-list, lazy-map and oversized-capacity
/// refinements the paper's case studies apply manually).
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_RULES_RULEENGINE_H
#define CHAMELEON_RULES_RULEENGINE_H

#include "collections/ReplacementPlan.h"
#include "obs/DecisionLog.h"
#include "rules/Evaluator.h"
#include "rules/Parser.h"

#include <string>
#include <vector>

namespace chameleon {
// Declared in collections/CollectionRuntime.h; explainContext only calls
// through a pointer, so the rules layer needs no include of the runtime.
class OnlineSelector;
} // namespace chameleon

namespace chameleon::rules {

/// One fired rule at one context.
struct Suggestion {
  const ContextInfo *Context = nullptr;
  std::string ContextLabel;
  std::string RuleName;
  ActionKind Action = ActionKind::Warn;
  /// Replace target (Action == Replace).
  ImplKind NewImpl = ImplKind::ArrayList;
  /// Evaluated capacity (Replace-with-capacity or SetCapacity).
  std::optional<uint32_t> Capacity;
  std::string Category;
  std::string Message;
  /// The context's saving potential when the rule fired.
  uint64_t PotentialBytes = 0;

  /// "replace with ArrayMap" / "set initial capacity (3)" / the message.
  std::string fixDescription() const;
};

/// Folds \p S into its context's decision. Offline plans (buildPlan) and
/// online decisions (OnlineAdaptor) are both this fold over a context's
/// suggestions in rule order: the first Replace decides the implementation
/// (and the capacity, when it carries one); otherwise the first
/// capacity-bearing suggestion decides the capacity. Warn decides nothing.
void foldSuggestion(PlanDecision &Decision, const Suggestion &S);

/// The rule engine: an ordered rule list plus evaluation.
class RuleEngine {
public:
  /// Appends rules parsed from \p Source. Returns the parse result; rules
  /// that parsed are installed even when others produced diagnostics.
  /// Parsing is all it does: semantic analysis (rules/Sema.h) is
  /// lintRuleSource's, which chameleon-rulefmt --check runs.
  ParseResult addRules(const std::string &Source);

  /// Installs the built-in Table-2 rule set.
  void addBuiltinRules();

  /// The built-in rule set as rule-language source (also documentation).
  static const char *builtinRulesText();

  /// Installed rules, in evaluation order.
  const std::vector<Rule> &rules() const { return Rules; }

  /// Binds a $-parameter; rules referencing unbound parameters never fire
  /// (§3.3.1: constants "may be tuned per specific environment").
  void setParam(const std::string &Name, double Value) {
    Params[Name] = Value;
  }

  /// The current parameter bindings.
  const RuleParams &params() const { return Params; }

  /// Teaches the engine the abstract type of a custom source-level
  /// collection name so that "List"/"Set"/"Map" rules match its contexts
  /// (built-in names are known automatically).
  void registerSourceType(const std::string &Name, AdtKind Adt) {
    CustomSourceAdts[Name] = Adt;
  }

  /// Why a rule did or did not fire for a context: the verdicts the
  /// decision ledger records. evaluateRule never returns None.
  using RuleOutcome = obs::DecisionOutcome;

  /// Printable outcome name.
  static const char *ruleOutcomeName(RuleOutcome Outcome);

  /// Evaluates one rule against one context; fills \p Out when it fires.
  /// When \p DivGuardHits is non-null it receives the number of divisions
  /// the evaluator's x/0 = 0 guard absorbed while evaluating this rule.
  RuleOutcome evaluateRule(const Rule &R, const ContextInfo &Info,
                           const SemanticProfiler &Profiler, Suggestion *Out,
                           unsigned *DivGuardHits = nullptr) const;

  /// Evaluates every rule against one context; appends fired suggestions.
  void evaluateContext(const ContextInfo &Info,
                       const SemanticProfiler &Profiler,
                       std::vector<Suggestion> &Out) const;

  /// Renders, rule by rule, why each fired or stayed silent for one
  /// context — the debuggability view for tuning rule constants. When a
  /// \p Selector is given (the runtime's online selector), its per-context
  /// adaptation state (plan, migration backoff, pin) is appended, along
  /// with the context's migration commit/abort counts and — when the trace
  /// recorder holds any — the last \p TraceInstantLimit telemetry instants
  /// tagged with this context's id.
  std::string explainContext(const ContextInfo &Info,
                             const SemanticProfiler &Profiler,
                             const OnlineSelector *Selector = nullptr,
                             size_t TraceInstantLimit = 8) const;

  /// Evaluates every context in the profiler, ranked by saving potential.
  std::vector<Suggestion> evaluate(const SemanticProfiler &Profiler) const;

  /// Compiles suggestions into a replacement plan: one foldSuggestion
  /// decision per context label.
  static ReplacementPlan buildPlan(const std::vector<Suggestion> &Suggs);

  /// Renders suggestions in the succinct per-context format of §2.1
  /// ("1: HashMap:site;caller replace with ArrayMap").
  static std::string renderReport(const std::vector<Suggestion> &Suggs);

private:
  /// True when \p SrcType (rule) matches a context allocating \p TypeName.
  bool srcTypeMatches(const std::string &SrcType,
                      const std::string &TypeName) const;

  /// The stability gate of Definition 3.1.
  bool isStable(const ContextInfo &Info, bool UsedMaxSize,
                bool UsedFinalSize) const;

  std::vector<Rule> Rules;
  RuleParams Params;
  std::unordered_map<std::string, AdtKind> CustomSourceAdts;
};

} // namespace chameleon::rules

#endif // CHAMELEON_RULES_RULEENGINE_H
