//===--- RuleEngine.cpp - The collection-selection rule engine -----------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rules/RuleEngine.h"

#include "collections/CollectionRuntime.h"
#include "obs/DecisionLog.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Assert.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace chameleon;
using namespace chameleon::rules;

namespace {
// Rule-engine outcome accounting (cham.rules.*, DESIGN.md §11):
// evaluations counts (rule, context) pairs, fired the subset that
// produced a suggestion.
CHAM_METRIC_COUNTER(RuleEvaluations, "cham.rules.evaluations");
CHAM_METRIC_COUNTER(RuleFired, "cham.rules.fired");

/// Contexts with fewer folded instances than this are not judged at all
/// (not enough samples for the Table-1 averages to mean anything).
constexpr uint64_t MinSamples = 4;

/// Stability thresholds (Definition 3.1): a size metric is stable when
/// stddev <= MaxAbsStddev + MaxRelStddev * mean.
constexpr double MaxAbsStddev = 1.0;
constexpr double MaxRelStddev = 0.25;

/// The full impl-kind name table, index-aligned with implIndex().
std::vector<std::string> implNameTable() {
  std::vector<std::string> Names;
  Names.reserve(NumImplKinds);
  for (unsigned I = 0; I < NumImplKinds; ++I)
    Names.push_back(implKindName(static_cast<ImplKind>(I)));
  return Names;
}
} // namespace

std::string Suggestion::fixDescription() const {
  switch (Action) {
  case ActionKind::Replace: {
    std::string Fix = std::string("replace with ") + implKindName(NewImpl);
    if (Capacity)
      Fix += "(" + std::to_string(*Capacity) + ")";
    return Fix;
  }
  case ActionKind::SetCapacity:
    return "set initial capacity ("
           + std::to_string(Capacity.value_or(0)) + ")";
  case ActionKind::Warn:
    return Message.empty() ? std::string("see report") : Message;
  }
  CHAM_UNREACHABLE("unknown ActionKind");
}

void rules::foldSuggestion(PlanDecision &Decision, const Suggestion &S) {
  if (S.Action == ActionKind::Replace && !Decision.Impl) {
    Decision.Impl = S.NewImpl;
    if (S.Capacity && !Decision.Capacity)
      Decision.Capacity = S.Capacity;
  } else if (S.Action == ActionKind::SetCapacity && !Decision.Capacity) {
    Decision.Capacity = S.Capacity;
  }
}

RuleEngine::RuleEngine(RuleEngineConfig Config) : Config(Config) {}

ParseResult RuleEngine::addRules(const std::string &Source, SemaMode Mode) {
  ParseResult Result = parseRules(Source);
  if (Mode != SemaMode::Off) {
    SemaOptions Opts;
    Opts.Params = &Params;
    // Bindings may serve rule files added later; unused-param noise here
    // would punish setParam-before-addRules call orders.
    Opts.CheckUnusedParams = false;
    SemaResult Sema = analyzeRules(Result.Rules, Opts);
    for (size_t I = 0; I < Result.Rules.size(); ++I) {
      const SemaResult::RuleVerdict &V = Sema.Verdicts[I];
      Rule &R = Result.Rules[I];
      if (V.NeverFires) {
        R.NeverFires = true;
        R.SemaNote = "condition is unsatisfiable";
      } else if (!V.UnboundParams.empty()) {
        std::string Names;
        for (const std::string &Name : V.UnboundParams) {
          if (!Names.empty())
            Names += ", ";
          Names += "$" + Name;
        }
        R.SemaNote = "referenced " + Names + " unbound at load time";
      }
    }
    Result.Diags.insert(Result.Diags.end(),
                        std::make_move_iterator(Sema.Diags.begin()),
                        std::make_move_iterator(Sema.Diags.end()));
    sortDiagnostics(Result.Diags);
    if (Mode == SemaMode::Strict && hasErrors(Result.Diags)) {
      Result.Rules.clear();
      return Result;
    }
  }
  for (Rule &R : Result.Rules)
    Rules.push_back(std::move(R));
  Result.Rules.clear();
  return Result;
}

const char *RuleEngine::builtinRulesText() {
  // The built-in rule set (paper Table 2, plus the refinements its case
  // studies apply by hand). Constants are the tuned defaults; they "may be
  // tuned per specific environment" (§3.3.1).
  return R"rules(
// -- Redundant / empty collections ---------------------------------------
[never-used-lists] List : #allOps == 0 && maxSize == 0 && allocCount >= 8
    -> EmptyList
  "Space: collection never used — share an immutable empty instance"
[empty-lists] List : maxSize == 0 && allocCount >= 8 -> LazyArrayList
  "Space: redundant collection allocation"
[empty-maps] Map : maxSize == 0 && allocCount >= 8 -> LazyMap
  "Space: redundant map allocation"
[empty-sets] Set : maxSize == 0 && allocCount >= 8 -> LazySet
  "Space: redundant set allocation"
[mostly-empty-lists] List : maxSize < 1 && allocCount >= 8
    -> LazyArrayList
  "Space: most collections at this context stay empty — allocate lazily"
[mostly-empty-maps] Map : maxSize < 1 && allocCount >= 8 -> LazyMap
  "Space: most maps at this context stay empty — allocate lazily"
[mostly-empty-sets] Set : maxSize < 1 && allocCount >= 8 -> LazySet
  "Space: most sets at this context stay empty — allocate lazily"

// -- Shape-specialised replacements ---------------------------------------
[singleton-lists] ArrayList : maxSize == 1 && @maxSize == 0
    && #remove(Object) + #remove(int) + #add(int,Object) < 1
    && allocCount >= 8 -> SingletonList
  "Space: list always holds a single element"
[arraylist-contains] ArrayList : #contains > 32 && maxSize > 32
    -> LinkedHashSet
  "Time: inefficient use of an ArrayList: large volume of contains operations on a large sized list"
[linkedlist-random-access] LinkedList : #get(int) > 32 && maxSize > 8
    -> ArrayList
  "Time: inefficient use of a LinkedList: large volume of random accesses using get(i)"
[small-linkedlists, unstable] LinkedList : maxSize <= 1
    && #add(int,Object) + #addAll(int,Collection) + #remove(int) + #removeFirst < 1
    -> LazyArrayList
  "Space: LinkedList overhead not justified for lists that are mostly empty"
[linkedlist-overhead] LinkedList : maxSize > 1
    && #add(int,Object) + #addAll(int,Collection) + #remove(int) + #removeFirst < 1
    -> ArrayList
  "Space: LinkedList overhead not justified when adding/removing elements from the middle/head of the list is hardly performed"
[small-hashmap] HashMap : maxSize > 0 && maxSize <= 8 -> ArrayMap
  "Space: ArrayMap more efficient than a HashMap; Time: operations on a small array might be faster than on a HashMap"
[small-hashset] HashSet : maxSize > 0 && maxSize <= 8 -> ArraySet
  "Space: ArraySet more efficient than a HashSet; Time: operations on a small array might be faster than on a HashSet"

// -- Capacity tuning ---------------------------------------------------
// Restricted to capacity-backed source types: an initial capacity means
// nothing for a LinkedList.
[incremental-resizing] ArrayList : maxSize > initialCapacity
    -> setCapacity(maxSize)
  "Space/Time: incremental resizing — set initial capacity"
[incremental-resizing-maps] Map : maxSize > initialCapacity
    -> setCapacity(maxSize)
  "Space/Time: incremental resizing — set initial capacity"
[incremental-resizing-sets] Set : maxSize > initialCapacity
    -> setCapacity(maxSize)
  "Space/Time: incremental resizing — set initial capacity"
[oversized-capacity] ArrayList : maxSize > 0
    && initialCapacity > 2 * maxSize + 4 -> setCapacity(maxSize)
  "Space: oversized initial capacity — set initial capacity"
[oversized-capacity-maps] Map : maxSize > 0
    && initialCapacity > 2 * maxSize + 4 -> setCapacity(maxSize)
  "Space: oversized initial capacity — set initial capacity"
[oversized-capacity-sets] Set : maxSize > 0
    && initialCapacity > 2 * maxSize + 4 -> setCapacity(maxSize)
  "Space: oversized initial capacity — set initial capacity"

// -- Advisories ------------------------------------------------------------
[never-used] Collection : #allOps == 0 && allocCount >= 8 -> warn
  "Space/Time: redundant collection — avoid allocation"
[redundant-copies] Collection : #allOps == #copied && #copied > 0 -> warn
  "Space/Time: redundant copying of collections — eliminate temporaries"
[empty-iterators] Collection : #iteratorEmpty > 8 -> warn
  "Space: redundant iterators over empty collections"
)rules";
}

void RuleEngine::addBuiltinRules() {
  ParseResult Result = addRules(builtinRulesText());
  assert(Result.succeeded() && "built-in rules must parse");
  (void)Result;
}

bool RuleEngine::srcTypeMatches(const std::string &SrcType,
                                const std::string &TypeName) const {
  if (SrcType == "Collection" || SrcType == TypeName)
    return true;
  // ADT-level match: "List" matches ArrayList, LinkedList, and any custom
  // list-shaped type registered via registerSourceType.
  std::optional<AdtKind> Adt;
  if (std::optional<ImplKind> Impl = defaultImplForSourceType(TypeName)) {
    Adt = adtOfImpl(*Impl);
  } else {
    auto It = CustomSourceAdts.find(TypeName);
    if (It != CustomSourceAdts.end())
      Adt = It->second;
  }
  return Adt && SrcType == adtKindName(*Adt);
}

bool RuleEngine::isStable(const ContextInfo &Info, bool UsedMaxSize,
                          bool UsedFinalSize) const {
  auto Stable = [&](const RunningStat &Stat) {
    return Stat.stddev() <= MaxAbsStddev + MaxRelStddev * Stat.mean();
  };
  if (UsedMaxSize && !Stable(Info.maxSizeStat()))
    return false;
  if (UsedFinalSize && !Stable(Info.finalSizeStat()))
    return false;
  return true;
}

const char *RuleEngine::ruleOutcomeName(RuleOutcome Outcome) {
  switch (Outcome) {
  case RuleOutcome::Fired:
    return "fired";
  case RuleOutcome::NeverFires:
    return "statically can never fire";
  case RuleOutcome::SrcTypeMismatch:
    return "source type mismatch";
  case RuleOutcome::TooFewSamples:
    return "too few folded instances";
  case RuleOutcome::ConditionFalse:
    return "condition false";
  case RuleOutcome::MissingParam:
    return "unbound $-parameter";
  case RuleOutcome::Unstable:
    return "suppressed by stability gate";
  case RuleOutcome::GatedByPotential:
    return "below the potential threshold";
  case RuleOutcome::None:
    break;
  }
  CHAM_UNREACHABLE("unknown RuleOutcome");
}

RuleEngine::RuleOutcome
RuleEngine::evaluateRule(const Rule &R, const ContextInfo &Info,
                         const SemanticProfiler &Profiler, Suggestion *Out,
                         unsigned *DivGuardHits) const {
  if (R.NeverFires)
    return RuleOutcome::NeverFires;
  if (Info.foldedInstances() < MinSamples)
    return RuleOutcome::TooFewSamples;
  if (!srcTypeMatches(R.SrcType, Info.typeName()))
    return RuleOutcome::SrcTypeMismatch;

  Evaluator Eval(Info, Profiler, &Params);
  bool CondHolds = Eval.evalCond(*R.Condition);
  if (DivGuardHits)
    *DivGuardHits = Eval.divGuardHits();
  if (Eval.missingParam())
    return RuleOutcome::MissingParam;
  if (!CondHolds)
    return RuleOutcome::ConditionFalse;
  if (!R.IgnoreStability
      && !isStable(Info, Eval.usedMaxSize(), Eval.usedFinalSize()))
    return RuleOutcome::Unstable;
  if (Config.MinPotentialBytes != 0
      && R.Category.find("Space") != std::string::npos
      && R.Category.find("Time") == std::string::npos
      && Info.savingPotential() < Config.MinPotentialBytes)
    return RuleOutcome::GatedByPotential;

  std::optional<uint32_t> Capacity;
  if (R.Capacity) {
    double Cap = Eval.evalExpr(*R.Capacity);
    if (DivGuardHits)
      *DivGuardHits = Eval.divGuardHits();
    if (Eval.missingParam())
      return RuleOutcome::MissingParam;
    Capacity = static_cast<uint32_t>(std::max(1.0, std::ceil(Cap)));
  }

  if (Out) {
    Out->Context = &Info;
    Out->ContextLabel = Info.label();
    Out->RuleName = R.Name;
    Out->Action = R.Action;
    Out->NewImpl = R.NewImpl;
    Out->Category = R.Category;
    Out->Message = R.Message;
    Out->PotentialBytes = Info.savingPotential();
    Out->Capacity = Capacity;
  }
  return RuleOutcome::Fired;
}

void RuleEngine::evaluateContext(const ContextInfo &Info,
                                 const SemanticProfiler &Profiler,
                                 std::vector<Suggestion> &Out) const {
  CHAM_TRACE_INSTANT_ARG("rules", "evaluate_context", "ctx",
                         static_cast<int64_t>(Info.id()));
  obs::DecisionLog &Ledger = obs::DecisionLog::instance();
  bool Led = Ledger.enabled();
  if (Led) {
    // Provenance: the Table-1 inputs this evaluation epoch saw, before
    // any rule verdicts reference them.
    std::vector<std::string> Names;
    Names.reserve(Rules.size());
    for (const Rule &R : Rules)
      Names.push_back(R.Name);
    Ledger.noteRuleNames(Names);
    Ledger.noteImplNames(implNameTable());
    Ledger.noteContextLabel(Info.id(), Info.label());
    obs::DecisionRecord Snap;
    Snap.CtxId = Info.id();
    Snap.Epoch = Ledger.currentEpoch();
    Snap.Kind = obs::DecisionKind::Snapshot;
    Snap.Allocations = Info.allocations();
    Snap.Folded = Info.foldedInstances();
    Snap.TotLive = Info.liveData().total();
    Snap.TotUsed = Info.usedData().total();
    Snap.TotCore = Info.coreData().total();
    Snap.AvgOps = Info.avgAllOps();
    Snap.AvgMaxSize = Info.maxSizeStat().mean();
    Ledger.record(Snap);
  }
  size_t Fired = 0;
  int16_t RuleIdx = 0;
  for (const Rule &R : Rules) {
    Suggestion S;
    unsigned DivGuardHits = 0;
    RuleOutcome Outcome =
        evaluateRule(R, Info, Profiler, &S, Led ? &DivGuardHits : nullptr);
    if (Led) {
      obs::DecisionRecord Rec;
      Rec.CtxId = Info.id();
      Rec.Epoch = Ledger.currentEpoch();
      Rec.Kind = obs::DecisionKind::RuleOutcome;
      Rec.Rule = RuleIdx;
      Rec.Outcome = Outcome;
      Rec.DivGuard = static_cast<uint16_t>(
          DivGuardHits > 0xffff ? 0xffff : DivGuardHits);
      if (Outcome == RuleOutcome::Fired && S.Action == ActionKind::Replace)
        Rec.Impl = static_cast<uint8_t>(implIndex(S.NewImpl));
      if (Outcome == RuleOutcome::Fired)
        Rec.Capacity = S.Capacity.value_or(0);
      Ledger.record(Rec);
    }
    if (Outcome == RuleOutcome::Fired) {
      Out.push_back(std::move(S));
      ++Fired;
    }
    ++RuleIdx;
  }
  RuleEvaluations.add(Rules.size());
  RuleFired.add(Fired);
}

std::string
RuleEngine::explainContext(const ContextInfo &Info,
                           const SemanticProfiler &Profiler,
                           const OnlineSelector *Selector,
                           size_t TraceInstantLimit) const {
  std::string Text = "rules for " + Info.label() + ":\n";
  for (const Rule &R : Rules) {
    Suggestion S;
    unsigned DivGuardHits = 0;
    RuleOutcome Outcome = evaluateRule(R, Info, Profiler, &S, &DivGuardHits);
    Text += "  [";
    Text += R.Name;
    Text += "] ";
    Text += ruleOutcomeName(Outcome);
    if (Outcome == RuleOutcome::Fired) {
      Text += " -> ";
      Text += S.fixDescription();
    }
    // Load-time sema findings (unsatisfiable condition, parameter unbound
    // when the rule was installed) explain *why* a rule stays silent.
    if (!R.SemaNote.empty()) {
      Text += " (";
      Text += R.SemaNote;
      Text += ')';
    }
    // A ratio rule over an empty profile divides by zero; the evaluator
    // defines x/0 = 0, which usually makes the condition quietly false.
    // Say so, or the silence is undiagnosable from the report.
    if (DivGuardHits != 0) {
      Text += " (division guard: ";
      Text += std::to_string(DivGuardHits);
      Text += DivGuardHits == 1 ? " division by zero evaluated as 0"
                                : " divisions by zero evaluated as 0";
      Text += ')';
    }
    Text += '\n';
  }
  // Live-migration state: what actually happened to this context, next to
  // what the rules say should happen.
  if (Info.migrationCommits() != 0 || Info.migrationAborts() != 0) {
    Text += "  migrations: " + std::to_string(Info.migrationCommits())
            + " committed, " + std::to_string(Info.migrationAborts())
            + " aborted\n";
  }
  if (Selector) {
    std::string State = Selector->describeContext(&Info);
    if (!State.empty())
      Text += "  " + State + '\n';
  }
  // The context's recent telemetry instants (migration aborts, online
  // decisions, ...) — only those tagged with this context's id.
  std::vector<obs::TraceEvent> Recent = obs::TraceRecorder::instance()
      .recentByArg("ctx", static_cast<int64_t>(Info.id()),
                   TraceInstantLimit);
  if (!Recent.empty()) {
    Text += "  recent telemetry:\n";
    for (const obs::TraceEvent &Ev : Recent) {
      char Line[128];
      std::snprintf(Line, sizeof(Line), "    [%s] %s @%.3fms\n",
                    Ev.Category, Ev.Name,
                    static_cast<double>(Ev.StartNanos) / 1e6);
      Text += Line;
    }
  }
  return Text;
}

std::vector<Suggestion>
RuleEngine::evaluate(const SemanticProfiler &Profiler) const {
  std::vector<Suggestion> Out;
  for (ContextInfo *Info : Profiler.rankedByPotential())
    evaluateContext(*Info, Profiler, Out);
  return Out;
}

ReplacementPlan
RuleEngine::buildPlan(const std::vector<Suggestion> &Suggs) {
  ReplacementPlan Plan;
  for (const Suggestion &S : Suggs) {
    const PlanDecision *Existing = Plan.lookup(S.ContextLabel);
    PlanDecision Decision = Existing ? *Existing : PlanDecision();
    foldSuggestion(Decision, S);
    if (!Decision.empty())
      Plan.add(S.ContextLabel, Decision);
  }
  return Plan;
}

std::string
RuleEngine::renderReport(const std::vector<Suggestion> &Suggs) {
  std::string Out;
  unsigned Index = 1;
  for (const Suggestion &S : Suggs) {
    Out += std::to_string(Index++);
    Out += ": ";
    Out += S.ContextLabel;
    Out += ' ';
    Out += S.fixDescription();
    if (!S.Category.empty() && S.Action != ActionKind::Warn) {
      Out += "  [";
      Out += S.Category;
      Out += ": ";
      Out += S.RuleName;
      Out += ']';
    }
    Out += '\n';
  }
  return Out;
}
