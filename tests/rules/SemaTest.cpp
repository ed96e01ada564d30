//===--- SemaTest.cpp - Rule-language semantic analysis tests -------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the sema/lint pass: golden-file comparisons over the
/// tools/testdata lint fixtures, the tier-1 guarantee that the built-in
/// Table-2 rule set lints clean, the pin that RuleEngine::addRules runs no
/// sema, and unit coverage for the interval analysis and did-you-mean
/// helpers.
///
//===----------------------------------------------------------------------===//

#include "rules/RuleEngine.h"
#include "rules/Sema.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace chameleon;
using namespace chameleon::rules;

namespace {

std::string readTestdata(const std::string &Name) {
  std::string Path = std::string(CHAMELEON_TOOLS_TESTDATA) + "/" + Name;
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Lints tools/testdata/<stem>.rules and compares the rendered diagnostics
/// against tools/testdata/<stem>.expected.
void checkGolden(const std::string &Stem,
                 const SemaOptions &Opts = SemaOptions()) {
  std::string Source = readTestdata(Stem + ".rules");
  std::string Expected = readTestdata(Stem + ".expected");
  LintResult Result = lintRuleSource(Source, Opts);
  EXPECT_EQ(formatDiagnostics(Result.Diags), Expected) << "fixture " << Stem;
}

//===----------------------------------------------------------------------===//
// Golden-file fixtures
//===----------------------------------------------------------------------===//

TEST(SemaGolden, TypoSuggestions) { checkGolden("lint_typo"); }
TEST(SemaGolden, UnsatisfiableConditions) { checkGolden("lint_unsat"); }
TEST(SemaGolden, ShadowedRules) { checkGolden("lint_shadow"); }
TEST(SemaGolden, UnknownTargets) { checkGolden("lint_unknown_target"); }
TEST(SemaGolden, ScaleConfusions) { checkGolden("lint_scales"); }
TEST(SemaGolden, UnboundParams) { checkGolden("lint_params"); }

TEST(SemaGolden, BoundParamsSilenceTheWarning) {
  RuleParams Params;
  Params["threshold"] = 32;
  SemaOptions Opts;
  Opts.Params = &Params;
  LintResult Result =
      lintRuleSource(readTestdata("lint_params.rules"), Opts);
  EXPECT_EQ(formatDiagnostics(Result.Diags), "");
}

//===----------------------------------------------------------------------===//
// Tier-1: the built-in rule set lints clean
//===----------------------------------------------------------------------===//

TEST(Sema, BuiltinRulesLintClean) {
  LintResult Result = lintRuleSource(RuleEngine::builtinRulesText());
  EXPECT_EQ(formatDiagnostics(Result.Diags), "");
  EXPECT_FALSE(Result.hasErrors());
  EXPECT_FALSE(Result.hasWarnings());
}

//===----------------------------------------------------------------------===//
// Individual diagnostic classes
//===----------------------------------------------------------------------===//

std::vector<Diagnostic> diagsFor(const std::string &Source,
                                 const SemaOptions &Opts = SemaOptions()) {
  return lintRuleSource(Source, Opts).Diags;
}

bool hasDiag(const std::vector<Diagnostic> &Diags, const std::string &ID) {
  for (const Diagnostic &D : Diags)
    if (D.ID == ID)
      return true;
  return false;
}

TEST(Sema, NegativeOpCountNeverFires) {
  std::vector<Diagnostic> Diags =
      diagsFor("ArrayList : #contains < 0 -> LinkedList");
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].ID, "sema-never-fires");
  EXPECT_EQ(Diags[0].Sev, Severity::Error);
}

TEST(Sema, EmptyIntervalNeverFires) {
  EXPECT_TRUE(hasDiag(
      diagsFor("HashMap : maxSize > 5 && maxSize < 3 -> ArrayMap"),
      "sema-never-fires"));
}

TEST(Sema, IntersectionAcrossThreeConjunctsNeverFires) {
  // No single pair is contradictory against the domain, but the
  // intersection over the whole conjunction is empty.
  EXPECT_TRUE(hasDiag(diagsFor("HashMap : maxSize >= 3 && maxSize <= 8 "
                               "&& maxSize > 8 -> ArrayMap"),
                      "sema-never-fires"));
}

TEST(Sema, LatticeUsedExceedsLiveNeverFires) {
  EXPECT_TRUE(hasDiag(diagsFor("Map : totUsed > totLive -> ArrayMap"),
                      "sema-never-fires"));
}

TEST(Sema, LatticeHoldsTransitively) {
  // core <= used <= live <= heap-live; the closure proves core <= heapMaxLive.
  EXPECT_TRUE(hasDiag(
      diagsFor("Map : maxCore > heapMaxLive -> ArrayMap"),
      "sema-never-fires"));
}

TEST(Sema, AlwaysTrueGuardWarns) {
  std::vector<Diagnostic> Diags =
      diagsFor("HashSet : totUsed <= totLive && maxSize < 9 -> ArraySet");
  ASSERT_TRUE(hasDiag(Diags, "sema-always-true"));
  EXPECT_FALSE(hasErrors(Diags));
}

TEST(Sema, DeadOrBranchWarns) {
  std::vector<Diagnostic> Diags = diagsFor(
      "HashSet : #contains < 0 || maxSize < 9 -> ArraySet");
  EXPECT_TRUE(hasDiag(Diags, "sema-dead-branch"));
  // The other branch is satisfiable, so the rule itself is fine.
  EXPECT_FALSE(hasDiag(Diags, "sema-never-fires"));
}

TEST(Sema, SatisfiableRangeIsSilent) {
  EXPECT_TRUE(
      diagsFor("HashMap : maxSize > 3 && maxSize < 9 -> ArrayMap").empty());
}

TEST(Sema, DivisionFoldsLikeTheEvaluator) {
  // The evaluator defines x/0 = 0, so `maxSize / 0 > 1` can never hold —
  // sema must fold it the same way rather than claim +inf.
  EXPECT_TRUE(hasDiag(
      diagsFor("HashMap : maxSize / 0 > 1 -> ArrayMap"),
      "sema-never-fires"));
}

TEST(Sema, TargetKindMismatchIsError) {
  std::vector<Diagnostic> Diags =
      diagsFor("HashMap : maxSize < 9 -> ArrayList");
  ASSERT_TRUE(hasDiag(Diags, "sema-target-kind-mismatch"));
  EXPECT_TRUE(hasErrors(Diags));
}

TEST(Sema, AdaptableReplacementAcrossKindsIsAllowed) {
  // List -> set-backed impl is a real Table-2 move (contains-heavy
  // ArrayList -> LinkedHashSet); it must not be flagged.
  EXPECT_TRUE(
      diagsFor("ArrayList : #contains > 32 -> LinkedHashSet").empty());
}

TEST(Sema, SelfReplacementWarns) {
  EXPECT_TRUE(hasDiag(
      diagsFor("LinkedList : maxSize < 9 -> LinkedList"),
      "sema-self-replacement"));
}

TEST(Sema, SelfReplacementWithCapacityIsSilent) {
  // Same impl but with a capacity argument actually changes behaviour.
  EXPECT_TRUE(
      diagsFor("ArrayList : maxSize > 9 -> ArrayList(maxSize)").empty());
}

TEST(Sema, ShadowedRuleWarns) {
  std::vector<Diagnostic> Diags =
      diagsFor("Map : maxSize <= 8 -> ArrayMap\n"
               "HashMap : maxSize <= 4 -> ArrayMap");
  EXPECT_TRUE(hasDiag(Diags, "sema-shadowed-rule"));
}

TEST(Sema, DistinctRangesDoNotShadow) {
  EXPECT_TRUE(diagsFor("Map : maxSize <= 4 -> ArrayMap\n"
                       "HashMap : maxSize <= 8 -> ArrayMap")
                  .empty());
}

TEST(Sema, StabilityGateBlocksShadowing) {
  // The later rule bypasses the Definition-3.1 stability gate, so it can
  // fire where the earlier one is suppressed; not a true shadow.
  EXPECT_TRUE(diagsFor("Map : maxSize <= 8 -> ArrayMap\n"
                       "[r2, unstable] HashMap : maxSize <= 4 -> ArrayMap")
                  .empty());
}

TEST(Sema, UnusedParamWarnsOnlyWhenAsked) {
  RuleParams Params;
  Params["X"] = 8;
  Params["orphan"] = 1;
  SemaOptions Opts;
  Opts.Params = &Params;
  std::vector<Diagnostic> Diags =
      diagsFor("HashSet : maxSize < $X -> ArraySet", Opts);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].ID, "sema-unused-param");
  EXPECT_NE(Diags[0].Message.find("orphan"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// RuleEngine integration
//===----------------------------------------------------------------------===//

TEST(SemaEngine, AddRulesOnlyParses) {
  // Sema is lintRuleSource's alone: the engine installs an unsatisfiable
  // rule without a diagnostic and evaluates it like any other.
  SemanticProfiler Profiler;
  RuleEngine Engine;
  ParseResult Result =
      Engine.addRules("[dead] ArrayList : #contains < 0 -> LinkedList");
  EXPECT_TRUE(Result.succeeded());
  EXPECT_TRUE(Result.Diags.empty()) << formatDiagnostics(Result.Diags);
  ASSERT_EQ(Engine.rules().size(), 1u);
  ContextInfo *Info = Profiler.contextForAllocation(
      Profiler.internFrame("site:sema"), Profiler.internFrame("ArrayList"));
  for (unsigned I = 0; I < 8; ++I) {
    ObjectContextInfo Usage;
    Usage.count(OpKind::Contains);
    Usage.noteSize(3);
    Info->recordDeath(Usage);
    Info->recordAllocation(0);
  }
  EXPECT_EQ(Engine.evaluateRule(Engine.rules()[0], *Info, Profiler, nullptr),
            RuleEngine::RuleOutcome::ConditionFalse);
}

//===----------------------------------------------------------------------===//
// Fix-it helpers
//===----------------------------------------------------------------------===//

TEST(SemaFixIts, EditDistance) {
  EXPECT_EQ(editDistance("maxSize", "maxSize"), 0u);
  EXPECT_EQ(editDistance("maxSze", "maxSize"), 1u);
  EXPECT_EQ(editDistance("", "abc"), 3u);
  EXPECT_EQ(editDistance("kitten", "sitting"), 3u);
  // Case-insensitive: 'MAXSIZE' is the same identifier misspelled in caps.
  EXPECT_EQ(editDistance("MAXSIZE", "maxSize"), 0u);
}

TEST(SemaFixIts, SuggestsMetricNames) {
  EXPECT_EQ(suggestMetricName("maxSze"), "maxSize");
  EXPECT_EQ(suggestMetricName("totalLive"), "totLive");
  EXPECT_EQ(suggestMetricName("zzzzqqqq"), "");
}

TEST(SemaFixIts, SuggestsOpNames) {
  EXPECT_EQ(suggestOpName("contian"), "contains");
  EXPECT_EQ(suggestOpName("get(in)"), "get(int)");
}

TEST(SemaFixIts, SuggestsImplAndSourceTypeNames) {
  EXPECT_EQ(suggestImplName("AraySet"), "ArraySet");
  EXPECT_EQ(suggestSourceTypeName("HashMpa"), "HashMap");
}

} // namespace
