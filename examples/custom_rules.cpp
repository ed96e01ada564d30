//===--- custom_rules.cpp - Writing selection rules in the DSL -*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shows the rule language of paper Fig. 4: writing custom implementation-
/// selection rules over the Table-1 metrics, what the diagnostics look
/// like when a rule is malformed, and how a custom rule drives the
/// automatic replacement step.
///
//===----------------------------------------------------------------------===//

#include "core/Chameleon.h"
#include "support/Diagnostics.h"

#include <cstdio>
#include <vector>

using namespace chameleon;

/// A program whose sets see heavy addAll traffic into large aggregates.
static void aggregatorProgram(CollectionRuntime &RT) {
  FrameId PieceSite = RT.site("Agg.makePiece:20");
  FrameId TotalSite = RT.site("Agg.makeTotal:30");
  CallFrame Main(RT.profiler(), "Agg.main");
  std::vector<Set> Totals;
  for (int Round = 0; Round < 200; ++Round) {
    Set Total = RT.newHashSet(TotalSite);
    for (int P = 0; P < 6; ++P) {
      Set Piece = RT.newHashSet(PieceSite);
      for (int E = 0; E < 4; ++E)
        Piece.add(Value::ofInt(Round * 64 + P * 8 + E));
      Total.addAll(Piece);
    }
    Totals.push_back(std::move(Total));
    if (Totals.size() > 50)
      Totals.erase(Totals.begin());
  }
}

int main() {
  std::printf("== custom selection rules ==\n\n");

  // First: what a malformed rule reports. The parser recovers and keeps
  // the well-formed rules.
  {
    rules::RuleEngine Engine;
    rules::ParseResult Bad = Engine.addRules(R"(
      HashSet : #frobnicate > 3 -> ArraySet
      HashSet : maxSize < 9 -> ArraySet
    )");
    std::printf("diagnostics for a malformed rule file:\n%s\n",
                formatDiagnostics(Bad.Diags).c_str());
    std::printf("rules that still parsed: %zu\n\n", Engine.rules().size());
  }

  // Second: a custom policy. Pieces that exist only to be poured into an
  // aggregate should be ArraySets sized to their content (they are tiny
  // and never queried), and the aggregates deserve a tuned capacity.
  Chameleon Tool;
  rules::ParseResult P = Tool.engine().addRules(R"(
    // Pieces: copied into aggregates, never searched.
    [tiny-pieces] HashSet : #copied > 0 && #contains == 0 && maxSize <= 8
        -> ArraySet(maxSize)
      "Space: aggregation pieces need no hash structure"
    // Aggregates: grow well past the default capacity of 16.
    [aggregates] HashSet : maxSize > initialCapacity -> setCapacity(maxSize)
      "Space/Time: pre-size the aggregate"
  )");
  if (!P.succeeded()) {
    std::printf("unexpected diagnostics:\n%s",
                formatDiagnostics(P.Diags).c_str());
    return 1;
  }

  // The built-in Table-2 rules fire too; keep only our two, for a clean
  // demo, and build the report and the plan from them alone.
  RunResult R = Tool.profile(aggregatorProgram);
  std::vector<rules::Suggestion> Ours;
  for (const rules::Suggestion &S : R.Suggestions)
    if (S.RuleName == "tiny-pieces" || S.RuleName == "aggregates")
      Ours.push_back(S);
  std::printf("-- suggestions from the custom rules --\n%s\n",
              rules::RuleEngine::renderReport(Ours).c_str());

  ReplacementPlan Plan = rules::RuleEngine::buildPlan(Ours);
  RunResult After = Tool.run(aggregatorProgram, &Plan, 0,
                             /*EvaluateRules=*/true);
  std::printf("allocated bytes: %llu -> %llu\n",
              static_cast<unsigned long long>(R.TotalAllocatedBytes),
              static_cast<unsigned long long>(After.TotalAllocatedBytes));
  return 0;
}
