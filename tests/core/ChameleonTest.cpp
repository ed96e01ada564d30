//===--- ChameleonTest.cpp - Tool facade integration tests ----------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests of the paper's methodology (§5.2) on a small synthetic
/// program: profile, get suggestions, apply the plan automatically, and
/// verify the space effect — including the minimal-heap-size bisection.
///
//===----------------------------------------------------------------------===//

#include "core/Chameleon.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace chameleon;

namespace {

/// Small-HashMap-heavy program: the TVLA pathology in miniature.
void smallMapProgram(CollectionRuntime &RT) {
  FrameId Site = RT.site("Mini.makeMap:1");
  CallFrame Main(RT.profiler(), "Mini.main");
  std::vector<Map> Live;
  for (int I = 0; I < 600; ++I) {
    if (RT.heap().outOfMemory())
      return;
    Map M = RT.newHashMap(Site);
    for (int E = 0; E < 3; ++E)
      M.put(Value::ofInt(E), Value::ofInt(I));
    for (int Q = 0; Q < 8; ++Q)
      (void)M.get(Value::ofInt(Q % 3));
    Live.push_back(std::move(M));
    if (Live.size() > 300)
      Live.erase(Live.begin());
  }
}

TEST(Chameleon, ProfileProducesSuggestionsAndPlan) {
  Chameleon Tool;
  RunResult R = Tool.profile(smallMapProgram, /*HeapLimit=*/1 << 20);
  EXPECT_TRUE(R.Completed);
  EXPECT_GT(R.GcCycles, 0u);
  EXPECT_GT(R.PeakLiveBytes, 0u);
  ASSERT_FALSE(R.Suggestions.empty());
  EXPECT_EQ(R.Suggestions[0].NewImpl, ImplKind::ArrayMap);
  EXPECT_FALSE(R.Plan.empty());
  EXPECT_NE(R.Report.find("replace with ArrayMap"), std::string::npos);
}

TEST(Chameleon, AppliedPlanShrinksTheHeap) {
  Chameleon Tool;
  RunResult Before = Tool.profile(smallMapProgram, 1 << 20);
  RunResult After =
      Tool.run(smallMapProgram, &Before.Plan, /*HeapLimit=*/1 << 20,
               /*EvaluateRules=*/true);
  ASSERT_TRUE(After.Completed);
  EXPECT_LT(After.PeakLiveBytes, Before.PeakLiveBytes);
  EXPECT_LT(After.TotalAllocatedBytes, Before.TotalAllocatedBytes);
}

TEST(Chameleon, MeasurementRunsCarryNoInstrumentationSpace) {
  Chameleon Tool;
  RunResult Instrumented =
      Tool.run(smallMapProgram, nullptr, 2 << 20, /*EvaluateRules=*/true);
  RunResult Bare =
      Tool.run(smallMapProgram, nullptr, 2 << 20, /*EvaluateRules=*/false);
  EXPECT_LT(Bare.TotalAllocatedBytes, Instrumented.TotalAllocatedBytes);
}

TEST(Chameleon, MinimalHeapBisectionIsConsistent) {
  Chameleon Tool;
  uint64_t Min = Tool.findMinimalHeap(smallMapProgram, nullptr, 16 << 10,
                                      4 << 20, 8 << 10);
  EXPECT_GT(Min, static_cast<uint64_t>(16) << 10);
  EXPECT_LT(Min, static_cast<uint64_t>(4) << 20);
  // The found limit completes; a clearly smaller one does not.
  EXPECT_TRUE(Tool.run(smallMapProgram, nullptr, Min).Completed);
  EXPECT_FALSE(
      Tool.run(smallMapProgram, nullptr, Min / 2).Completed);
}

TEST(Chameleon, MinimalHeapImprovesWithThePlan) {
  Chameleon Tool;
  RunResult Profiled = Tool.profile(smallMapProgram, 1 << 20);
  uint64_t Before = Tool.findMinimalHeap(smallMapProgram, nullptr,
                                         16 << 10, 4 << 20, 8 << 10);
  uint64_t After = Tool.findMinimalHeap(smallMapProgram, &Profiled.Plan,
                                        16 << 10, 4 << 20, 8 << 10);
  // ArrayMap + tuned capacity should cut the footprint deeply (the paper
  // reports ~50% for TVLA's analogous fix).
  EXPECT_LT(After, (Before * 3) / 4);
}

TEST(Chameleon, CustomRulesExtendTheEngine) {
  Chameleon Tool;
  rules::ParseResult P = Tool.engine().addRules(
      "[everything-lazy] Map : allocCount >= 1 -> LazyMap "
      "\"Space: custom policy\"");
  ASSERT_TRUE(P.succeeded()) << formatDiagnostics(P.Diags);
  RunResult R = Tool.profile(smallMapProgram, 1 << 20);
  // The built-in rules fire too; find the custom one by name.
  auto It = std::find_if(R.Suggestions.begin(), R.Suggestions.end(),
                         [](const rules::Suggestion &S) {
                           return S.RuleName == "everything-lazy";
                         });
  ASSERT_NE(It, R.Suggestions.end());
  EXPECT_EQ(It->NewImpl, ImplKind::LazyMap);
}

TEST(Chameleon, ScreeningFlagsWastefulPrograms) {
  Chameleon Tool;
  RunResult R = Tool.profile(smallMapProgram, 1 << 20);
  ScreeningResult S = screenPotential(R, /*Threshold=*/0.05);
  EXPECT_GT(S.CollectionLiveShare, S.CollectionUsedShare);
  EXPECT_GT(S.PotentialShare, 0.05);
  EXPECT_TRUE(S.WorthOptimizing);
  EXPECT_NEAR(S.PotentialShare,
              S.CollectionLiveShare - S.CollectionUsedShare, 1e-12);
}

TEST(Chameleon, ScreeningPassesWellShapedPrograms) {
  // Exactly-sized, fully used lists: nothing to save.
  auto Tidy = [](CollectionRuntime &RT) {
    FrameId Site = RT.site("Tidy.make:1");
    std::vector<List> Live;
    for (int I = 0; I < 400; ++I) {
      List L = RT.newArrayList(Site, 4);
      for (int E = 0; E < 4; ++E)
        L.add(Value::ofInt(E));
      Live.push_back(std::move(L));
      if (Live.size() > 200)
        Live.erase(Live.begin());
    }
  };
  Chameleon Tool;
  RunResult R = Tool.profile(Tidy, 1 << 20);
  ScreeningResult S = screenPotential(R, 0.05);
  EXPECT_FALSE(S.WorthOptimizing);
  EXPECT_LT(S.PotentialShare, 0.05);
}

TEST(Chameleon, ScreeningOfEmptyRunIsZero) {
  RunResult Empty;
  ScreeningResult S = screenPotential(Empty);
  EXPECT_DOUBLE_EQ(S.PotentialShare, 0.0);
  EXPECT_FALSE(S.WorthOptimizing);
}

TEST(Chameleon, RunResultCarriesTheCycleSeries) {
  Chameleon Tool;
  RunResult R = Tool.profile(smallMapProgram, 1 << 20);
  ASSERT_FALSE(R.Cycles.empty());
  // Collections dominate this program's live data.
  const GcCycleRecord &Last = R.Cycles.back();
  EXPECT_GT(Last.collectionLiveFraction(), 0.5);
  EXPECT_GE(Last.collectionLiveFraction(), Last.collectionUsedFraction());
  EXPECT_GE(Last.collectionUsedFraction(), Last.collectionCoreFraction());
}

} // namespace
