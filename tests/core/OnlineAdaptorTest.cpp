//===--- OnlineAdaptorTest.cpp - Online selection tests --------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the fully-automatic mode (§3.3.2/§5.4): decisions are made at
/// allocation time from the profile so far, after a warm-up, and the
/// replacement is visible in the backing implementation of later
/// allocations.
///
//===----------------------------------------------------------------------===//

#include "core/OnlineAdaptor.h"

#include "core/Chameleon.h"

#include <gtest/gtest.h>

using namespace chameleon;

namespace {

/// Allocates small get-dominated HashMaps that die quickly; the online
/// adaptor should start redirecting them to ArrayMap after warm-up.
void churnSmallMaps(CollectionRuntime &RT, int Count,
                    std::vector<ImplKind> *BackingLog = nullptr) {
  FrameId Site = RT.site("Online.makeMap:1");
  for (int I = 0; I < Count; ++I) {
    Map M = RT.newHashMap(Site);
    for (int E = 0; E < 3; ++E)
      M.put(Value::ofInt(E), Value::ofInt(I));
    (void)M.get(Value::ofInt(0));
    if (BackingLog)
      BackingLog->push_back(M.backing());
    // M dies here; sweep-time folding feeds the context's profile.
    if (I % 16 == 15)
      RT.heap().collect(/*Forced=*/true);
  }
}

TEST(OnlineAdaptor, RedirectsAfterWarmup) {
  rules::RuleEngine Engine;
  Engine.addBuiltinRules();
  CollectionRuntime RT;
  OnlineAdaptor Adaptor(Engine, RT.profiler());
  RT.setOnlineSelector(&Adaptor);

  std::vector<ImplKind> Log;
  churnSmallMaps(RT, 200, &Log);

  EXPECT_EQ(Log.front(), ImplKind::HashMap)
      << "no decision before any instance died";
  EXPECT_EQ(Log.back(), ImplKind::ArrayMap)
      << "warm profile must redirect the allocation";
  EXPECT_GT(Adaptor.replacements(), 0u);
  EXPECT_GT(Adaptor.evaluations(), 0u);
}

TEST(OnlineAdaptor, NoDecisionWithoutContext) {
  rules::RuleEngine Engine;
  Engine.addBuiltinRules();
  RuntimeConfig RtConfig;
  RtConfig.Profiler.Enabled = false;
  CollectionRuntime RT(RtConfig);
  OnlineAdaptor Adaptor(Engine, RT.profiler());
  RT.setOnlineSelector(&Adaptor);

  std::vector<ImplKind> Log;
  churnSmallMaps(RT, 50, &Log);
  for (ImplKind Kind : Log)
    EXPECT_EQ(Kind, ImplKind::HashMap);
  EXPECT_EQ(Adaptor.replacements(), 0u);
}

TEST(OnlineAdaptor, DecisionsAreCachedBetweenReevaluations) {
  rules::RuleEngine Engine;
  Engine.addBuiltinRules();
  CollectionRuntime RT;
  OnlineAdaptor Adaptor(Engine, RT.profiler());
  RT.setOnlineSelector(&Adaptor);

  // 300 allocations: one evaluation after warm-up, at most one more
  // ReevaluatePeriod (256) allocations later.
  churnSmallMaps(RT, 300);
  EXPECT_LE(Adaptor.evaluations(), 3u);
}

TEST(OnlineAdaptor, DriftingContextsAreReevaluated) {
  // §3.3.2 "Lack of Stability": a context whose behaviour changes (e.g.
  // different program phases) must not stay pinned to an early decision.
  rules::RuleEngine Engine;
  Engine.addBuiltinRules();
  CollectionRuntime RT;
  OnlineAdaptor Adaptor(Engine, RT.profiler());
  RT.setOnlineSelector(&Adaptor);

  FrameId Site = RT.site("Drift.makeMap:1");
  auto Churn = [&](int Count, int Entries,
                   std::vector<ImplKind> *Log) {
    for (int I = 0; I < Count; ++I) {
      Map M = RT.newHashMap(Site);
      for (int E = 0; E < Entries; ++E)
        M.put(Value::ofInt(E), Value::ofInt(I));
      if (Log)
        Log->push_back(M.backing());
      if (I % 16 == 15)
        RT.heap().collect(true);
    }
  };

  // Phase 1: small maps -> the adaptor converges on ArrayMap.
  std::vector<ImplKind> Phase1;
  Churn(200, 3, &Phase1);
  ASSERT_EQ(Phase1.back(), ImplKind::ArrayMap);

  // Phase 2: the same context starts making big maps. The mixed profile
  // destabilises maxSize, the small-hashmap rule stops firing, and the
  // re-evaluated decision falls back to the requested HashMap.
  std::vector<ImplKind> Phase2;
  Churn(600, 300, &Phase2);
  EXPECT_EQ(Phase2.back(), ImplKind::HashMap)
      << "the adaptor must abandon the stale ArrayMap decision";
}

TEST(OnlineAdaptor, FacadeOnlineModeMatchesManualSpace) {
  // §5.4: "the space saving achieved was identical to the one we got with
  // the manual modification" — online and plan-applied runs should land
  // close on allocation volume.
  Chameleon Tool;
  auto Program = [](CollectionRuntime &RT) { churnSmallMaps(RT, 400); };

  RunResult Profiled = Tool.profile(Program);
  RunResult Planned = Tool.run(Program, &Profiled.Plan, 0,
                               /*EvaluateRules=*/true);
  RunResult Online = Tool.profileOnline(Program);

  EXPECT_GT(Online.OnlineReplacements, 0u);
  EXPECT_LT(Online.TotalAllocatedBytes, Profiled.TotalAllocatedBytes);
  // Online pays a short warm-up of unconverted allocations; allow slack.
  double Ratio = static_cast<double>(Online.TotalAllocatedBytes)
                 / static_cast<double>(Planned.TotalAllocatedBytes);
  EXPECT_LT(Ratio, 1.25);
}

} // namespace
