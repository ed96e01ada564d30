//===--- AppConfigTest.cpp - Scaled workload configuration tests ----------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulacra are size-parameterised; these tests run each at a small
/// scale through its typed config (not the registry defaults), checking
/// determinism and that the pathology each encodes still registers in the
/// profile at small sizes.
///
//===----------------------------------------------------------------------===//

#include "apps/BloatSim.h"
#include "apps/FindbugsSim.h"
#include "apps/FopSim.h"
#include "apps/NeutralSim.h"
#include "apps/PmdSim.h"
#include "apps/SootSim.h"
#include "apps/TvlaSim.h"
#include "core/Chameleon.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace chameleon;
using namespace chameleon::apps;

namespace {

RuntimeConfig smallConfig() {
  RuntimeConfig Config;
  Config.GcSampleEveryBytes = 64 * 1024;
  return Config;
}

TEST(AppConfig, TvlaScalesDown) {
  TvlaConfig Config;
  Config.NumStates = 200;
  Config.LiveWindow = 150;
  CollectionRuntime RT(smallConfig());
  runTvla(RT, Config);
  RT.harvestLiveStatistics();
  // 7 factory contexts + worklist + constraints + vocabulary.
  EXPECT_GE(RT.profiler().contexts().size(), 9u);
  EXPECT_FALSE(RT.heap().outOfMemory());
  std::string Error;
  EXPECT_TRUE(RT.heap().verifyHeap(&Error)) << Error;
}

TEST(AppConfig, TvlaIsDeterministicAcrossRuns) {
  auto Run = [] {
    TvlaConfig Config;
    Config.NumStates = 150;
    CollectionRuntime RT(smallConfig());
    runTvla(RT, Config);
    return RT.heap().totalAllocatedBytes();
  };
  EXPECT_EQ(Run(), Run());
}

TEST(AppConfig, BloatSpikePhaseScales) {
  BloatConfig Config;
  Config.Phases = 4;
  Config.NodesPerPhase = 150;
  Config.SpikePhase = 2;
  Config.SpikeMultiplier = 4;
  CollectionRuntime RT(smallConfig());
  runBloat(RT, Config);
  // The never-used Defs/ExcHandlers contexts must exist with zero ops.
  bool SawNeverUsed = false;
  for (const ContextInfo *Info : RT.profiler().contexts())
    if (Info->typeName() == "LinkedList" && Info->allocations() > 100)
      SawNeverUsed = true;
  EXPECT_TRUE(SawNeverUsed);
}

TEST(AppConfig, SootSingletonFractionIsRespected) {
  SootConfig Config;
  Config.Methods = 40;
  Config.BranchFraction = 1.0; // every statement is a branch
  CollectionRuntime RT(smallConfig());
  runSoot(RT, Config);
  RT.harvestLiveStatistics();
  const ContextInfo *CondBox = nullptr;
  for (const ContextInfo *Info : RT.profiler().contexts())
    if (Info->label().find("JIfStmt") != std::string::npos)
      CondBox = Info;
  ASSERT_NE(CondBox, nullptr);
  EXPECT_EQ(CondBox->allocations(),
            static_cast<uint64_t>(Config.Methods)
                * Config.StmtsPerMethod);
  EXPECT_DOUBLE_EQ(CondBox->maxSizeStat().mean(), 1.0);
  EXPECT_DOUBLE_EQ(CondBox->maxSizeStat().stddev(), 0.0);
}

TEST(AppConfig, FindbugsAnnotationEmptinessTracksConfig) {
  FindbugsConfig Config;
  Config.Classes = 120;
  Config.NoAnnotationsFraction = 1.0; // all annotation maps stay empty
  CollectionRuntime RT(smallConfig());
  runFindbugs(RT, Config);
  RT.harvestLiveStatistics();
  for (const ContextInfo *Info : RT.profiler().contexts()) {
    if (Info->label().find("getAnnotations") == std::string::npos)
      continue;
    EXPECT_DOUBLE_EQ(Info->maxSizeStat().mean(), 0.0);
    EXPECT_DOUBLE_EQ(Info->maxSizeStat().max(), 0.0);
  }
}

TEST(AppConfig, PmdChildListCapacityIsTheMistakenOne) {
  PmdConfig Config;
  Config.Files = 6;
  Config.NodesPerFile = 40;
  Config.SymbolsPerSet = 400;
  Config.MistakenCapacity = 17;
  CollectionRuntime RT(smallConfig());
  runPmd(RT, Config);
  RT.harvestLiveStatistics();
  const ContextInfo *Children = nullptr;
  for (const ContextInfo *Info : RT.profiler().contexts())
    if (Info->label().find("SimpleNode") != std::string::npos)
      Children = Info;
  ASSERT_NE(Children, nullptr);
  EXPECT_DOUBLE_EQ(Children->initialCapacityStat().mean(), 17.0);
}

TEST(AppConfig, NeutralAppScreensOutAndStaysSuggestionFree) {
  // §5.1: applications without collection waste produce no suggestions
  // and fail the potential screen.
  NeutralConfig Config;
  Config.GrammarRules = 150;
  Chameleon Tool;
  RunResult R = Tool.profile(
      [&](CollectionRuntime &RT) { runNeutral(RT, Config); }, 4 << 20);
  EXPECT_TRUE(R.Completed);
  for (const rules::Suggestion &S : R.Suggestions)
    EXPECT_EQ(S.Action, rules::ActionKind::Warn)
        << "unexpected actionable suggestion from " << S.RuleName;
  ScreeningResult Screen = screenPotential(R, 0.04);
  EXPECT_FALSE(Screen.WorthOptimizing);
}

TEST(AppConfig, FopGlyphBytesShapeTheCollectionShare) {
  auto CollectionShare = [](uint32_t GlyphBytes) {
    FopConfig Config;
    Config.Pages = 6;
    Config.GlyphBytesPerArea = GlyphBytes;
    CollectionRuntime RT(smallConfig());
    runFop(RT, Config);
    // The area tree lives only inside runFop, so sample the share from
    // the cycles recorded while it ran.
    double Max = 0;
    for (const GcCycleRecord &Rec : RT.heap().cycles())
      Max = std::max(Max, Rec.collectionLiveFraction());
    return Max;
  };
  // More non-collection payload -> smaller collection share.
  EXPECT_GT(CollectionShare(100), CollectionShare(4000));
}

} // namespace
