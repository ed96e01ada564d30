//===--- SemanticProfilerTest.cpp - Profiler unit tests --------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profiler/SemanticProfiler.h"

#include <gtest/gtest.h>

using namespace chameleon;

namespace {

TEST(SemanticProfiler, InternFrameIsIdempotent) {
  SemanticProfiler P;
  FrameId A = P.internFrame("Foo.bar:10");
  FrameId B = P.internFrame("Foo.bar:10");
  FrameId C = P.internFrame("Foo.baz:20");
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(P.frameName(A), "Foo.bar:10");
}

TEST(SemanticProfiler, CallFramePushesAndPops) {
  SemanticProfiler P;
  EXPECT_EQ(P.stackDepth(), 0u);
  {
    CallFrame F1(P, "a");
    EXPECT_EQ(P.stackDepth(), 1u);
    {
      CallFrame F2(P, "b");
      EXPECT_EQ(P.stackDepth(), 2u);
    }
    EXPECT_EQ(P.stackDepth(), 1u);
  }
  EXPECT_EQ(P.stackDepth(), 0u);
}

TEST(SemanticProfiler, SameSiteSameCallerSameContext) {
  SemanticProfiler P;
  FrameId Site = P.internFrame("site:1");
  FrameId Type = P.internFrame("HashMap");
  CallFrame Caller(P, "caller");
  ContextInfo *A = P.contextForAllocation(Site, Type);
  ContextInfo *B = P.contextForAllocation(Site, Type);
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A, B);
  EXPECT_EQ(P.contexts().size(), 1u);
}

TEST(SemanticProfiler, DifferentCallersSeparateContexts) {
  // The factory motivation of §2.1: same site, different callers.
  SemanticProfiler P;
  FrameId Site = P.internFrame("Factory.make:31");
  FrameId Type = P.internFrame("HashMap");
  ContextInfo *A;
  ContextInfo *B;
  {
    CallFrame Caller(P, "callerA");
    A = P.contextForAllocation(Site, Type);
  }
  {
    CallFrame Caller(P, "callerB");
    B = P.contextForAllocation(Site, Type);
  }
  EXPECT_NE(A, B);
  EXPECT_EQ(P.contexts().size(), 2u);
}

TEST(SemanticProfiler, DifferentTypesSeparateContexts) {
  SemanticProfiler P;
  FrameId Site = P.internFrame("site:1");
  ContextInfo *A = P.contextForAllocation(Site, P.internFrame("HashMap"));
  ContextInfo *B = P.contextForAllocation(Site, P.internFrame("ArrayList"));
  EXPECT_NE(A, B);
}

TEST(SemanticProfiler, ContextDepthBoundsTheKey) {
  ProfilerConfig Config;
  Config.ContextDepth = 2; // site + one caller
  SemanticProfiler P(Config);
  FrameId Site = P.internFrame("site:1");
  FrameId Type = P.internFrame("HashMap");
  ContextInfo *A;
  ContextInfo *B;
  {
    CallFrame Outer(P, "outerA");
    CallFrame Inner(P, "inner");
    A = P.contextForAllocation(Site, Type);
  }
  {
    CallFrame Outer(P, "outerB"); // differs only beyond the depth
    CallFrame Inner(P, "inner");
    B = P.contextForAllocation(Site, Type);
  }
  EXPECT_EQ(A, B) << "frames beyond the partial depth must not split "
                     "contexts";
  EXPECT_EQ(A->frames().size(), 2u);
}

TEST(SemanticProfiler, DisabledProfilerCapturesNothing) {
  ProfilerConfig Config;
  Config.Enabled = false;
  SemanticProfiler P(Config);
  FrameId Site = P.internFrame("site:1");
  EXPECT_EQ(P.contextForAllocation(Site, P.internFrame("HashMap")),
            nullptr);
  EXPECT_EQ(P.contextAcquisitions(), 0u);
}

TEST(SemanticProfiler, SamplingSkipsAllButOneInN) {
  ProfilerConfig Config;
  Config.SamplingPeriod = 4;
  SemanticProfiler P(Config);
  FrameId Site = P.internFrame("site:1");
  FrameId Type = P.internFrame("HashMap");
  unsigned Captured = 0;
  for (int I = 0; I < 100; ++I)
    Captured += P.contextForAllocation(Site, Type) != nullptr;
  EXPECT_EQ(Captured, 25u);
  EXPECT_EQ(P.allocationsSampledOut(), 75u);
}

TEST(SemanticProfiler, ContextLabelHasPaperFormat) {
  SemanticProfiler P;
  FrameId Site = P.internFrame("tvla.util.HashMapFactory:31");
  FrameId Type = P.internFrame("HashMap");
  CallFrame Caller(P, "tvla.core.base.BaseTVS:50");
  ContextInfo *Info = P.contextForAllocation(Site, Type);
  ASSERT_NE(Info, nullptr);
  EXPECT_EQ(Info->label(),
            "HashMap:tvla.util.HashMapFactory:31;tvla.core.base.BaseTVS:50");
}

TEST(SemanticProfiler, HooksAggregateHeapStats) {
  SemanticProfiler P;
  FrameId Site = P.internFrame("site:1");
  ContextInfo *Info = P.contextForAllocation(Site, P.internFrame("HashMap"));
  ASSERT_NE(Info, nullptr);

  HeapObject Dummy(/*Type=*/0, /*ShallowBytes=*/8);
  CollectionSizes Sizes{100, 60, 20};
  P.onLiveCollection(Dummy, Sizes, Info);
  GcCycleRecord Rec;
  Rec.LiveBytes = 500;
  Rec.CollectionLiveBytes = 100;
  Rec.CollectionUsedBytes = 60;
  Rec.CollectionCoreBytes = 20;
  P.onCycleEnd(Rec);

  EXPECT_EQ(Info->liveData().total(), 100u);
  EXPECT_EQ(Info->usedData().total(), 60u);
  EXPECT_EQ(P.heapLiveData().total(), 500u);
  EXPECT_EQ(P.cyclesSeen(), 1u);
}

TEST(SemanticProfiler, DeathHookFoldsObjectInfo) {
  SemanticProfiler P;
  FrameId Site = P.internFrame("site:1");
  ContextInfo *Info = P.contextForAllocation(Site, P.internFrame("HashMap"));
  ObjectContextInfo Usage;
  Usage.count(OpKind::Put);
  Usage.noteSize(3);
  HeapObject Dummy(/*Type=*/0, /*ShallowBytes=*/8);
  P.onCollectionDeath(Dummy, Info, &Usage);
  EXPECT_EQ(Info->foldedInstances(), 1u);
  EXPECT_DOUBLE_EQ(Info->opStat(OpKind::Put).mean(), 1.0);
}

TEST(SemanticProfiler, RankedByPotentialOrdersDescending) {
  SemanticProfiler P;
  FrameId Site = P.internFrame("site:1");
  FrameId Type = P.internFrame("HashMap");
  ContextInfo *Small;
  ContextInfo *Big;
  {
    CallFrame Caller(P, "small");
    Small = P.contextForAllocation(Site, Type);
  }
  {
    CallFrame Caller(P, "big");
    Big = P.contextForAllocation(Site, Type);
  }
  HeapObject Dummy(/*Type=*/0, /*ShallowBytes=*/8);
  P.onLiveCollection(Dummy, {100, 90, 10}, Small); // potential 10
  P.onLiveCollection(Dummy, {100, 20, 10}, Big);   // potential 80
  GcCycleRecord Rec;
  P.onCycleEnd(Rec);

  std::vector<ContextInfo *> Ranked = P.rankedByPotential();
  ASSERT_EQ(Ranked.size(), 2u);
  EXPECT_EQ(Ranked[0], Big);
  EXPECT_EQ(Ranked[1], Small);
}

TEST(SemanticProfiler, FastPathHitsOnRepeatedCapture) {
  SemanticProfiler P;
  FrameId Site = P.internFrame("site:1");
  FrameId Type = P.internFrame("HashMap");
  CallFrame Caller(P, "caller");
  ContextInfo *First = P.contextForAllocation(Site, Type);
  uint64_t MissesAfterFirst = P.contextCacheMisses();
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(P.contextForAllocation(Site, Type), First);
  EXPECT_EQ(P.contextCacheHits(), 100u);
  EXPECT_EQ(P.contextCacheMisses(), MissesAfterFirst);
}

TEST(SemanticProfiler, FastPathMatchesSlowPathAcrossStacks) {
  // The same capture sequence with the cache on and off must produce the
  // same set of contexts with the same frame vectors — the fingerprint
  // cache is purely a performance knob.
  auto Capture = [](bool FastPath) {
    ProfilerConfig Config;
    Config.ContextFastPath = FastPath;
    SemanticProfiler P(Config);
    FrameId Site = P.internFrame("Factory.make:31");
    FrameId Type = P.internFrame("HashMap");
    std::vector<std::string> Labels;
    for (int Round = 0; Round < 3; ++Round) {
      for (int CallerIdx = 0; CallerIdx < 5; ++CallerIdx) {
        CallFrame Outer(P, "outer" + std::to_string(CallerIdx));
        Labels.push_back(
            P.contextForAllocation(Site, Type)->label());
        {
          CallFrame Inner(P, "inner");
          Labels.push_back(
              P.contextForAllocation(Site, Type)->label());
        }
        // Same depth again after the pop: must re-match the outer context.
        Labels.push_back(
            P.contextForAllocation(Site, Type)->label());
      }
    }
    return std::make_pair(Labels, P.contexts().size());
  };
  auto [FastLabels, FastCount] = Capture(true);
  auto [SlowLabels, SlowCount] = Capture(false);
  EXPECT_EQ(FastLabels, SlowLabels);
  EXPECT_EQ(FastCount, SlowCount);
}

TEST(SemanticProfiler, FastPathDistinguishesSiblingStacks) {
  // Stacks that agree on the top frames but differ deeper still hit the
  // correct context: the fingerprint covers the whole stack, so each deep
  // variant occupies its own cache line yet maps to the same ContextInfo.
  ProfilerConfig Config;
  Config.ContextDepth = 2;
  SemanticProfiler P(Config);
  FrameId Site = P.internFrame("site:1");
  FrameId Type = P.internFrame("ArrayList");
  ContextInfo *FromA;
  ContextInfo *FromB;
  {
    CallFrame Deep(P, "deepA");
    CallFrame Caller(P, "caller");
    FromA = P.contextForAllocation(Site, Type);
  }
  {
    CallFrame Deep(P, "deepB");
    CallFrame Caller(P, "caller");
    FromB = P.contextForAllocation(Site, Type);
  }
  // Depth 2 keys on (site, caller) only, so both stacks share a context.
  EXPECT_EQ(FromA, FromB);
  {
    CallFrame Deep(P, "deepA");
    CallFrame Caller(P, "caller");
    EXPECT_EQ(P.contextForAllocation(Site, Type), FromA);
  }
  EXPECT_GE(P.contextCacheHits(), 1u);
}

TEST(SemanticProfiler, FingerprintTracksPushPop) {
  SemanticProfiler P;
  uint64_t Empty = P.stackFingerprint();
  FrameId A = P.internFrame("a");
  FrameId B = P.internFrame("b");
  P.pushFrame(A);
  uint64_t AfterA = P.stackFingerprint();
  EXPECT_NE(AfterA, Empty);
  P.pushFrame(B);
  EXPECT_NE(P.stackFingerprint(), AfterA);
  P.popFrame();
  EXPECT_EQ(P.stackFingerprint(), AfterA);
  P.popFrame();
  EXPECT_EQ(P.stackFingerprint(), Empty);
}

} // namespace
