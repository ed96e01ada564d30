//===--- ContextInfoTest.cpp - Context statistics unit tests --------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profiler/ContextInfo.h"

#include <gtest/gtest.h>

using namespace chameleon;

namespace {

ObjectContextInfo makeUsage(uint32_t Adds, uint32_t Gets,
                            uint32_t MaxSize) {
  ObjectContextInfo Info;
  for (uint32_t I = 0; I < Adds; ++I)
    Info.count(OpKind::Add);
  for (uint32_t I = 0; I < Gets; ++I)
    Info.count(OpKind::Get);
  Info.noteSize(MaxSize);
  return Info;
}

TEST(ObjectContextInfo, CountsAndSizes) {
  ObjectContextInfo Info;
  Info.count(OpKind::Add);
  Info.count(OpKind::Add);
  Info.count(OpKind::Contains);
  Info.noteSize(2);
  Info.noteSize(5);
  Info.noteSize(3);
  EXPECT_EQ(Info.Counts[opIndex(OpKind::Add)], 2u);
  EXPECT_EQ(Info.Counts[opIndex(OpKind::Contains)], 1u);
  EXPECT_EQ(Info.MaxSize, 5u);
  EXPECT_EQ(Info.CurrentSize, 3u);
  EXPECT_EQ(Info.allOps(), 3u);
}

TEST(ObjectContextInfo, AllOpsExcludesCopiedFrom) {
  ObjectContextInfo Info;
  Info.count(OpKind::CopiedFrom);
  Info.count(OpKind::CopiedInto);
  EXPECT_EQ(Info.allOps(), 1u);
}

TEST(ContextInfo, RecordDeathAggregatesPerInstanceSamples) {
  ContextInfo Info(0, {1, 2}, "HashMap", "HashMap:site");
  ObjectContextInfo A = makeUsage(3, 10, 4);
  ObjectContextInfo B = makeUsage(5, 20, 6);
  Info.recordDeath(A);
  Info.recordDeath(B);
  EXPECT_EQ(Info.foldedInstances(), 2u);
  EXPECT_DOUBLE_EQ(Info.opStat(OpKind::Add).mean(), 4.0);
  EXPECT_DOUBLE_EQ(Info.opStat(OpKind::Get).mean(), 15.0);
  EXPECT_DOUBLE_EQ(Info.maxSizeStat().mean(), 5.0);
  EXPECT_DOUBLE_EQ(Info.totalOps(OpKind::Add), 8.0);
}

TEST(ContextInfo, RecordDeathIsIdempotentPerInstance) {
  ContextInfo Info(0, {1}, "ArrayList", "ArrayList:site");
  ObjectContextInfo A = makeUsage(1, 0, 1);
  Info.recordDeath(A);
  Info.recordDeath(A); // harvest-then-sweep double fold
  EXPECT_EQ(Info.foldedInstances(), 1u);
}

TEST(ContextInfo, RecordAllocationTracksCapacity) {
  ContextInfo Info(0, {1}, "ArrayList", "ArrayList:site");
  Info.recordAllocation(10);
  Info.recordAllocation(20);
  EXPECT_EQ(Info.allocations(), 2u);
  EXPECT_DOUBLE_EQ(Info.initialCapacityStat().mean(), 15.0);
}

TEST(ContextInfo, CycleAccumulationFoldsIntoTotalMax) {
  ContextInfo Info(0, {1}, "HashMap", "HashMap:site");
  CollectionSizes S1{100, 80, 40};
  CollectionSizes S2{60, 50, 20};

  // Two wrappers in cycle 1.
  EXPECT_TRUE(Info.accumulateCycle(1, S1));
  EXPECT_FALSE(Info.accumulateCycle(1, S2));
  Info.finishCycle();

  // One wrapper in cycle 2.
  EXPECT_TRUE(Info.accumulateCycle(2, S1));
  Info.finishCycle();

  EXPECT_EQ(Info.liveData().total(), 260u);
  EXPECT_EQ(Info.liveData().max(), 160u);
  EXPECT_EQ(Info.usedData().total(), 210u); // (80+50) + 80
  EXPECT_EQ(Info.coreData().total(), 100u); // (40+20) + 40
  EXPECT_EQ(Info.liveObjects().total(), 3u);
  EXPECT_EQ(Info.liveObjects().max(), 2u);
}

TEST(ContextInfo, SavingPotentialIsLiveMinusUsed) {
  ContextInfo Info(0, {1}, "HashMap", "HashMap:site");
  Info.accumulateCycle(1, {100, 30, 10});
  Info.finishCycle();
  EXPECT_EQ(Info.savingPotential(), 70u);
}

TEST(ContextInfo, AvgAllOpsSumsOperationMeans) {
  ContextInfo Info(0, {1}, "ArrayList", "ArrayList:site");
  ObjectContextInfo A = makeUsage(2, 4, 3);
  Info.recordDeath(A);
  EXPECT_DOUBLE_EQ(Info.avgAllOps(), 6.0);
}

} // namespace
