//===--- GcHeapTest.cpp - Managed heap and collector unit tests ----------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/GcHeap.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

using namespace chameleon;
using namespace chameleon::testing;

namespace {

struct GcHeapTest : ::testing::Test {
  GcHeap Heap;
  TypeId NodeType = registerNodeType(Heap);
};

/// A heap with a 1024-byte limit, and its node type.
struct LimitedHeap {
  GcHeap Heap{MemoryModel::jvm32(), /*HeapLimitBytes=*/1024};
  TypeId NodeType = registerNodeType(Heap);
};

TEST_F(GcHeapTest, AllocateTracksBytesAndObjects) {
  EXPECT_EQ(Heap.bytesInUse(), 0u);
  ObjectRef A = allocNode(Heap, NodeType, 0, 24);
  ObjectRef B = allocNode(Heap, NodeType, 0, 40);
  (void)A;
  (void)B;
  EXPECT_EQ(Heap.bytesInUse(), 64u);
  EXPECT_EQ(Heap.objectsInUse(), 2u);
  EXPECT_EQ(Heap.totalAllocatedBytes(), 64u);
  EXPECT_EQ(Heap.totalAllocatedObjects(), 2u);
}

TEST_F(GcHeapTest, SelfRefIsStable) {
  ObjectRef A = allocNode(Heap, NodeType, 0);
  EXPECT_EQ(Heap.get(A).self(), A);
}

TEST_F(GcHeapTest, UnrootedObjectsAreSwept) {
  allocNode(Heap, NodeType, 0, 16);
  allocNode(Heap, NodeType, 0, 16);
  const GcCycleRecord &Rec = Heap.collect(/*Forced=*/true);
  EXPECT_EQ(Rec.FreedObjects, 2u);
  EXPECT_EQ(Rec.FreedBytes, 32u);
  EXPECT_EQ(Rec.LiveObjects, 0u);
  EXPECT_EQ(Heap.bytesInUse(), 0u);
}

TEST_F(GcHeapTest, RootedObjectsSurvive) {
  ObjectRef A = allocNode(Heap, NodeType, 0, 16);
  Handle Root(Heap, A);
  allocNode(Heap, NodeType, 0, 16); // garbage
  const GcCycleRecord &Rec = Heap.collect(true);
  EXPECT_EQ(Rec.LiveObjects, 1u);
  EXPECT_EQ(Rec.FreedObjects, 1u);
  EXPECT_EQ(Heap.get(A).shallowBytes(), 16u);
}

TEST_F(GcHeapTest, ReachabilityIsTransitive) {
  ObjectRef A = allocNode(Heap, NodeType, 1);
  ObjectRef B = allocNode(Heap, NodeType, 1);
  ObjectRef C = allocNode(Heap, NodeType, 0);
  Heap.getAs<Node>(A).setRef(0, B);
  Heap.getAs<Node>(B).setRef(0, C);
  Handle Root(Heap, A);
  const GcCycleRecord &Rec = Heap.collect(true);
  EXPECT_EQ(Rec.LiveObjects, 3u);
  EXPECT_EQ(Rec.FreedObjects, 0u);
}

TEST_F(GcHeapTest, CyclesAreCollected) {
  ObjectRef A = allocNode(Heap, NodeType, 1);
  ObjectRef B = allocNode(Heap, NodeType, 1);
  Heap.getAs<Node>(A).setRef(0, B);
  Heap.getAs<Node>(B).setRef(0, A);
  const GcCycleRecord &Rec = Heap.collect(true);
  EXPECT_EQ(Rec.FreedObjects, 2u);
}

TEST_F(GcHeapTest, DeepChainDoesNotOverflowTheStack) {
  // The marker must be iterative: a recursive tracer would overflow on a
  // long linked chain.
  ObjectRef Head = allocNode(Heap, NodeType, 1);
  Handle Root(Heap, Head);
  ObjectRef Prev = Head;
  for (int I = 0; I < 200000; ++I) {
    ObjectRef Next = allocNode(Heap, NodeType, 1);
    Heap.getAs<Node>(Prev).setRef(0, Next);
    Prev = Next;
  }
  const GcCycleRecord &Rec = Heap.collect(true);
  EXPECT_EQ(Rec.LiveObjects, 200001u);
}

TEST_F(GcHeapTest, SlotReuseAfterSweep) {
  ObjectRef A = allocNode(Heap, NodeType, 0);
  uint32_t OldSlot = A.slot();
  Heap.collect(true); // sweeps A
  ObjectRef B = allocNode(Heap, NodeType, 0);
  EXPECT_EQ(B.slot(), OldSlot);
}

TEST_F(GcHeapTest, TempRootsProtectAcrossCollections) {
  ObjectRef A = allocNode(Heap, NodeType, 0);
  {
    TempRootScope Guard(Heap, A);
    const GcCycleRecord &Rec = Heap.collect(true);
    EXPECT_EQ(Rec.LiveObjects, 1u);
  }
  const GcCycleRecord &Rec = Heap.collect(true);
  EXPECT_EQ(Rec.FreedObjects, 1u);
}

TEST_F(GcHeapTest, PressureCollectionTriggersAtTheLimit) {
  LimitedHeap L;
  // Allocate garbage past the limit; pressure GCs keep reclaiming it.
  for (int I = 0; I < 100; ++I)
    allocNode(L.Heap, L.NodeType, 0, 64);
  EXPECT_FALSE(L.Heap.outOfMemory());
  EXPECT_GT(L.Heap.cycleCount(), 0u);
}

TEST_F(GcHeapTest, OutOfMemoryWhenLiveExceedsLimit) {
  LimitedHeap L;
  std::vector<Handle> Roots;
  for (int I = 0; I < 100 && !L.Heap.outOfMemory(); ++I)
    Roots.emplace_back(L.Heap, allocNode(L.Heap, L.NodeType, 0, 64));
  EXPECT_TRUE(L.Heap.outOfMemory());
}

TEST_F(GcHeapTest, MinFreeFractionFailsTightHeapsFast) {
  // After a pressure collection, the allocation it serves must leave
  // MinFreeFraction of the limit free: 102 of 1024 bytes.
  EXPECT_EQ(static_cast<uint64_t>(GcHeap::MinFreeFraction * 1024), 102u);
  // Roots \p Rooted 64-byte nodes, then allocates 64-byte garbage until
  // the first pressure collection, which keeps exactly the rooted nodes.
  auto OomAfterPressureCollection = [](unsigned Rooted) {
    LimitedHeap L;
    std::vector<Handle> Roots;
    for (unsigned I = 0; I < Rooted; ++I)
      Roots.emplace_back(L.Heap, allocNode(L.Heap, L.NodeType, 0, 64));
    for (int I = 0; I < 16 && L.Heap.cycleCount() == 0; ++I)
      allocNode(L.Heap, L.NodeType, 0, 64);
    EXPECT_EQ(L.Heap.cycleCount(), 1u);
    if (!L.Heap.cycles().empty()) {
      EXPECT_EQ(L.Heap.cycles().back().LiveObjects, Rooted);
    }
    return L.Heap.outOfMemory();
  };
  // 13 live nodes plus the new one leave 1024 - 14 * 64 = 128 bytes free.
  EXPECT_FALSE(OomAfterPressureCollection(13));
  // 14 live nodes plus the new one leave 64 bytes, under 102: out of
  // memory although the live data fits.
  EXPECT_TRUE(OomAfterPressureCollection(14));
}

TEST_F(GcHeapTest, ForcedCyclesAreMarkedForced) {
  Heap.collect(true);
  Heap.collect(false);
  ASSERT_EQ(Heap.cycles().size(), 2u);
  EXPECT_TRUE(Heap.cycles()[0].Forced);
  EXPECT_FALSE(Heap.cycles()[1].Forced);
  EXPECT_EQ(Heap.cycles()[0].Cycle, 1u);
  EXPECT_EQ(Heap.cycles()[1].Cycle, 2u);
}

TEST_F(GcHeapTest, SamplingGcFiresByAllocationVolume) {
  Heap.setGcSampleEveryBytes(1024);
  for (int I = 0; I < 100; ++I)
    allocNode(Heap, NodeType, 0, 64); // 6400 bytes total
  EXPECT_GE(Heap.cycleCount(), 5u);
  EXPECT_LE(Heap.cycleCount(), 7u);
  for (const GcCycleRecord &Rec : Heap.cycles())
    EXPECT_TRUE(Rec.Forced);
}

TEST_F(GcHeapTest, ForEachObjectVisitsAllAllocated) {
  allocNode(Heap, NodeType, 0);
  allocNode(Heap, NodeType, 0);
  unsigned Count = 0;
  Heap.forEachObject([&](HeapObject &) { ++Count; });
  EXPECT_EQ(Count, 2u);
}

TEST_F(GcHeapTest, TypeDistributionRecordedWhenEnabled) {
  Heap.setRecordTypeDistribution(true);
  TypeId Other = registerNodeType(Heap, "Other");
  Handle R1(Heap, allocNode(Heap, NodeType, 0, 16));
  Handle R2(Heap, allocNode(Heap, Other, 0, 32));
  const GcCycleRecord &Rec = Heap.collect(true);
  ASSERT_EQ(Rec.TypeDistribution.size(), 2u);
  uint64_t NodeBytes = 0, OtherBytes = 0;
  for (auto &[Type, Bytes] : Rec.TypeDistribution) {
    if (Type == NodeType)
      NodeBytes = Bytes;
    if (Type == Other)
      OtherBytes = Bytes;
  }
  EXPECT_EQ(NodeBytes, 16u);
  EXPECT_EQ(OtherBytes, 32u);
}

TEST_F(GcHeapTest, VerifyHeapAcceptsAConsistentHeap) {
  ObjectRef A = allocNode(Heap, NodeType, 2);
  ObjectRef B = allocNode(Heap, NodeType, 0);
  Heap.getAs<Node>(A).setRef(0, B);
  Handle Root(Heap, A);
  Heap.collect(true);
  std::string Error;
  EXPECT_TRUE(Heap.verifyHeap(&Error)) << Error;
}

TEST_F(GcHeapTest, VerifyHeapCatchesDanglingReferences) {
  ObjectRef A = allocNode(Heap, NodeType, 1);
  Handle Root(Heap, A);
  ObjectRef Garbage = allocNode(Heap, NodeType, 0);
  Heap.collect(true); // frees Garbage's slot
  // Wire a stale reference to the freed slot (programmer error).
  Heap.getAs<Node>(A).setRef(0, Garbage);
  std::string Error;
  EXPECT_FALSE(Heap.verifyHeap(&Error));
  EXPECT_NE(Error.find("dangling reference"), std::string::npos);
}

/// The slots of every object in \p Heap.
std::set<uint32_t> occupiedSlots(GcHeap &Heap) {
  std::set<uint32_t> Slots;
  Heap.forEachObject(
      [&](HeapObject &Obj) { Slots.insert(Obj.self().slot()); });
  return Slots;
}

/// Fills \p Heap with \p NumSlots objects, one per slot, roots all but
/// those at slots 63, 64, 127, 128 and the last one, and collects twice:
/// first with every root, then without the roots at even slots.
void sweepAtWordBoundaries(GcHeap &Heap, uint32_t NumSlots) {
  TypeId Type = registerNodeType(Heap);
  std::set<uint32_t> Dead;
  for (uint32_t Slot : {63u, 64u, 127u, 128u, NumSlots - 1})
    if (Slot < NumSlots)
      Dead.insert(Slot);
  std::vector<Handle> Roots;
  std::set<uint32_t> Live;
  for (uint32_t Slot = 0; Slot < NumSlots; ++Slot) {
    ObjectRef Ref = allocNode(Heap, Type, 0);
    ASSERT_EQ(Ref.slot(), Slot);
    if (!Dead.count(Slot)) {
      Roots.emplace_back(Heap, Ref);
      Live.insert(Slot);
    }
  }

  EXPECT_EQ(Heap.collect(true).FreedObjects, Dead.size());
  EXPECT_EQ(occupiedSlots(Heap), Live);

  // The sweep hands freed slots back in ascending order and allocation
  // pops the highest first.
  std::vector<uint32_t> Reused;
  for (size_t I = 0; I < Dead.size(); ++I)
    Reused.push_back(allocNode(Heap, Type, 0).slot());
  EXPECT_EQ(Reused, std::vector<uint32_t>(Dead.rbegin(), Dead.rend()));

  // The first cycle's marks do not carry over: survivors that lost their
  // root die, and so do the unrooted objects in the reused slots.
  std::set<uint32_t> StillLive;
  std::vector<Handle> OddRoots;
  for (const Handle &Root : Roots)
    if (Root.ref().slot() % 2 == 1) {
      OddRoots.push_back(Root);
      StillLive.insert(Root.ref().slot());
    }
  Roots.clear();
  EXPECT_EQ(Heap.collect(true).FreedObjects,
            Live.size() - StillLive.size() + Dead.size());
  EXPECT_EQ(occupiedSlots(Heap), StillLive);
  std::string Error;
  EXPECT_TRUE(Heap.verifyHeap(&Error)) << Error;
}

// The sweeps walk the mark bits one 64-slot word at a time; dead objects
// at the ends of a word, in a partial last word and in the table's last
// slot are freed, and only they, on the calling thread and on the pool.
TEST_F(GcHeapTest, SweepAtMarkWordBoundaries) {
  for (uint32_t NumSlots : {63u, 64u, 65u, 129u}) {
    SCOPED_TRACE("slots " + std::to_string(NumSlots));
    {
      SCOPED_TRACE("serial");
      GcHeap Serial;
      sweepAtWordBoundaries(Serial, NumSlots);
    }
    SCOPED_TRACE("pool");
    GcHeap Pooled;
    Pooled.setGcThreads(4);
    MutatorThread *Mutator = Pooled.registerMutatorThread();
    const uint64_t PoolTasks = metricValue("cham.gc.pool_tasks");
    sweepAtWordBoundaries(Pooled, NumSlots);
    Pooled.unregisterMutatorThread(Mutator);
    EXPECT_GT(metricValue("cham.gc.pool_tasks"), PoolTasks);
  }
}

TEST_F(GcHeapTest, CycleRecordFractionsComputed) {
  GcCycleRecord Rec;
  Rec.LiveBytes = 1000;
  Rec.CollectionLiveBytes = 700;
  Rec.CollectionUsedBytes = 400;
  Rec.CollectionCoreBytes = 100;
  EXPECT_DOUBLE_EQ(Rec.collectionLiveFraction(), 0.7);
  EXPECT_DOUBLE_EQ(Rec.collectionUsedFraction(), 0.4);
  EXPECT_DOUBLE_EQ(Rec.collectionCoreFraction(), 0.1);
  GcCycleRecord Empty;
  EXPECT_DOUBLE_EQ(Empty.collectionLiveFraction(), 0.0);
}

} // namespace
