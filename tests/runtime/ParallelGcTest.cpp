//===--- ParallelGcTest.cpp - Parallel marking equivalence tests ----------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's collector marks with parallel threads (§4.3.2) and we keep
/// that orthogonal to every reported metric: these tests build identical
/// heaps and check that parallel marking produces bit-identical cycle
/// statistics and per-context profiles to sequential marking. A heap runs
/// its cycles on the worker pool only while mutator threads are registered
/// (GcHeap::setGcThreads), so each test registers its own thread on both
/// sides and checks that the pool really ran (cham.gc.pool_tasks grew).
///
//===----------------------------------------------------------------------===//

#include "collections/CollectionRuntime.h"
#include "collections/Handles.h"

#include "TestHelpers.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

using namespace chameleon;
using namespace chameleon::testing;

namespace {

/// Builds the same random object graph on \p Heap (deterministic).
std::vector<Handle> buildGraph(GcHeap &Heap, TypeId NodeType) {
  SplitMix64 Rng(4242);
  std::vector<ObjectRef> All;
  std::vector<Handle> Roots;
  for (int I = 0; I < 20000; ++I) {
    ObjectRef R = allocNode(Heap, NodeType, 3, 8 * (1 + Rng.nextBelow(6)));
    All.push_back(R);
    if (Rng.nextBool(0.05))
      Roots.emplace_back(Heap, R);
    // Wire a few random edges backwards (keeps some garbage unreachable).
    Node &N = Heap.getAs<Node>(R);
    for (unsigned S = 0; S < 3; ++S)
      if (Rng.nextBool(0.6))
        N.setRef(S, All[Rng.nextBelow(All.size())]);
  }
  return Roots;
}

TEST(ParallelGc, CycleStatisticsMatchSequential) {
  GcHeap Sequential;
  MutatorThread *SeqMutator = Sequential.registerMutatorThread();
  TypeId SeqType = registerNodeType(Sequential);
  std::vector<Handle> SeqRoots = buildGraph(Sequential, SeqType);
  const GcCycleRecord &SeqRec = Sequential.collect(true);
  Sequential.unregisterMutatorThread(SeqMutator);

  const uint64_t PoolTasks = metricValue("cham.gc.pool_tasks");
  GcHeap Parallel;
  Parallel.setGcThreads(4);
  MutatorThread *ParMutator = Parallel.registerMutatorThread();
  TypeId ParType = registerNodeType(Parallel);
  std::vector<Handle> ParRoots = buildGraph(Parallel, ParType);
  const GcCycleRecord &ParRec = Parallel.collect(true);
  Parallel.unregisterMutatorThread(ParMutator);
  EXPECT_GT(metricValue("cham.gc.pool_tasks"), PoolTasks);

  EXPECT_EQ(ParRec.LiveBytes, SeqRec.LiveBytes);
  EXPECT_EQ(ParRec.LiveObjects, SeqRec.LiveObjects);
  EXPECT_EQ(ParRec.FreedBytes, SeqRec.FreedBytes);
  EXPECT_EQ(ParRec.FreedObjects, SeqRec.FreedObjects);
  EXPECT_EQ(Parallel.bytesInUse(), Sequential.bytesInUse());
}

TEST(ParallelGc, RepeatedCyclesStayConsistent) {
  GcHeap Heap;
  Heap.setGcThreads(4);
  MutatorThread *Mutator = Heap.registerMutatorThread();
  TypeId NodeType = registerNodeType(Heap);
  std::vector<Handle> Roots = buildGraph(Heap, NodeType);
  const uint64_t PoolTasks = metricValue("cham.gc.pool_tasks");
  uint64_t Live1 = Heap.collect(true).LiveObjects;
  uint64_t Live2 = Heap.collect(true).LiveObjects;
  EXPECT_EQ(Live1, Live2);
  Roots.clear();
  EXPECT_EQ(Heap.collect(true).LiveObjects, 0u);
  Heap.unregisterMutatorThread(Mutator);
  EXPECT_GT(metricValue("cham.gc.pool_tasks"), PoolTasks);
}

TEST(ParallelGc, CollectionProfilesMatchSequential) {
  auto RunWorkload = [](unsigned Threads) {
    RuntimeConfig Config;
    Config.GcThreads = Threads;
    Config.RecordTypeDistribution = true;
    auto RT = std::make_unique<CollectionRuntime>(Config);
    const uint64_t PoolTasks = metricValue("cham.gc.pool_tasks");
    MutatorScope Mutator(*RT);
    FrameId Site = RT->site("par:1");
    std::vector<Map> Live;
    for (int I = 0; I < 500; ++I) {
      Map M = RT->newHashMap(Site);
      for (int E = 0; E < 3; ++E)
        M.put(Value::ofInt(E), Value::ofInt(I));
      Live.push_back(std::move(M));
      if (Live.size() > 200)
        Live.erase(Live.begin());
      if (I % 50 == 49)
        RT->heap().collect(true);
    }
    Live.clear();
    RT->heap().collect(true);
    if (Threads > 1) {
      EXPECT_GT(metricValue("cham.gc.pool_tasks"), PoolTasks);
    }
    return RT;
  };

  auto Seq = RunWorkload(1);
  auto Par = RunWorkload(4);

  ASSERT_EQ(Seq->heap().cycleCount(), Par->heap().cycleCount());
  for (size_t I = 0; I < Seq->heap().cycles().size(); ++I) {
    const GcCycleRecord &A = Seq->heap().cycles()[I];
    const GcCycleRecord &B = Par->heap().cycles()[I];
    EXPECT_EQ(A.LiveBytes, B.LiveBytes) << "cycle " << I;
    EXPECT_EQ(A.CollectionLiveBytes, B.CollectionLiveBytes);
    EXPECT_EQ(A.CollectionUsedBytes, B.CollectionUsedBytes);
    EXPECT_EQ(A.CollectionCoreBytes, B.CollectionCoreBytes);
    EXPECT_EQ(A.CollectionObjects, B.CollectionObjects);
    EXPECT_EQ(A.TypeDistribution, B.TypeDistribution);
  }

  // Per-context Table-1 profiles agree too.
  ASSERT_EQ(Seq->profiler().contexts().size(),
            Par->profiler().contexts().size());
  const ContextInfo *A = Seq->profiler().contexts()[0];
  const ContextInfo *B = Par->profiler().contexts()[0];
  EXPECT_EQ(A->foldedInstances(), B->foldedInstances());
  EXPECT_EQ(A->liveData().total(), B->liveData().total());
  EXPECT_EQ(A->usedData().total(), B->usedData().total());
  EXPECT_DOUBLE_EQ(A->opStat(OpKind::Put).mean(),
                   B->opStat(OpKind::Put).mean());
}

TEST(ParallelGc, DeepChainMarksCompletely) {
  GcHeap Heap;
  Heap.setGcThreads(4);
  MutatorThread *Mutator = Heap.registerMutatorThread();
  TypeId NodeType = registerNodeType(Heap);
  ObjectRef Head = allocNode(Heap, NodeType, 1);
  Handle Root(Heap, Head);
  ObjectRef Prev = Head;
  for (int I = 0; I < 100000; ++I) {
    ObjectRef Next = allocNode(Heap, NodeType, 1);
    Heap.getAs<Node>(Prev).setRef(0, Next);
    Prev = Next;
  }
  const uint64_t PoolTasks = metricValue("cham.gc.pool_tasks");
  EXPECT_EQ(Heap.collect(true).LiveObjects, 100001u);
  Heap.unregisterMutatorThread(Mutator);
  EXPECT_GT(metricValue("cham.gc.pool_tasks"), PoolTasks);
}

/// With no registered mutator the calling thread is the heap's only
/// mutator, so a cycle marks and sweeps there at any GcThreads and never
/// wakes the pool; its records equal a 1-thread heap's. Registering the
/// thread routes the same heap's next cycle to the pool.
TEST(ParallelGc, UnregisteredHeapCollectsOnCallingThread) {
  GcHeap Serial;
  TypeId SerialType = registerNodeType(Serial);
  std::vector<Handle> SerialRoots = buildGraph(Serial, SerialType);

  GcHeap Heap;
  Heap.setGcThreads(4);
  TypeId NodeType = registerNodeType(Heap);
  std::vector<Handle> Roots = buildGraph(Heap, NodeType);

  auto ExpectSameCycle = [](const GcCycleRecord &A, const GcCycleRecord &B) {
    EXPECT_EQ(A.Cycle, B.Cycle);
    EXPECT_EQ(A.LiveBytes, B.LiveBytes) << "cycle " << A.Cycle;
    EXPECT_EQ(A.LiveObjects, B.LiveObjects) << "cycle " << A.Cycle;
    EXPECT_EQ(A.FreedBytes, B.FreedBytes) << "cycle " << A.Cycle;
    EXPECT_EQ(A.FreedObjects, B.FreedObjects) << "cycle " << A.Cycle;
  };

  const uint64_t PoolTasks = metricValue("cham.gc.pool_tasks");
  for (int Cycle = 0; Cycle < 3; ++Cycle) {
    ExpectSameCycle(Heap.collect(true), Serial.collect(true));
    // Drop half the roots so every cycle after the first frees something.
    Roots.resize(Roots.size() / 2);
    SerialRoots.resize(SerialRoots.size() / 2);
  }
  EXPECT_EQ(metricValue("cham.gc.pool_tasks"), PoolTasks)
      << "an unregistered heap woke its GC pool";

  MutatorThread *Mutator = Heap.registerMutatorThread();
  const GcCycleRecord &Pooled = Heap.collect(true);
  Heap.unregisterMutatorThread(Mutator);
  EXPECT_GT(metricValue("cham.gc.pool_tasks"), PoolTasks)
      << "a heap with a registered mutator did not wake its GC pool";
  ExpectSameCycle(Pooled, Serial.collect(true));
}

} // namespace
