//===--- ParallelSweepTest.cpp - Parallel sweep equivalence tests ---------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sweep phase partitions the slot vector across the persistent worker
/// pool (GcHeap.h); like parallel marking, it must be invisible in every
/// recorded metric. These tests check that parallel sweeping frees exactly
/// what the sequential sweep frees, replays death events in the sequential
/// sweep's slot order, recycles slots in the same order (so future
/// allocations land in identical slots), and that whole profiled workloads
/// produce byte-identical records, per-context aggregates, and reports at
/// GcThreads 1, 2, and 8. The pool runs only cycles of a heap with
/// registered mutator threads, so each test registers its own thread at
/// every thread count and checks that the pool ran (cham.gc.pool_tasks).
///
//===----------------------------------------------------------------------===//

#include "apps/BloatSim.h"
#include "apps/TvlaSim.h"
#include "core/Chameleon.h"

#include "TestHelpers.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

using namespace chameleon;
using namespace chameleon::testing;

namespace {

/// Builds a deterministic graph with a mix of reachable and garbage nodes.
std::vector<Handle> buildMixedGraph(GcHeap &Heap, TypeId NodeType) {
  SplitMix64 Rng(77);
  std::vector<ObjectRef> All;
  std::vector<Handle> Roots;
  for (int I = 0; I < 12000; ++I) {
    ObjectRef R = allocNode(Heap, NodeType, 2, 8 * (1 + Rng.nextBelow(5)));
    All.push_back(R);
    if (Rng.nextBool(0.08))
      Roots.emplace_back(Heap, R);
    Node &N = Heap.getAs<Node>(R);
    for (unsigned S = 0; S < 2; ++S)
      if (Rng.nextBool(0.5))
        N.setRef(S, All[Rng.nextBelow(All.size())]);
  }
  return Roots;
}

TEST(ParallelSweep, SweepStatisticsMatchSequential) {
  GcHeap Sequential;
  MutatorThread *SeqMutator = Sequential.registerMutatorThread();
  TypeId SeqType = registerNodeType(Sequential);
  std::vector<Handle> SeqRoots = buildMixedGraph(Sequential, SeqType);
  const GcCycleRecord &SeqRec = Sequential.collect(true);
  Sequential.unregisterMutatorThread(SeqMutator);

  const uint64_t PoolTasks = metricValue("cham.gc.pool_tasks");
  GcHeap Parallel;
  Parallel.setGcThreads(4);
  MutatorThread *ParMutator = Parallel.registerMutatorThread();
  TypeId ParType = registerNodeType(Parallel);
  std::vector<Handle> ParRoots = buildMixedGraph(Parallel, ParType);
  const GcCycleRecord &ParRec = Parallel.collect(true);
  Parallel.unregisterMutatorThread(ParMutator);
  EXPECT_GT(metricValue("cham.gc.pool_tasks"), PoolTasks);

  EXPECT_EQ(ParRec.FreedBytes, SeqRec.FreedBytes);
  EXPECT_EQ(ParRec.FreedObjects, SeqRec.FreedObjects);
  EXPECT_EQ(ParRec.LiveBytes, SeqRec.LiveBytes);
  EXPECT_EQ(Parallel.bytesInUse(), Sequential.bytesInUse());
  EXPECT_EQ(Parallel.objectsInUse(), Sequential.objectsInUse());

  std::string Error;
  EXPECT_TRUE(Sequential.verifyHeap(&Error)) << Error;
  EXPECT_TRUE(Parallel.verifyHeap(&Error)) << Error;

  // Slot recycling order must match the sequential sweep exactly, so the
  // next allocations land in the same slots on both heaps.
  for (int I = 0; I < 50; ++I) {
    ObjectRef A = allocNode(Sequential, SeqType, 0);
    ObjectRef B = allocNode(Parallel, ParType, 0);
    EXPECT_EQ(A.slot(), B.slot()) << "allocation " << I;
  }
}

/// Hooks that record the slot of every death event, in replay order.
class DeathOrderRecorder : public HeapProfilerHooks {
public:
  void onLiveCollection(const HeapObject &, const CollectionSizes &,
                        void *) override {}
  void onCollectionDeath(const HeapObject &Obj, void *, void *) override {
    DeathSlots.push_back(Obj.self().slot());
  }
  void onCycleEnd(const GcCycleRecord &) override {}

  std::vector<uint32_t> DeathSlots;
};

/// Registers a fake collection-wrapper type whose semantic map reports
/// fixed sizes and tags, enough to reach the death hook.
TypeId registerFakeWrapperType(GcHeap &Heap) {
  SemanticMap Map;
  Map.Name = "FakeWrapper";
  Map.Kind = TypeKind::CollectionWrapper;
  Map.ComputeSizes = [](const HeapObject &Obj, const GcHeap &) {
    CollectionSizes S;
    S.Live = Obj.shallowBytes();
    S.Used = Obj.shallowBytes();
    return S;
  };
  Map.ContextTagOf = [](const HeapObject &Obj) {
    return const_cast<void *>(static_cast<const void *>(&Obj));
  };
  Map.ObjectInfoOf = [](const HeapObject &Obj) {
    return const_cast<void *>(static_cast<const void *>(&Obj));
  };
  return Heap.types().registerType(std::move(Map));
}

TEST(ParallelSweep, DeathEventsReplayInSlotOrder) {
  auto Run = [](unsigned Threads) {
    GcHeap Heap;
    Heap.setGcThreads(Threads);
    MutatorThread *Mutator = Heap.registerMutatorThread();
    DeathOrderRecorder Recorder;
    Heap.setProfilerHooks(&Recorder);
    TypeId Wrapper = registerFakeWrapperType(Heap);
    TypeId Plain = registerNodeType(Heap);
    SplitMix64 Rng(9);
    std::vector<Handle> Roots;
    for (int I = 0; I < 5000; ++I) {
      ObjectRef R = allocNode(Heap, I % 3 == 0 ? Wrapper : Plain, 0, 16);
      if (Rng.nextBool(0.2))
        Roots.emplace_back(Heap, R);
    }
    const uint64_t PoolTasks = metricValue("cham.gc.pool_tasks");
    Heap.collect(true);
    Heap.unregisterMutatorThread(Mutator);
    if (Threads > 1) {
      EXPECT_GT(metricValue("cham.gc.pool_tasks"), PoolTasks);
    }
    Heap.setProfilerHooks(nullptr);
    return Recorder.DeathSlots;
  };

  std::vector<uint32_t> Sequential = Run(1);
  ASSERT_FALSE(Sequential.empty());
  EXPECT_TRUE(std::is_sorted(Sequential.begin(), Sequential.end()));
  EXPECT_EQ(Run(2), Sequential);
  EXPECT_EQ(Run(8), Sequential);
}

/// Signature of one profiled run: every cycle record field plus every
/// per-context aggregate, rendered to a comparable string.
std::string profileSignature(const CollectionRuntime &RT) {
  std::string Sig;
  auto Add = [&Sig](uint64_t V) {
    Sig += std::to_string(V);
    Sig += ',';
  };
  for (const GcCycleRecord &Rec : RT.heap().cycles()) {
    Add(Rec.Cycle);
    Add(Rec.Forced);
    Add(Rec.LiveBytes);
    Add(Rec.LiveObjects);
    Add(Rec.CollectionLiveBytes);
    Add(Rec.CollectionUsedBytes);
    Add(Rec.CollectionCoreBytes);
    Add(Rec.CollectionObjects);
    Add(Rec.FreedBytes);
    Add(Rec.FreedObjects);
    for (const auto &[Type, Bytes] : Rec.TypeDistribution) {
      Add(Type);
      Add(Bytes);
    }
    Sig += '\n';
  }
  const SemanticProfiler &P = RT.profiler();
  for (const ContextInfo *Info : P.contexts()) {
    Sig += Info->label();
    Sig += ':';
    Add(Info->allocations());
    Add(Info->foldedInstances());
    Add(Info->liveData().total());
    Add(Info->liveData().max());
    Add(Info->usedData().total());
    Add(Info->coreData().total());
    Sig += std::to_string(Info->opStat(OpKind::Put).mean());
    Sig += ',';
    Sig += std::to_string(Info->maxSizeStat().mean());
    Sig += '\n';
  }
  return Sig;
}

TEST(GcThreadsInvariance, ProfiledTvlaIdenticalAt128Threads) {
  auto Run = [](unsigned Threads) {
    RuntimeConfig Config;
    Config.GcThreads = Threads;
    Config.RecordTypeDistribution = true;
    Config.GcSampleEveryBytes = 64 * 1024;
    auto RT = std::make_unique<CollectionRuntime>(Config);
    const uint64_t PoolTasks = metricValue("cham.gc.pool_tasks");
    MutatorScope Mutator(*RT);
    apps::TvlaConfig App;
    App.NumStates = 500;
    App.LiveWindow = 300;
    apps::runTvla(*RT, App);
    RT->heap().collect(true);
    if (Threads > 1) {
      EXPECT_GT(metricValue("cham.gc.pool_tasks"), PoolTasks);
    }
    RT->harvestLiveStatistics();
    return profileSignature(*RT);
  };

  std::string Baseline = Run(1);
  ASSERT_FALSE(Baseline.empty());
  EXPECT_EQ(Run(2), Baseline);
  EXPECT_EQ(Run(8), Baseline);
}

TEST(GcThreadsInvariance, ProfiledBloatReportIdenticalAt128Threads) {
  auto Profile = [](unsigned Threads) {
    ChameleonConfig Config;
    Config.Runtime.GcThreads = Threads;
    Chameleon Tool(Config);
    apps::BloatConfig App;
    App.Phases = 4;
    App.NodesPerPhase = 400;
    App.SpikePhase = 2;
    const uint64_t PoolTasks = metricValue("cham.gc.pool_tasks");
    RunResult Result = Tool.profile([&](CollectionRuntime &RT) {
      MutatorScope Mutator(RT);
      apps::runBloat(RT, App);
    });
    if (Threads > 1) {
      EXPECT_GT(metricValue("cham.gc.pool_tasks"), PoolTasks);
    }
    return Result;
  };

  RunResult Baseline = Profile(1);
  ASSERT_FALSE(Baseline.Report.empty());
  for (unsigned Threads : {2u, 8u}) {
    RunResult Result = Profile(Threads);
    EXPECT_EQ(Result.Report, Baseline.Report) << Threads << " threads";
    EXPECT_EQ(Result.GcCycles, Baseline.GcCycles);
    EXPECT_EQ(Result.PeakLiveBytes, Baseline.PeakLiveBytes);
    EXPECT_EQ(Result.TotalAllocatedBytes, Baseline.TotalAllocatedBytes);
    ASSERT_EQ(Result.Cycles.size(), Baseline.Cycles.size());
    for (size_t I = 0; I < Result.Cycles.size(); ++I) {
      EXPECT_EQ(Result.Cycles[I].LiveBytes, Baseline.Cycles[I].LiveBytes);
      EXPECT_EQ(Result.Cycles[I].FreedBytes, Baseline.Cycles[I].FreedBytes);
      EXPECT_EQ(Result.Cycles[I].CollectionUsedBytes,
                Baseline.Cycles[I].CollectionUsedBytes);
    }
    EXPECT_EQ(Result.Suggestions.size(), Baseline.Suggestions.size());
  }
}

} // namespace
