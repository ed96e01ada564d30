//===--- AllocatorStressTest.cpp - Allocation substrate tests -------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tcmalloc-style allocation substrate (DESIGN.md §12) under test: the
/// size-class table's invariants, the raw block lifecycle (tags, alignment,
/// double-return containment, mode switches mid-stream), multi-threaded
/// churn across size classes through stop-the-world safepoints, and the
/// determinism contract — with thread caches on and off, the same workload
/// must produce identical slot sequences, identical per-cycle statistics,
/// and byte-identical profiled reports. Run under TSan in CI (the
/// `AllocatorStress*` filter of the sanitizer job).
///
//===----------------------------------------------------------------------===//

#include "apps/BloatSim.h"
#include "apps/ServerSim.h"
#include "apps/TvlaSim.h"
#include "collections/Handles.h"
#include "core/Chameleon.h"
#include "obs/Metrics.h"
#include "runtime/ThreadCache.h"

#include "TestHelpers.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

using namespace chameleon;
using namespace chameleon::testing;

namespace {

//===----------------------------------------------------------------------===//
// Size-class table
//===----------------------------------------------------------------------===//

TEST(AllocatorStress, SizeClassTableInvariants) {
  using namespace chameleon::alloc;
  // Sizes are strictly increasing and cover [8, kMaxPooledSize].
  EXPECT_EQ(classSize(0), 8u);
  EXPECT_EQ(classSize(kNumClasses - 1), kMaxPooledSize);
  for (uint32_t C = 1; C < kNumClasses; ++C)
    EXPECT_LT(classSize(C - 1), classSize(C)) << "class " << C;

  // The alignment guarantee of SizeClasses.h: every class above 128 bytes
  // is a 16-multiple (8-multiple classes only exist below that), so
  // 16-aligned types always land on 16-aligned blocks.
  for (uint32_t C = 0; C < kNumClasses; ++C) {
    EXPECT_EQ(classSize(C) % 8, 0u) << "class " << C;
    if (classSize(C) > 128)
      EXPECT_EQ(classSize(C) % 16, 0u) << "class " << C;
  }

  // classIndexFor is the exact inverse on class sizes and picks the
  // smallest sufficient class for everything in between.
  for (uint32_t C = 0; C < kNumClasses; ++C)
    EXPECT_EQ(classIndexFor(classSize(C)), C);
  for (size_t Size = 1; Size <= kMaxPooledSize; ++Size) {
    const uint32_t C = classIndexFor(Size);
    ASSERT_LT(C, kNumClasses) << "size " << Size;
    EXPECT_GE(classSize(C), Size) << "size " << Size;
    if (C > 0)
      EXPECT_LT(classSize(C - 1), Size) << "size " << Size;
  }

  // Transfer batches amortise the central lock without hoarding pages.
  for (uint32_t C = 0; C < kNumClasses; ++C) {
    EXPECT_GE(transferBatch(C), 2u) << "class " << C;
    EXPECT_LE(transferBatch(C), 32u) << "class " << C;
  }
}

//===----------------------------------------------------------------------===//
// Raw block lifecycle
//===----------------------------------------------------------------------===//

TEST(AllocatorStress, RawBlockRoundTrip) {
  using namespace chameleon::alloc;
  ASSERT_EQ(mode(), Mode::Cached);
  for (size_t UserSize : {1ul, 8ul, 24ul, 120ul, 500ul, 4000ul, 30000ul}) {
    void *P = allocateBlock(UserSize);
    ASSERT_NE(P, nullptr) << UserSize;
    BlockHeader *B = blockOfPayload(P);
    EXPECT_EQ(B->State, kLiveTag) << UserSize;
    const uint32_t Cls = classIndexFor(UserSize + sizeof(BlockHeader));
    EXPECT_EQ(B->ClassOrSize, Cls) << UserSize;
    // Blocks of 16-multiple classes carry 16-byte alignment (the header
    // is 16 bytes and spans start aligned); every block is at least
    // 8-aligned.
    const size_t Align = classSize(Cls) % 16 == 0 ? 16 : 8;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % Align, 0u) << UserSize;
    // The payload is fully writable.
    std::memset(P, 0xAB, UserSize);
    deallocateBlock(P);
    EXPECT_EQ(B->State, kFreeTag) << UserSize;
  }

  // Oversize requests bypass the pools entirely.
  void *Big = allocateBlock(kMaxPooledSize + 1);
  ASSERT_NE(Big, nullptr);
  EXPECT_EQ(blockOfPayload(Big)->State, kDirectTag);
  deallocateBlock(Big);
}

/// A freed-block pointer returned twice is counted and leaked, never
/// pushed onto a free list a second time.
TEST(AllocatorStress, DoubleFreeCountedAndContained) {
  using namespace chameleon::alloc;
  auto DoubleFrees = [] {
    uint64_t V = 0;
    for (const obs::MetricSnapshot &S :
         obs::MetricsRegistry::instance().snapshot("cham.alloc.double_free"))
      V += S.Value;
    return V;
  };
  const uint64_t Before = DoubleFrees();

  void *P = allocateBlock(48);
  deallocateBlock(P);
  deallocateBlock(P); // double return: counted, block leaked
  EXPECT_EQ(DoubleFrees(), Before + 1);

  // The free list stayed coherent: the block was not enqueued twice, so
  // two fresh allocations of the class never alias.
  void *A = allocateBlock(48);
  void *B = allocateBlock(48);
  EXPECT_NE(A, B);
  deallocateBlock(A);
  deallocateBlock(B);
}

/// Every block's header remembers how to free it, so blocks survive mode
/// switches: allocate under one mode, release under another.
TEST(AllocatorStress, BlocksSurviveModeSwitches) {
  using namespace chameleon::alloc;
  ASSERT_EQ(mode(), Mode::Cached);

  void *FromCached = allocateBlock(64);
  setMode(Mode::Passthrough);
  void *FromDirect = allocateBlock(64);
  EXPECT_EQ(blockOfPayload(FromDirect)->State, kDirectTag);

  // Release both under the mode that did not serve them.
  deallocateBlock(FromCached); // passthrough mode, pooled block
  setMode(Mode::Cached);
  deallocateBlock(FromDirect); // cached mode, direct block
}

//===----------------------------------------------------------------------===//
// Multi-threaded churn through safepoints
//===----------------------------------------------------------------------===//

/// N mutator threads churn allocations spanning the size-class table while
/// sampling GCs stop the world mid-loop; afterwards the heap must verify
/// and the byte accounting must balance. Runs with the thread caches on
/// and off — the same invariants hold on both paths.
void churnAcrossClasses(bool UseCaches) {
  RuntimeConfig Config;
  Config.Profiler.ConcurrentMutators = true;
  // Frequent sampling GCs: safepoints interrupt the churn constantly, so
  // slot-cache flush/unbump and storage recycling run under load.
  Config.GcSampleEveryBytes = 48 * 1024;
  CollectionRuntime RT(Config);
  RT.heap().setUseThreadCaches(UseCaches);

  constexpr unsigned Threads = 4;
  constexpr int PerThread = 1500;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&RT, T] {
      MutatorScope Scope(RT);
      SplitMix64 Rng(0x57BE55 + T);
      std::vector<Handle> Ring(32);
      for (int I = 0; I < PerThread; ++I) {
        // Scalar payloads from 0 to ~6 KiB: small-class, mid-class,
        // page-class and (with the header) near-direct blocks.
        const uint32_t Scalar =
            static_cast<uint32_t>(Rng.nextBelow(6144));
        ObjectRef Ref =
            RT.allocData(1 + static_cast<uint32_t>(Rng.nextBelow(4)),
                         Scalar)
                .asRef();
        if (Rng.nextBool(0.25))
          Ring[Rng.nextBelow(Ring.size())].set(RT.heap(), Ref);
      }
    });
  for (std::thread &W : Workers)
    W.join();

  EXPECT_GT(RT.heap().cycleCount(), 0u)
      << "sampling GCs must have stopped the world mid-churn";

  std::string Error;
  EXPECT_TRUE(RT.heap().verifyHeap(&Error)) << Error;

  // All ring roots died with the worker scopes; a forced collection must
  // reclaim everything the runtime itself does not root, and the byte
  // accounting must balance exactly.
  const GcCycleRecord &Rec = RT.heap().collect(true);
  EXPECT_EQ(RT.heap().bytesInUse(), Rec.LiveBytes);
  EXPECT_EQ(RT.heap().objectsInUse(), Rec.LiveObjects);
  EXPECT_TRUE(RT.heap().verifyHeap(&Error)) << Error;
}

TEST(AllocatorStress, MtChurnThroughSafepointsCached) {
  churnAcrossClasses(/*UseCaches=*/true);
}

TEST(AllocatorStress, MtChurnThroughSafepointsLocked) {
  churnAcrossClasses(/*UseCaches=*/false);
}

//===----------------------------------------------------------------------===//
// Determinism: cached path == locked path
//===----------------------------------------------------------------------===//

/// Single-threaded, the slot-cache flush discipline (SlotBumpTag un-bump)
/// must make the cached grant path invisible: the same workload on two
/// heaps — caches on and off — lands every allocation in the same slot,
/// before and after a collection recycles part of the heap.
TEST(AllocatorStress, SlotSequenceMatchesLockedPath) {
  auto Run = [](bool UseCaches) {
    auto Heap = std::make_unique<GcHeap>();
    Heap->setUseThreadCaches(UseCaches);
    TypeId Type = registerNodeType(*Heap);
    SplitMix64 Rng(0x51075);
    std::vector<uint32_t> Slots;
    std::vector<Handle> Roots;
    for (int I = 0; I < 4000; ++I) {
      ObjectRef R = allocNode(*Heap, Type, 1, 8 + 8 * Rng.nextBelow(64));
      Slots.push_back(R.slot());
      if (Rng.nextBool(0.2))
        Roots.emplace_back(*Heap, R);
    }
    GcCycleRecord Rec = Heap->collect(true);
    for (int I = 0; I < 4000; ++I)
      Slots.push_back(allocNode(*Heap, Type, 0).slot());
    return std::make_pair(std::move(Slots), Rec);
  };
  auto [CachedSlots, CachedRec] = Run(true);
  auto [LockedSlots, LockedRec] = Run(false);
  ASSERT_EQ(CachedSlots.size(), LockedSlots.size());
  EXPECT_EQ(CachedSlots, LockedSlots);
  EXPECT_EQ(CachedRec.LiveBytes, LockedRec.LiveBytes);
  EXPECT_EQ(CachedRec.LiveObjects, LockedRec.LiveObjects);
  EXPECT_EQ(CachedRec.FreedBytes, LockedRec.FreedBytes);
  EXPECT_EQ(CachedRec.FreedObjects, LockedRec.FreedObjects);
}

/// Signature of one profiled run: every cycle record field plus every
/// per-context aggregate, rendered to a comparable string (the same
/// discipline ParallelSweepTest uses for GC-thread invariance).
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

/// TvlaSim with sampling GCs: cached and locked allocation must produce
/// byte-identical cycle records and context aggregates at every GC thread
/// count.
TEST(AllocatorDifferential, TvlaCachesOnOffIdentical) {
  auto Run = [](unsigned GcThreads, bool UseCaches) {
    RuntimeConfig Config;
    Config.GcThreads = GcThreads;
    Config.RecordTypeDistribution = true;
    Config.GcSampleEveryBytes = 64 * 1024;
    auto RT = std::make_unique<CollectionRuntime>(Config);
    RT->heap().setUseThreadCaches(UseCaches);
    apps::TvlaConfig App;
    App.NumStates = 500;
    App.LiveWindow = 300;
    apps::runTvla(*RT, App);
    RT->heap().collect(true);
    RT->harvestLiveStatistics();
    return profileSignature(*RT);
  };

  std::string Baseline = Run(1, /*UseCaches=*/true);
  ASSERT_FALSE(Baseline.empty());
  for (unsigned GcThreads : {1u, 2u, 8u}) {
    EXPECT_EQ(Run(GcThreads, false), Baseline)
        << "locked path diverged at GcThreads=" << GcThreads;
    if (GcThreads != 1)
      EXPECT_EQ(Run(GcThreads, true), Baseline)
          << "cached path diverged at GcThreads=" << GcThreads;
  }
}

/// BloatSim through the full Chameleon pipeline: the rendered report (and
/// the cycle records backing it) must not depend on the allocator mode.
TEST(AllocatorDifferential, BloatCachesOnOffIdentical) {
  auto Profile = [](bool UseCaches) {
    Chameleon Tool;
    apps::BloatConfig App;
    App.Phases = 4;
    App.NodesPerPhase = 400;
    App.SpikePhase = 2;
    // The facade constructs the runtime right before the workload runs,
    // so this is the first thing its fresh heap sees.
    return Tool.profile([&](CollectionRuntime &RT) {
      RT.heap().setUseThreadCaches(UseCaches);
      apps::runBloat(RT, App);
    });
  };

  RunResult On = Profile(true);
  RunResult Off = Profile(false);
  ASSERT_FALSE(On.Report.empty());
  EXPECT_EQ(On.Report, Off.Report);
  EXPECT_EQ(On.GcCycles, Off.GcCycles);
  EXPECT_EQ(On.PeakLiveBytes, Off.PeakLiveBytes);
  EXPECT_EQ(On.TotalAllocatedBytes, Off.TotalAllocatedBytes);
  ASSERT_EQ(On.Cycles.size(), Off.Cycles.size());
  for (size_t I = 0; I < On.Cycles.size(); ++I) {
    EXPECT_EQ(On.Cycles[I].LiveBytes, Off.Cycles[I].LiveBytes);
    EXPECT_EQ(On.Cycles[I].FreedBytes, Off.Cycles[I].FreedBytes);
    EXPECT_EQ(On.Cycles[I].CollectionUsedBytes,
              Off.Cycles[I].CollectionUsedBytes);
  }
}

/// ServerSim with concurrent mutators: at 1, 2 and 8 mutator threads the
/// report must be byte-identical with the caches on and off (the trigger
/// mirror keeps collection points identical; the task-ordered replay keeps
/// the folds identical).
TEST(AllocatorDifferential, ServerSimCachesOnOffIdentical) {
  auto Run = [](uint32_t Threads, bool UseCaches) {
    CollectionRuntime RT(apps::serverSimRuntimeConfig());
    RT.heap().setUseThreadCaches(UseCaches);
    apps::ServerSimConfig SimConfig;
    SimConfig.MutatorThreads = Threads;
    return apps::runServerSim(RT, SimConfig);
  };

  for (uint32_t Threads : {1u, 2u, 8u}) {
    apps::ServerSimResult On = Run(Threads, true);
    apps::ServerSimResult Off = Run(Threads, false);
    ASSERT_FALSE(On.Report.empty());
    EXPECT_EQ(On.Report, Off.Report)
        << "allocator mode changed the report at " << Threads
        << " mutator threads";
  }
}

} // namespace
