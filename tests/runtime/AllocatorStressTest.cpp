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

#include <condition_variable>
#include <cstring>
#include <mutex>
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
    if (classSize(C) > 128) {
      EXPECT_EQ(classSize(C) % 16, 0u) << "class " << C;
    }
  }

  // classIndexFor is the exact inverse on class sizes and picks the
  // smallest sufficient class for everything in between.
  for (uint32_t C = 0; C < kNumClasses; ++C)
    EXPECT_EQ(classIndexFor(classSize(C)), C);
  for (size_t Size = 1; Size <= kMaxPooledSize; ++Size) {
    const uint32_t C = classIndexFor(Size);
    ASSERT_LT(C, kNumClasses) << "size " << Size;
    EXPECT_GE(classSize(C), Size) << "size " << Size;
    if (C > 0) {
      EXPECT_LT(classSize(C - 1), Size) << "size " << Size;
    }
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
// Span tier
//===----------------------------------------------------------------------===//

/// What the arena has obtained from the C++ heap so far.
int64_t reservedBytesGauge() {
  for (const obs::MetricSnapshot &S : obs::MetricsRegistry::instance().snapshot(
           "cham.alloc.reserved_bytes"))
    if (S.Name == "cham.alloc.reserved_bytes")
      return S.GaugeValue;
  return 0;
}

/// Once every block of a class is home, its spans serve any class: the same
/// volume allocated in another class needs no new memory.
TEST(AllocatorStress, EmptySpansServeAnyClass) {
  using namespace chameleon::alloc;
  ASSERT_EQ(mode(), Mode::Cached);
  // Two page-multiple classes that managed objects do not use, so nearly
  // every block of theirs is this test's. Two slabs' worth is more than an
  // arena that kept memory with its class could find in its newest slab.
  constexpr size_t Volume = 2 * kSlabBytes;
  auto Fill = [](size_t BlockBytes) {
    std::vector<void *> Blocks;
    for (size_t Bytes = 0; Bytes < Volume; Bytes += BlockBytes)
      Blocks.push_back(allocateBlock(BlockBytes - sizeof(BlockHeader)));
    return Blocks;
  };
  threadCache().flush();
  for (void *P : Fill(24576))
    deallocateBlock(P);
  threadCache().flush();

  const int64_t Reserved = reservedBytesGauge();
  ASSERT_GT(Reserved, 0);
  std::vector<void *> Blocks = Fill(8192);
  EXPECT_EQ(reservedBytesGauge(), Reserved)
      << "the arena grew although the first class's spans were all free";
  std::string Error;
  EXPECT_TRUE(verifySpans(&Error)) << Error;
  for (void *P : Blocks)
    deallocateBlock(P);
  threadCache().flush();
  EXPECT_TRUE(verifySpans(&Error)) << Error;
}

/// Writes \p Stamp over the first and the last word of a payload of at
/// least two words.
void stampPayload(void *P, size_t Size, uint64_t Stamp) {
  std::memcpy(P, &Stamp, sizeof Stamp);
  std::memcpy(static_cast<char *>(P) + Size - sizeof Stamp, &Stamp,
              sizeof Stamp);
}

bool payloadStamped(const void *P, size_t Size, uint64_t Stamp) {
  uint64_t First = 0, Last = 0;
  std::memcpy(&First, P, sizeof First);
  std::memcpy(&Last, static_cast<const char *>(P) + Size - sizeof Last,
              sizeof Last);
  return First == Stamp && Last == Stamp;
}

/// Seeded allocations, frees and cache flushes across every pooled class on
/// one thread: live blocks never overlap (their stamps survive), and the
/// spans are consistent after every flush and once everything is freed.
TEST(AllocatorStress, SeededOpsKeepSpansConsistent) {
  using namespace chameleon::alloc;
  struct Held {
    void *P;
    size_t Size;
    uint64_t Stamp;
  };
  SplitMix64 Rng(0x5FA115);
  std::vector<Held> Live;
  std::string Error;
  auto Release = [&Live](size_t I) {
    const Held H = Live[I];
    EXPECT_TRUE(payloadStamped(H.P, H.Size, H.Stamp))
        << "live block " << H.Stamp << " was overwritten";
    deallocateBlock(H.P);
    Live[I] = Live.back();
    Live.pop_back();
  };
  for (uint64_t Op = 0; Op < 30000; ++Op) {
    const uint64_t Dice = Rng.nextBelow(100);
    if (Dice < 2) {
      threadCache().flush();
      ASSERT_TRUE(verifySpans(&Error)) << "op " << Op << ": " << Error;
    } else if (Dice < 48 && !Live.empty()) {
      Release(Rng.nextBelow(Live.size()));
    } else {
      // Mostly small blocks, one in ten up to the largest pooled class.
      const size_t Max = Rng.nextBool(0.9)
                             ? 512
                             : kMaxPooledSize - sizeof(BlockHeader);
      const size_t Size = 16 + Rng.nextBelow(Max - 15);
      void *P = allocateBlock(Size);
      stampPayload(P, Size, Op);
      Live.push_back({P, Size, Op});
    }
  }
  while (!Live.empty())
    Release(Live.size() - 1);
  threadCache().flush();
  EXPECT_TRUE(verifySpans(&Error)) << Error;
}

/// Four threads churn raw blocks across classes; a quarter of the blocks
/// they drop go through a shared hand-off and are freed by whichever thread
/// takes them. Once the threads have joined (flushing their caches) and
/// the hand-off is freed, the spans are consistent.
TEST(AllocatorStress, MtRawChurnKeepsSpansConsistent) {
  using namespace chameleon::alloc;
  constexpr unsigned Threads = 4;
  constexpr int PerThread = 6000;
  std::mutex HandOffMu;
  std::vector<void *> HandOff;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      SplitMix64 Rng(0xC4A11 + T);
      std::vector<void *> Ring(64, nullptr);
      for (int I = 0; I < PerThread; ++I) {
        void *&Slot = Ring[Rng.nextBelow(Ring.size())];
        if (Slot && Rng.nextBool(0.25)) {
          std::lock_guard<std::mutex> L(HandOffMu);
          HandOff.push_back(Slot);
        } else {
          deallocateBlock(Slot);
        }
        const size_t Max = Rng.nextBool(0.9) ? 512 : 8192;
        Slot = allocateBlock(8 + Rng.nextBelow(Max));
        if (Rng.nextBool(0.1)) {
          std::vector<void *> Taken;
          {
            std::lock_guard<std::mutex> L(HandOffMu);
            Taken.swap(HandOff);
          }
          for (void *P : Taken)
            deallocateBlock(P);
        }
        if (Rng.nextBool(0.01))
          threadCache().flush();
      }
      for (void *P : Ring)
        deallocateBlock(P);
    });
  for (std::thread &W : Workers)
    W.join();
  for (void *P : HandOff)
    deallocateBlock(P);
  threadCache().flush();
  std::string Error;
  EXPECT_TRUE(verifySpans(&Error)) << Error;
}

/// In ASan builds a free pooled block's payload past its link word is
/// poisoned, so ASan reports a stale access to recycled storage even though
/// the block never goes back to the C++ heap.
TEST(AllocatorStress, FreedPooledPayloadIsPoisoned) {
#if !CHAM_ALLOC_POISONS
  GTEST_SKIP() << "pooled blocks are poisoned only under AddressSanitizer";
#else
  using namespace chameleon::alloc;
  ASSERT_EQ(mode(), Mode::Cached);
  constexpr size_t Size = 200;
  const size_t Payload =
      classSize(classIndexFor(Size + sizeof(BlockHeader))) -
      sizeof(BlockHeader);
  auto Poisoned = [](const void *P) {
    return __asan_address_is_poisoned(P) != 0;
  };
  char *P = static_cast<char *>(allocateBlock(Size));
  EXPECT_EQ(__asan_region_is_poisoned(P, Payload), nullptr);
  deallocateBlock(P);
  EXPECT_FALSE(Poisoned(blockOfPayload(P))) << "the tag must stay readable";
  EXPECT_FALSE(Poisoned(P)) << "the link word must stay writable";
  EXPECT_TRUE(Poisoned(P + sizeof(void *)));
  EXPECT_TRUE(Poisoned(P + Payload - 1));

  // Back on its span (or in the pool with its span), still poisoned, and
  // ASan reports a read.
  threadCache().flush();
  EXPECT_TRUE(Poisoned(P + sizeof(void *)));
  EXPECT_DEATH((void)*static_cast<volatile char *>(P + sizeof(void *)),
               "use-after-poison");

  // Handed out again, a block of the class is addressable whole.
  char *Q = static_cast<char *>(allocateBlock(Size));
  EXPECT_EQ(__asan_region_is_poisoned(Q, Payload), nullptr);
  deallocateBlock(Q);
#endif
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
  // Frequent sampling GCs: safepoints interrupt the churn constantly, so
  // slot-cache flush/unbump and storage recycling run under load.
  Config.GcSampleEveryBytes = 48 * 1024;
  CollectionRuntime RT(Config);
  RT.profiler().enableConcurrentMutators();
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
// Per-thread allocation accounting
//===----------------------------------------------------------------------===//

/// Four registered mutators allocate seeded sizes in epochs and park in a
/// safe region at the end of each while the main thread collects. No
/// trigger is configured, so every allocation takes the fast path and is
/// counted on its own thread: the heap's totals can be exact after each
/// collection, and after the last epoch (which nobody collects) once every
/// mutator has unregistered, only because both points fold that volume.
TEST(AllocatorStress, MtAccountingExactAtEverySafepoint) {
  constexpr unsigned Threads = 4;
  constexpr unsigned Epochs = 5;
  constexpr int PerEpoch = 2500;
  GcHeap Heap;
  Heap.setGcThreads(Threads);
  const TypeId Type = registerNodeType(Heap);

  struct Volume {
    uint64_t Bytes = 0;
    uint64_t Objects = 0;
  };
  // Slot T is written only by mutator T; the main thread reads the slots
  // after the epoch barrier or the join.
  std::vector<Volume> Allocated(Threads);
  auto Exact = [&Allocated] {
    Volume Sum;
    for (const Volume &V : Allocated) {
      Sum.Bytes += V.Bytes;
      Sum.Objects += V.Objects;
    }
    return Sum;
  };

  std::mutex Mu;
  std::condition_variable Cv;
  unsigned Arrived = 0;
  unsigned Generation = 0;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      MutatorThread *Self = Heap.registerMutatorThread();
      SplitMix64 Rng(0xACC0 + T);
      std::vector<Handle> Ring(64);
      auto AllocateEpoch = [&] {
        for (int I = 0; I < PerEpoch; ++I) {
          const uint64_t Bytes = 8 + 8 * Rng.nextBelow(64);
          ObjectRef Ref = allocNode(Heap, Type, 0, Bytes);
          Allocated[T].Bytes += Bytes;
          ++Allocated[T].Objects;
          if (Rng.nextBool(0.1))
            Ring[Rng.nextBelow(Ring.size())].set(Heap, Ref);
        }
      };
      for (unsigned E = 0; E < Epochs; ++E) {
        AllocateEpoch();
        GcSafeRegion Region(Heap);
        std::unique_lock<std::mutex> L(Mu);
        const unsigned Gen = Generation;
        ++Arrived;
        Cv.notify_all();
        Cv.wait(L, [&] { return Generation != Gen; });
      }
      AllocateEpoch();
      Ring.clear();
      Heap.unregisterMutatorThread(Self);
    });

  std::string Error;
  Volume LastLive, Collected;
  for (unsigned E = 0; E < Epochs; ++E) {
    {
      std::unique_lock<std::mutex> L(Mu);
      Cv.wait(L, [&] { return Arrived == Threads; });
    }
    const GcCycleRecord &Rec = Heap.collect(/*Forced=*/true);
    Collected = Exact();
    LastLive = {Rec.LiveBytes, Rec.LiveObjects};
    EXPECT_EQ(Heap.totalAllocatedBytes(), Collected.Bytes) << "epoch " << E;
    EXPECT_EQ(Heap.totalAllocatedObjects(), Collected.Objects)
        << "epoch " << E;
    EXPECT_EQ(Heap.bytesInUse(), Rec.LiveBytes) << "epoch " << E;
    EXPECT_EQ(Heap.objectsInUse(), Rec.LiveObjects) << "epoch " << E;
    EXPECT_TRUE(Heap.verifyHeap(&Error)) << "epoch " << E << ": " << Error;
    std::lock_guard<std::mutex> L(Mu);
    Arrived = 0;
    ++Generation;
    Cv.notify_all();
  }
  for (std::thread &W : Workers)
    W.join();

  const Volume Final = Exact();
  EXPECT_EQ(Heap.totalAllocatedBytes(), Final.Bytes);
  EXPECT_EQ(Heap.totalAllocatedObjects(), Final.Objects);
  EXPECT_EQ(Heap.bytesInUse(),
            LastLive.Bytes + (Final.Bytes - Collected.Bytes));
  EXPECT_EQ(Heap.objectsInUse(),
            LastLive.Objects + (Final.Objects - Collected.Objects));
  EXPECT_TRUE(Heap.verifyHeap(&Error)) << Error;
}

/// Four registered mutators take turns allocating seeded sizes under a
/// sample cadence while the others park, so the test knows the exact total
/// before every allocation. A thread's trigger check sees the folded totals
/// plus its own unfolded volume (DESIGN.md §12.3): a sample collection
/// never fires before GcSampleEveryBytes have been allocated since the
/// previous one, and at most one fold chunk per other mutator, plus the
/// allocation that crosses, after.
TEST(AllocatorStress, MtSampleTriggerLagBounded) {
  constexpr unsigned Threads = 4;
  constexpr uint64_t SampleBytes = 64 * 1024;
  constexpr uint64_t MaxObjectBytes = 512;
  constexpr unsigned Turns = 600;
  GcHeap Heap;
  Heap.setGcSampleEveryBytes(SampleBytes);
  const TypeId Type = registerNodeType(Heap);

  std::mutex Mu;
  std::condition_variable Cv;
  unsigned Ready = 0;
  unsigned Turn = Threads; // nobody's until every mutator registered
  unsigned TurnsLeft = Turns;
  // Touched only by the thread whose turn it is.
  SplitMix64 TurnRng(0x7A9);
  uint64_t TrueBytes = 0;
  std::vector<uint64_t> FiredAt; // exact total before each firing allocation

  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      MutatorThread *Self = Heap.registerMutatorThread();
      SplitMix64 Rng(0x5A3 + T);
      {
        std::lock_guard<std::mutex> L(Mu);
        ++Ready;
        Cv.notify_all();
      }
      while (true) {
        {
          GcSafeRegion Region(Heap);
          std::unique_lock<std::mutex> L(Mu);
          Cv.wait(L, [&] { return Turn == T || TurnsLeft == 0; });
          if (TurnsLeft == 0)
            break;
        }
        const uint64_t Burst = 1 + TurnRng.nextBelow(48);
        for (uint64_t I = 0; I < Burst; ++I) {
          const uint64_t Bytes = 8 + 8 * Rng.nextBelow(MaxObjectBytes / 8);
          const uint64_t Cycles = Heap.cycleCount();
          allocNode(Heap, Type, 0, Bytes);
          if (Heap.cycleCount() != Cycles)
            FiredAt.push_back(TrueBytes);
          TrueBytes += Bytes;
        }
        std::lock_guard<std::mutex> L(Mu);
        --TurnsLeft;
        Turn = static_cast<unsigned>(TurnRng.nextBelow(Threads));
        Cv.notify_all();
      }
      Heap.unregisterMutatorThread(Self);
    });
  {
    std::unique_lock<std::mutex> L(Mu);
    Cv.wait(L, [&] { return Ready == Threads; });
    Turn = 0;
    Cv.notify_all();
  }
  for (std::thread &W : Workers)
    W.join();

  ASSERT_FALSE(FiredAt.empty());
  EXPECT_EQ(Heap.cycleCount(), FiredAt.size());
  EXPECT_EQ(Heap.totalAllocatedBytes(), TrueBytes);
  const uint64_t Lag =
      (Threads - 1) * GcHeap::AllocFoldChunkBytes + MaxObjectBytes;
  uint64_t Previous = 0;
  for (size_t K = 0; K < FiredAt.size(); ++K) {
    EXPECT_GE(FiredAt[K] - Previous, SampleBytes) << "sample " << K;
    EXPECT_LT(FiredAt[K] - Previous, SampleBytes + Lag) << "sample " << K;
    Previous = FiredAt[K];
  }
  EXPECT_LT(TrueBytes - Previous, SampleBytes + Lag)
      << "the cadence stopped after sample " << FiredAt.size();
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
    // Registered, so that GcThreads > 1 collects on the worker pool.
    const uint64_t PoolTasks = metricValue("cham.gc.pool_tasks");
    MutatorScope Mutator(*RT);
    apps::TvlaConfig App;
    App.NumStates = 500;
    App.LiveWindow = 300;
    apps::runTvla(*RT, App);
    RT->heap().collect(true);
    if (GcThreads > 1) {
      EXPECT_GT(metricValue("cham.gc.pool_tasks"), PoolTasks);
    }
    RT->harvestLiveStatistics();
    return profileSignature(*RT);
  };

  std::string Baseline = Run(1, /*UseCaches=*/true);
  ASSERT_FALSE(Baseline.empty());
  for (unsigned GcThreads : {1u, 2u, 8u}) {
    EXPECT_EQ(Run(GcThreads, false), Baseline)
        << "locked path diverged at GcThreads=" << GcThreads;
    if (GcThreads != 1) {
      EXPECT_EQ(Run(GcThreads, true), Baseline)
          << "cached path diverged at GcThreads=" << GcThreads;
    }
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
/// report must be byte-identical with the caches on and off (no trigger is
/// configured, so collections run only at the epoch barriers; the
/// task-ordered replay keeps the folds identical).
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
