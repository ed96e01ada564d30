//===--- GcHeap.cpp - Managed heap with a collection-aware GC ------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/GcHeap.h"

#include "obs/DecisionLog.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "runtime/CentralFreeList.h"
#include "support/Assert.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_set>

using namespace chameleon;

GcTracer::~GcTracer() = default;
HeapObject::~HeapObject() = default;
HeapProfilerHooks::~HeapProfilerHooks() = default;

void HeapObject::trace(GcTracer &Tracer) const { (void)Tracer; }

namespace {

// Process-wide GC accounting (cham.gc.*, DESIGN.md §11). Sums over every
// heap instance; the per-heap accessors stay authoritative for tests.
CHAM_METRIC_COUNTER(GcCycles, "cham.gc.cycles");
CHAM_METRIC_COUNTER(GcForcedCycles, "cham.gc.forced_cycles");
CHAM_METRIC_COUNTER(GcEmergencyCollects, "cham.gc.emergency_collects");
CHAM_METRIC_COUNTER(GcFreedBytes, "cham.gc.freed_bytes");
CHAM_METRIC_COUNTER(GcFreedObjects, "cham.gc.freed_objects");
CHAM_METRIC_GAUGE(GcBytesInUse, "cham.gc.bytes_in_use");
CHAM_METRIC_GAUGE(GcObjectsInUse, "cham.gc.objects_in_use");
// GC pause and safepoint stall as HDR (log-linear) histograms: bounded
// 3.125% relative error at any magnitude, so the exporters can render
// honest p50/p90/p99/p999 tail percentiles (DESIGN.md §16).
CHAM_METRIC_HDR(GcPauseHdrNanos, "cham.gc.pause_hdr_nanos");
CHAM_METRIC_HDR(SafepointStallHdrNanos, "cham.gc.safepoint_stall_hdr_nanos");

// Slot-grant side of the allocation substrate (cham.alloc.*, DESIGN.md
// §12). Hits are tallied per thread (MutatorThread::SlotHits) and drained
// here at refills and flushes, so the hot path never touches an atomic.
CHAM_METRIC_COUNTER(AllocSlotCacheHits, "cham.alloc.slot_cache_hits");
CHAM_METRIC_COUNTER(AllocSlotRefills, "cham.alloc.slot_refills");
CHAM_METRIC_COUNTER(AllocLockedFallbacks, "cham.alloc.locked_fallbacks");

/// Monotonic heap-instance ids: a heap constructed at a destroyed heap's
/// address gets a different id, so the thread-local mutator cache below can
/// never resolve against the wrong heap.
std::atomic<uint64_t> NextHeapInstanceId{1};

/// Which heap (by instance id) the calling thread is registered with, and
/// its MutatorThread record there. One registration per thread at a time.
struct TlsMutatorCache {
  uint64_t HeapId = 0;
  MutatorThread *M = nullptr;
};
thread_local TlsMutatorCache TheTlsMutator;

} // namespace

GcHeap::GcHeap(MemoryModel Model, uint64_t HeapLimitBytes)
    : Model(Model), HeapLimitBytes(HeapLimitBytes),
      Chunks(new std::atomic<SlotChunk *>[MaxSlotChunks]()),
      InstanceId(NextHeapInstanceId.fetch_add(1, std::memory_order_relaxed)) {
  Main.ThreadId = std::this_thread::get_id();
}

GcHeap::~GcHeap() {
  for (uint32_t I = 0; I < MaxSlotChunks; ++I)
    delete Chunks[I].load(std::memory_order_relaxed);
}

void GcHeap::setGcThreads(unsigned Threads) {
  assert(Threads >= 1 && "need at least one collector thread");
  assert(!InCollection && "changing thread count during a GC cycle");
  if (Threads != GcThreads)
    Pool.reset();
  GcThreads = Threads;
}

void GcHeap::runOnWorkers(const std::function<void(unsigned)> &Task) {
  if (!Pool || Pool->workerCount() != GcThreads)
    Pool = std::make_unique<GcWorkerPool>(GcThreads);
  Pool->run(Task);
}

//===----------------------------------------------------------------------===//
// Mutator threads and safepoints (DESIGN.md §9)
//===----------------------------------------------------------------------===//

MutatorThread *GcHeap::selfMutatorOrNull() {
  if (TheTlsMutator.HeapId == InstanceId)
    return TheTlsMutator.M;
  return nullptr;
}

MutatorThread &GcHeap::rootOwnerSlow() {
  if (MutatorThread *M = selfMutatorOrNull())
    return *M;
  return Main;
}

MutatorThread *GcHeap::registerMutatorThread() {
  assert(TheTlsMutator.M == nullptr
         && "thread is already registered as a mutator");
  auto Rec = std::make_unique<MutatorThread>();
  Rec->ThreadId = std::this_thread::get_id();
  Rec->Registered = true;
  MutatorThread *M = Rec.get();
  {
    std::unique_lock<std::mutex> L(SpMu);
    // Never admit a new running mutator mid-stop-the-world: the initiator
    // enumerated the registered set when it began waiting.
    SpCv.wait(L, [&] {
      return !SafepointRequested.load(std::memory_order_relaxed);
    });
    Mutators.push_back(std::move(Rec));
    MutatorsActive.store(true, std::memory_order_release);
  }
  TheTlsMutator = {InstanceId, M};
  return M;
}

void GcHeap::unregisterMutatorThread(MutatorThread *M) {
  assert(M && M->Registered && "unregistering an unregistered mutator");
  assert(selfMutatorOrNull() == M
         && "mutators must unregister on their own thread");
  assert(M->TempRootDepth == 0 && "unregistering with live temp roots");

  std::unique_lock<std::mutex> L(SpMu);
  while (SafepointRequested.load(std::memory_order_relaxed)) {
    // A stop-the-world is pending: park so it proceeds, retry after.
    M->AtSafepoint = true;
    SpCv.notify_all();
    SpCv.wait(L, [&] {
      return !SafepointRequested.load(std::memory_order_relaxed);
    });
    M->AtSafepoint = false;
  }

  // Return the thread's ungranted cached slots and fold its allocation
  // volume; after this record goes inactive nothing would ever flush them.
  // The world is running, so no un-bump (that needs a stable frontier) —
  // entries go back on FreeSlots under SlotMu against concurrent refills.
  {
    SpinLockGuard SlotGuard(SlotMu);
    flushSlotCache(*M, /*StoppedWorld=*/false);
  }
  foldAllocations(*M);

  // Splice surviving roots into the main segment so handles created on
  // this thread stay valid after it exits. removeRoot is positional, so
  // the handles themselves need no update.
  while (RootNode *Node = M->RootsHead.Next) {
    M->RootsHead.Next = Node->Next;
    if (Node->Next)
      Node->Next->Prev = &M->RootsHead;
    Node->Prev = &Main.RootsHead;
    Node->Next = Main.RootsHead.Next;
    if (Main.RootsHead.Next)
      Main.RootsHead.Next->Prev = Node;
    Main.RootsHead.Next = Node;
  }

  M->Registered = false;
  bool AnyRegistered = false;
  for (const std::unique_ptr<MutatorThread> &Rec : Mutators)
    AnyRegistered |= Rec->Registered;
  MutatorsActive.store(AnyRegistered, std::memory_order_release);
  TheTlsMutator = {0, nullptr};
}

void GcHeap::safepointSlow() {
  MutatorThread *M = selfMutatorOrNull();
  if (!M)
    return; // unregistered threads don't participate in the handshake
  auto StallStart = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> L(SpMu);
  while (SafepointRequested.load(std::memory_order_relaxed)) {
    M->AtSafepoint = true;
    SpCv.notify_all();
    SpCv.wait(L, [&] {
      return !SafepointRequested.load(std::memory_order_relaxed);
    });
  }
  M->AtSafepoint = false;
  SafepointStallHdrNanos.observe(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - StallStart)
          .count()));
}

void GcHeap::enterSafeRegion() {
  MutatorThread *M = selfMutatorOrNull();
  if (!M)
    return;
  std::lock_guard<std::mutex> L(SpMu);
  M->AtSafepoint = true;
  SpCv.notify_all();
}

void GcHeap::leaveSafeRegion() {
  MutatorThread *M = selfMutatorOrNull();
  if (!M)
    return;
  std::unique_lock<std::mutex> L(SpMu);
  SpCv.wait(L, [&] {
    return !SafepointRequested.load(std::memory_order_relaxed);
  });
  M->AtSafepoint = false;
}

//===----------------------------------------------------------------------===//
// Allocation
//===----------------------------------------------------------------------===//

ObjectRef GcHeap::allocate(std::unique_ptr<HeapObject> Obj) {
  assert(Obj && "allocating a null object");

  // Every allocation in the system funnels through here, so this one site
  // lets a fault plan fail any allocation (inside a migration transaction)
  // or force a collection at any allocation instant.
  CHAM_FAULT_GC("gc.alloc", *this);

  // Lock-free fast path: a cached slot grant, a placement, and the volume
  // counted on the calling thread. Falls back to the serialised path
  // whenever a trigger condition holds (allocTriggersPending), so every
  // trigger decision is still made under AllocMu.
  ObjectRef Ref;
  if (UseThreadCaches && allocateFast(Obj, Ref))
    return Ref;

  if (!MutatorsActive.load(std::memory_order_acquire))
    return allocateLocked(std::move(Obj));

  AllocLockedFallbacks.inc();
  std::unique_lock<std::mutex> AL(AllocMu, std::defer_lock);
  {
    // Park while blocked on the allocation lock so a pending
    // stop-the-world — possibly initiated by the current lock holder's
    // pressure collection — proceeds without waiting for us.
    GcSafeRegion Region(*this);
    AL.lock();
  }
  return allocateLocked(std::move(Obj));
}

bool GcHeap::allocTriggersPending(const MutatorThread &M,
                                  uint64_t Bytes) const {
  // Each of the four triggers needs a sample cadence, a soft limit or a
  // hard limit; the replays configure none.
  if ((GcSampleEveryBytes | SoftLimitBytes | HeapLimitBytes) == 0)
    return false;
  // The triggers evaluated on what this thread can see without touching
  // another thread's record: the folded totals plus its own unfolded
  // volume. With no other thread allocating that is exactly what
  // allocateLocked sees after its fold; otherwise each other running
  // mutator holds back less than AllocFoldChunkBytes, so a collection
  // trigger can fire that much late, never early (DESIGN.md §12.3).
  const uint64_t Total =
      TotalAllocatedBytes.load(std::memory_order_relaxed) + M.UnfoldedBytes;
  const uint64_t InUse =
      BytesInUse.load(std::memory_order_relaxed) + M.UnfoldedBytes;
  const bool Oom = OomFlag.load(std::memory_order_relaxed);
  return sampleDue(Total) || emergencyDue(Total, InUse, Bytes, Oom)
         || pressureCleared(InUse, Bytes) || overHeapLimit(InUse, Bytes, Oom);
}

bool GcHeap::allocateFast(std::unique_ptr<HeapObject> &Obj,
                          ObjectRef &RefOut) {
  const uint64_t Bytes = Obj->shallowBytes();
  MutatorThread &M = rootOwner();
  if (allocTriggersPending(M, Bytes))
    return false;
  const uint32_t Slot = grantSlot(M);
  std::unique_ptr<HeapObject> &Cell = slotRef(Slot);
  assert(!Cell && "granted slot still occupied");
  Cell = std::move(Obj);
  HeapObject &Placed = *Cell;
  Placed.Self = ObjectRef::fromSlot(Slot);
  if (&M == &Main) {
    // Unregistered: the heap's only running mutator.
    BytesInUse.fetch_add(Bytes, std::memory_order_relaxed);
    ObjectsInUse.fetch_add(1, std::memory_order_relaxed);
    TotalAllocatedBytes.fetch_add(Bytes, std::memory_order_relaxed);
    TotalAllocatedObjects.fetch_add(1, std::memory_order_relaxed);
  } else {
    M.UnfoldedBytes += Bytes;
    ++M.UnfoldedObjects;
    if (M.UnfoldedBytes >= AllocFoldChunkBytes)
      foldAllocations(M);
  }
  RefOut = Placed.Self;
  return true;
}

void GcHeap::foldAllocations(MutatorThread &M) {
  if (M.UnfoldedObjects == 0)
    return;
  BytesInUse.fetch_add(M.UnfoldedBytes, std::memory_order_relaxed);
  ObjectsInUse.fetch_add(M.UnfoldedObjects, std::memory_order_relaxed);
  TotalAllocatedBytes.fetch_add(M.UnfoldedBytes, std::memory_order_relaxed);
  TotalAllocatedObjects.fetch_add(M.UnfoldedObjects,
                                  std::memory_order_relaxed);
  M.UnfoldedBytes = 0;
  M.UnfoldedObjects = 0;
}

uint32_t GcHeap::grantSlot(MutatorThread &M) {
  if (M.SlotCachePos == M.SlotCache.size())
    refillSlotCache(M);
  else
    ++M.SlotHits;
  return M.SlotCache[M.SlotCachePos++] & SlotIndexMask;
}

void GcHeap::refillSlotCache(MutatorThread &M) {
  M.SlotCache.clear();
  M.SlotCachePos = 0;
  // Single-threaded heaps skip the spinlock entirely; with mutators active
  // it guards FreeSlots and the bump frontier against concurrent refills
  // (and against the flush in unregisterMutatorThread).
  const bool Locked = MutatorsActive.load(std::memory_order_relaxed);
  if (Locked)
    SlotMu.lock();
  for (uint32_t I = 0; I < SlotCacheBatch; ++I) {
    if (!FreeSlots.empty()) {
      // LIFO pops into a FIFO cache: served in exactly the order the
      // locked path would have popped them.
      M.SlotCache.push_back(FreeSlots.back());
      FreeSlots.pop_back();
      continue;
    }
    const uint32_t Slot = SlotCount.load(std::memory_order_relaxed);
    const uint32_t ChunkIdx = Slot >> SlotChunkShift;
    assert(ChunkIdx < MaxSlotChunks && "slot table exhausted");
    if (!Chunks[ChunkIdx].load(std::memory_order_relaxed))
      Chunks[ChunkIdx].store(new SlotChunk(), std::memory_order_release);
    // Publishing the count before the cell is filled is safe: the cell is
    // empty until this thread places an object in it, and no reference to
    // the slot can exist before that placement.
    SlotCount.store(Slot + 1, std::memory_order_release);
    M.SlotCache.push_back(Slot | SlotBumpTag);
  }
  if (Locked)
    SlotMu.unlock();
  AllocSlotRefills.inc();
  if (M.SlotHits != 0) {
    AllocSlotCacheHits.add(M.SlotHits);
    M.SlotHits = 0;
  }
}

void GcHeap::flushSlotCache(MutatorThread &M, bool StoppedWorld) {
  // Reverse order: within one cache the bump-carved entries sit at the
  // tail in ascending slot order, so walking backwards un-bumps a maximal
  // frontier-adjacent suffix and re-pushes recycled entries in exactly the
  // order the locked path would have left them on FreeSlots.
  while (M.SlotCache.size() > M.SlotCachePos) {
    const uint32_t Entry = M.SlotCache.back();
    M.SlotCache.pop_back();
    const uint32_t Slot = Entry & SlotIndexMask;
    if (StoppedWorld && (Entry & SlotBumpTag) != 0
        && Slot + 1 == SlotCount.load(std::memory_order_relaxed)) {
      assert(!slotRef(Slot) && "un-bumping an occupied slot");
      SlotCount.store(Slot, std::memory_order_release);
      continue;
    }
    FreeSlots.push_back(Slot);
  }
  M.SlotCache.clear();
  M.SlotCachePos = 0;
  if (M.SlotHits != 0) {
    AllocSlotCacheHits.add(M.SlotHits);
    M.SlotHits = 0;
  }
}

void GcHeap::flushAllSlotCaches() {
  flushSlotCache(Main, /*StoppedWorld=*/true);
  for (const std::unique_ptr<MutatorThread> &Mut : Mutators)
    flushSlotCache(*Mut, /*StoppedWorld=*/true);
}

void GcHeap::setUseThreadCaches(bool On) {
  assert(!InCollection && "changing allocator mode during a GC cycle");
  if (On == UseThreadCaches)
    return;
  flushAllSlotCaches();
  UseThreadCaches = On;
}

ObjectRef GcHeap::allocateLocked(std::unique_ptr<HeapObject> Obj) {
  assert(Obj && "allocating a null object");
  assert(!InCollection && "allocation during a GC cycle");

  // Fold the caller's own fast-path volume first, so a thread allocating
  // alone evaluates every trigger against the exact totals.
  foldAllocations(rootOwner());

  uint64_t Bytes = Obj->shallowBytes();
  if (sampleDue(totalAllocatedBytes())) {
    // collectStopped restarts the cadence at the stop (PendingSample).
    PendingSample = true;
    collect(/*Forced=*/true);
  }
  // Soft limit (graceful degradation): crossing it buys an emergency
  // collect-then-shrink pass, rate-limited by allocation volume so a long
  // over-limit plateau does not collect on every allocation. Staying over
  // even after that tells the profiler hooks to start shedding.
  if (emergencyDue(totalAllocatedBytes(), bytesInUse(), Bytes,
                   outOfMemory())) {
    ++EmergencyCollects;
    GcEmergencyCollects.inc();
    CHAM_TRACE_INSTANT_ARG("gc", "emergency_collect", "bytes",
                           static_cast<int64_t>(bytesInUse()));
    // The shrink must run while the world is still stopped — a concurrent
    // cache refill reads FreeSlots — so collectStopped performs it after
    // the sweep, and restarts the rate limit at the stop (PendingEmergency).
    PendingEmergency = true;
    collect(/*Forced=*/false);
    if (bytesInUse() + Bytes > SoftLimitBytes) {
      UnderPressure.store(true, std::memory_order_relaxed);
      CHAM_TRACE_INSTANT_ARG("gc", "heap_pressure", "bytes",
                             static_cast<int64_t>(bytesInUse()));
      if (Hooks)
        Hooks->onHeapPressure(bytesInUse(), SoftLimitBytes);
    }
  }
  if (pressureCleared(bytesInUse(), Bytes)) {
    UnderPressure.store(false, std::memory_order_relaxed);
    CHAM_TRACE_INSTANT("gc", "heap_pressure_cleared");
    if (Hooks)
      Hooks->onHeapPressureCleared();
  }
  // Once out of memory the run is already failed; collecting on every
  // further allocation would only slow the program's (short) path to
  // noticing the flag.
  if (overHeapLimit(bytesInUse(), Bytes, outOfMemory())) {
    const GcCycleRecord &Rec = collect(/*Forced=*/false);
    if (bytesInUse() + Bytes > HeapLimitBytes) {
      OomFlag.store(true, std::memory_order_relaxed);
    } else if (HeapLimitBytes - (bytesInUse() + Bytes)
               < static_cast<uint64_t>(
                   MinFreeFraction * static_cast<double>(HeapLimitBytes))) {
      // Too little breathing room: the program would spend its remaining
      // life collecting. Fail fast, as HotSpot's overhead criterion does.
      OomFlag.store(true, std::memory_order_relaxed);
    }
    // Second overhead guard: repeated pressure collections that reclaim
    // almost nothing.
    if (Rec.FreedBytes < HeapLimitBytes / 64) {
      if (++LowYieldStreak >= GcOverheadLimit)
        OomFlag.store(true, std::memory_order_relaxed);
    } else {
      LowYieldStreak = 0;
    }
  }

  uint32_t Slot;
  if (UseThreadCaches) {
    // Grant through the cache even on the slow path, so the slot sequence
    // a thread observes is one stream regardless of which path served it.
    Slot = grantSlot(rootOwner());
    std::unique_ptr<HeapObject> &Cell = slotRef(Slot);
    assert(!Cell && "granted slot still occupied");
    Cell = std::move(Obj);
  } else if (!FreeSlots.empty()) {
    Slot = FreeSlots.back();
    FreeSlots.pop_back();
    std::unique_ptr<HeapObject> &Cell = slotRef(Slot);
    assert(!Cell && "free slot still occupied");
    Cell = std::move(Obj);
  } else {
    Slot = SlotCount.load(std::memory_order_relaxed);
    uint32_t ChunkIdx = Slot >> SlotChunkShift;
    assert(ChunkIdx < MaxSlotChunks && "slot table exhausted");
    if (!Chunks[ChunkIdx].load(std::memory_order_relaxed))
      Chunks[ChunkIdx].store(new SlotChunk(), std::memory_order_release);
    Chunks[ChunkIdx].load(std::memory_order_relaxed)
        ->Objs[Slot & (SlotChunkCapacity - 1)] = std::move(Obj);
    // Publish the slot after its contents: a concurrent reader that sees
    // the new count also sees the object (chunks never move).
    SlotCount.store(Slot + 1, std::memory_order_release);
  }

  HeapObject &Placed = *slotRef(Slot);
  Placed.Self = ObjectRef::fromSlot(Slot);
  BytesInUse.fetch_add(Bytes, std::memory_order_relaxed);
  ObjectsInUse.fetch_add(1, std::memory_order_relaxed);
  TotalAllocatedBytes.fetch_add(Bytes, std::memory_order_relaxed);
  TotalAllocatedObjects.fetch_add(1, std::memory_order_relaxed);
  return Placed.Self;
}

void GcHeap::shrinkSlotTable() {
  uint32_t Count = SlotCount.load(std::memory_order_relaxed);
  uint32_t NewCount = Count;
  while (NewCount > 0 && !slotRef(NewCount - 1))
    --NewCount;
  if (NewCount == Count)
    return;
  FreeSlots.erase(std::remove_if(FreeSlots.begin(), FreeSlots.end(),
                                 [NewCount](uint32_t Slot) {
                                   return Slot >= NewCount;
                                 }),
                  FreeSlots.end());
  // Concurrent lock-free readers only dereference live references, all of
  // which sit below NewCount; shrinking the published count and freeing the
  // wholly-trailing chunks can therefore never race with them.
  SlotCount.store(NewCount, std::memory_order_release);
  uint32_t FirstNeededChunk = (NewCount + SlotChunkCapacity - 1)
                              >> SlotChunkShift;
  uint32_t FirstUnusedChunk = (Count + SlotChunkCapacity - 1)
                              >> SlotChunkShift;
  for (uint32_t C = FirstNeededChunk; C < FirstUnusedChunk; ++C) {
    delete Chunks[C].load(std::memory_order_relaxed);
    Chunks[C].store(nullptr, std::memory_order_release);
  }
}

//===----------------------------------------------------------------------===//
// Marking
//===----------------------------------------------------------------------===//

/// Worklist-based marker. Recursion would overflow the C++ stack on long
/// linked-list chains, so tracing is iterative.
class GcHeap::Marker : public GcTracer {
public:
  explicit Marker(GcHeap &Heap) : Heap(Heap), Bits(Heap.MarkBits.data()) {
    // The worklist can never hold more than every live object at once;
    // objectsInUse() is a tight upper bound that avoids regrowth churn.
    Worklist.reserve(Heap.objectsInUse());
  }

  /// Drains the worklist, invoking \p OnMarked for each newly marked object.
  template <typename CallbackT> void run(CallbackT OnMarked) {
    while (!Worklist.empty()) {
      HeapObject *Obj = Worklist.back();
      Worklist.pop_back();
      OnMarked(*Obj);
      Obj->trace(*this);
    }
  }

private:
  /// Tests and sets the slot's mark bit; a reference to an object already
  /// marked never loads that object.
  void visitRef(ObjectRef Ref) override {
    const uint32_t Slot = Ref.slot();
    assert(Slot / 64 < Heap.MarkBits.size() && "ObjectRef beyond slot table");
    uint64_t &Word = Bits[Slot / 64];
    const uint64_t Bit = uint64_t(1) << (Slot % 64);
    if (Word & Bit)
      return;
    Word |= Bit;
    Worklist.push_back(&Heap.get(Ref));
  }

  GcHeap &Heap;
  uint64_t *Bits;
  std::vector<HeapObject *> Worklist;
};

void GcHeap::markPhase(GcCycleRecord &Record, bool OnPool) {
  if (OnPool) {
    markPhaseParallel(Record);
    return;
  }
  Marker M(*this);
  auto SeedRoots = [&M](const MutatorThread &Mut) {
    for (RootNode *Node = Mut.RootsHead.Next; Node; Node = Node->Next)
      M.visit(Node->Ref);
    for (unsigned I = 0; I < Mut.TempRootDepth; ++I)
      M.visit(Mut.TempRoots[I]);
  };
  SeedRoots(Main);
  for (const std::unique_ptr<MutatorThread> &Mut : Mutators)
    SeedRoots(*Mut); // unregistered records have empty lists

  std::vector<uint64_t> TypeBytes;
  if (RecordTypeDistribution)
    TypeBytes.resize(Types.size(), 0);

  M.run([&](HeapObject &Obj) {
    Record.LiveBytes += Obj.shallowBytes();
    ++Record.LiveObjects;
    if (RecordTypeDistribution)
      TypeBytes[Obj.typeId()] += Obj.shallowBytes();

    const SemanticMap &Map = Types.get(Obj.typeId());
    if (Map.Kind != TypeKind::CollectionWrapper)
      return;

    CollectionSizes Sizes = Map.ComputeSizes(Obj, *this);
    Record.CollectionLiveBytes += Sizes.Live;
    Record.CollectionUsedBytes += Sizes.Used;
    Record.CollectionCoreBytes += Sizes.Core;
    ++Record.CollectionObjects;
    if (Hooks) {
      void *Tag = Map.ContextTagOf ? Map.ContextTagOf(Obj) : nullptr;
      Hooks->onLiveCollection(Obj, Sizes, Tag);
    }
  });

  if (RecordTypeDistribution) {
    for (TypeId T = 0; T < TypeBytes.size(); ++T)
      if (TypeBytes[T] != 0)
        Record.TypeDistribution.emplace_back(T, TypeBytes[T]);
  }
}

/// The multi-threaded tracing phase (paper §4.3.2). An object is claimed
/// by the atomic OR that sets its mark bit, so each is processed by
/// exactly one worker; every statistic is a commutative sum, so the cycle
/// record is identical to the sequential marker's. Collection events
/// (wrapper, sizes, context tag) are buffered per worker and replayed on
/// the calling thread after the join, because the profiler hooks are not
/// thread-safe.
class GcHeap::ParallelMarker {
public:
  struct CollectionEvent {
    const HeapObject *Obj;
    CollectionSizes Sizes;
    void *Tag;
  };

  struct WorkerState {
    uint64_t LiveBytes = 0;
    uint64_t LiveObjects = 0;
    std::vector<uint64_t> TypeBytes;
    std::vector<CollectionEvent> Events;
  };

  ParallelMarker(GcHeap &Heap, unsigned Threads)
      : Heap(Heap), Bits(Heap.MarkBits.data()), Threads(Threads),
        States(Threads) {
    if (Heap.RecordTypeDistribution)
      for (WorkerState &State : States)
        State.TypeBytes.resize(Heap.Types.size(), 0);
  }

  /// Claims the non-null \p Ref for this cycle; returns the object when
  /// this call's OR set its mark bit. A relaxed load first skips the
  /// read-modify-write for an object already marked. The pool's barrier
  /// orders every mark before the sweep's plain reads of the bits.
  HeapObject *claim(ObjectRef Ref) {
    const uint32_t Slot = Ref.slot();
    assert(Slot / 64 < Heap.MarkBits.size() && "ObjectRef beyond slot table");
    std::atomic_ref<uint64_t> Word(Bits[Slot / 64]);
    const uint64_t Bit = uint64_t(1) << (Slot % 64);
    if (Word.load(std::memory_order_relaxed) & Bit)
      return nullptr;
    if (Word.fetch_or(Bit, std::memory_order_acq_rel) & Bit)
      return nullptr; // another worker got it
    return &Heap.get(Ref);
  }

  /// Seeds the shared worklist from every thread's roots (calling thread).
  void seed() {
    auto Seed = [this](ObjectRef Ref) {
      if (!Ref.isNull())
        if (HeapObject *Obj = claim(Ref))
          Shared.push_back(Obj);
    };
    auto SeedRoots = [&Seed](const MutatorThread &Mut) {
      for (RootNode *Node = Mut.RootsHead.Next; Node; Node = Node->Next)
        Seed(Node->Ref);
      for (unsigned I = 0; I < Mut.TempRootDepth; ++I)
        Seed(Mut.TempRoots[I]);
    };
    SeedRoots(Heap.Main);
    for (const std::unique_ptr<MutatorThread> &Mut : Heap.Mutators)
      SeedRoots(*Mut);
  }

  void run() {
    Heap.runOnWorkers([this](unsigned T) {
      CHAM_TRACE_SPAN_ARG("gc", "mark.worker", "worker",
                          static_cast<int64_t>(T));
      workerLoop(States[T]);
    });
  }

  /// Folds the per-worker results into \p Record and replays collection
  /// events through the profiler hooks. Calling thread only.
  void finish(GcCycleRecord &Record, std::vector<uint64_t> *TypeBytes) {
    for (WorkerState &State : States) {
      Record.LiveBytes += State.LiveBytes;
      Record.LiveObjects += State.LiveObjects;
      if (TypeBytes)
        for (size_t I = 0; I < State.TypeBytes.size(); ++I)
          (*TypeBytes)[I] += State.TypeBytes[I];
      for (const CollectionEvent &Event : State.Events) {
        Record.CollectionLiveBytes += Event.Sizes.Live;
        Record.CollectionUsedBytes += Event.Sizes.Used;
        Record.CollectionCoreBytes += Event.Sizes.Core;
        ++Record.CollectionObjects;
        if (Heap.Hooks)
          Heap.Hooks->onLiveCollection(*Event.Obj, Event.Sizes,
                                       Event.Tag);
      }
    }
  }

private:
  /// A tracer that claims children into the worker's local stack.
  class WorkerTracer : public GcTracer {
  public:
    WorkerTracer(ParallelMarker &Parent,
                 std::vector<HeapObject *> &Local)
        : Parent(Parent), Local(Local) {}

  private:
    void visitRef(ObjectRef Ref) override {
      if (HeapObject *Obj = Parent.claim(Ref))
        Local.push_back(Obj);
    }

    ParallelMarker &Parent;
    std::vector<HeapObject *> &Local;
  };

  void process(HeapObject &Obj, WorkerState &State,
               WorkerTracer &Tracer) {
    State.LiveBytes += Obj.shallowBytes();
    ++State.LiveObjects;
    if (!State.TypeBytes.empty())
      State.TypeBytes[Obj.typeId()] += Obj.shallowBytes();

    const SemanticMap &Map = Heap.Types.get(Obj.typeId());
    if (Map.Kind == TypeKind::CollectionWrapper) {
      CollectionEvent Event;
      Event.Obj = &Obj;
      Event.Sizes = Map.ComputeSizes(Obj, Heap);
      Event.Tag = Map.ContextTagOf ? Map.ContextTagOf(Obj) : nullptr;
      State.Events.push_back(Event);
    }
    Obj.trace(Tracer);
  }

  void workerLoop(WorkerState &State) {
    std::vector<HeapObject *> Local;
    WorkerTracer Tracer(*this, Local);
    while (true) {
      if (Local.empty() && !refill(Local))
        return;
      HeapObject *Obj = Local.back();
      Local.pop_back();
      process(*Obj, State, Tracer);
      // Share surplus work so idle workers can steal it.
      if (Local.size() > SpillThreshold)
        spill(Local);
    }
  }

  /// Moves half of an oversized local stack into the shared queue.
  void spill(std::vector<HeapObject *> &Local) {
    std::unique_lock<std::mutex> Lock(Mu, std::try_to_lock);
    if (!Lock.owns_lock())
      return; // contended: keep the work local, try again later
    size_t Half = Local.size() / 2;
    Shared.insert(Shared.end(), Local.begin(),
                  Local.begin() + static_cast<long>(Half));
    Local.erase(Local.begin(), Local.begin() + static_cast<long>(Half));
    Cv.notify_all();
  }

  /// Blocks until shared work arrives or all workers are idle.
  /// \returns false when marking is complete.
  bool refill(std::vector<HeapObject *> &Local) {
    std::unique_lock<std::mutex> Lock(Mu);
    ++Waiting;
    while (Shared.empty()) {
      if (Waiting == Threads) {
        Done = true;
        Cv.notify_all();
      }
      if (Done)
        return false;
      Cv.wait(Lock);
    }
    --Waiting;
    size_t Take = std::min<size_t>(Shared.size(), ChunkSize);
    Local.insert(Local.end(), Shared.end() - static_cast<long>(Take),
                 Shared.end());
    Shared.resize(Shared.size() - Take);
    return true;
  }

  static constexpr size_t SpillThreshold = 2048;
  static constexpr size_t ChunkSize = 512;

  GcHeap &Heap;
  uint64_t *Bits;
  unsigned Threads;
  std::vector<WorkerState> States;

  std::mutex Mu;
  std::condition_variable Cv;
  std::vector<HeapObject *> Shared;
  unsigned Waiting = 0;
  bool Done = false;
};

void GcHeap::markPhaseParallel(GcCycleRecord &Record) {
  ParallelMarker Marker(*this, GcThreads);
  Marker.seed();
  Marker.run();

  std::vector<uint64_t> TypeBytes;
  if (RecordTypeDistribution)
    TypeBytes.resize(Types.size(), 0);
  Marker.finish(Record, RecordTypeDistribution ? &TypeBytes : nullptr);

  if (RecordTypeDistribution) {
    for (TypeId T = 0; T < TypeBytes.size(); ++T)
      if (TypeBytes[T] != 0)
        Record.TypeDistribution.emplace_back(T, TypeBytes[T]);
  }
}

//===----------------------------------------------------------------------===//
// Sweeping
//===----------------------------------------------------------------------===//

namespace {
/// Walks, in ascending order, the unmarked slots of the mark-bit words
/// [BeginWord, EndWord) below NumSlots: the sweep's candidates. A set bit
/// is a live object the sweep never loads; an unmarked slot is dead or
/// free (its cell is null).
class UnmarkedSlots {
public:
  UnmarkedSlots(const uint64_t *Bits, uint32_t BeginWord, uint32_t EndWord,
                uint32_t NumSlots)
      : Bits(Bits), Word(BeginWord), EndWord(EndWord), NumSlots(NumSlots) {}

  /// Stores the next unmarked slot in \p Slot; false once none is left.
  bool next(uint32_t &Slot) {
    while (Pending == 0) {
      if (Word == EndWord)
        return false;
      Base = Word * 64;
      Pending = ~Bits[Word++];
      // The last word's bits past the slot table are not slots.
      if (NumSlots - Base < 64)
        Pending &= (uint64_t(1) << (NumSlots - Base)) - 1;
    }
    Slot = Base + static_cast<uint32_t>(__builtin_ctzll(Pending));
    Pending &= Pending - 1;
    return true;
  }

private:
  const uint64_t *Bits;
  uint32_t Word;
  uint32_t EndWord;
  uint32_t NumSlots;
  uint32_t Base = 0;
  uint64_t Pending = 0;
};
} // namespace

void GcHeap::sweepPhase(GcCycleRecord &Record, bool OnPool) {
  if (OnPool) {
    sweepPhaseParallel(Record);
    return;
  }
  const uint32_t NumSlots = SlotCount.load(std::memory_order_relaxed);
  UnmarkedSlots Candidates(MarkBits.data(), 0,
                           static_cast<uint32_t>(MarkBits.size()), NumSlots);
  for (uint32_t Slot; Candidates.next(Slot);) {
    std::unique_ptr<HeapObject> &Cell = slotRef(Slot);
    HeapObject *Obj = Cell.get();
    if (!Obj)
      continue;

    const SemanticMap &Map = Types.get(Obj->typeId());
    if (Map.Kind == TypeKind::CollectionWrapper && Hooks) {
      void *Tag = Map.ContextTagOf ? Map.ContextTagOf(*Obj) : nullptr;
      void *Info = Map.ObjectInfoOf ? Map.ObjectInfoOf(*Obj) : nullptr;
      Hooks->onCollectionDeath(*Obj, Tag, Info);
    }

    Record.FreedBytes += Obj->shallowBytes();
    ++Record.FreedObjects;
    BytesInUse.fetch_sub(Obj->shallowBytes(), std::memory_order_relaxed);
    ObjectsInUse.fetch_sub(1, std::memory_order_relaxed);
    Cell.reset();
    FreeSlots.push_back(Slot);
  }
}

/// The multi-threaded sweep. Each worker scans one contiguous range of
/// mark-bit words, loads only the objects of unmarked, occupied slots,
/// destroys every dead object that gets no death event as soon as it has
/// read its size and type, and buffers the rest: the dead slot list, freed
/// byte/object sums, and the death events of profiled wrappers. The calling
/// thread then replays the death events and recycles the slots in
/// ascending slot order — ranges are contiguous and scanned in order, so
/// concatenating the per-worker buffers reproduces exactly the sequential
/// sweep's hook order and FreeSlots order (the latter keeps slot reuse, and
/// therefore future ObjectRefs, byte-identical at any thread count). The
/// same buffering-and-replay discipline ParallelMarker::finish uses. A hook
/// reads only its wrapper (tag and usage record), never the wrapper's dead
/// implementation: the sequential sweep, too, destroys lower-slot objects
/// before later wrappers' hooks run.
void GcHeap::sweepPhaseParallel(GcCycleRecord &Record) {
  struct DeathEvent {
    uint32_t Slot;
    void *Tag;
    void *Info;
  };
  struct SweepState {
    uint64_t FreedBytes = 0;
    uint64_t FreedObjects = 0;
    std::vector<uint32_t> DeadSlots;
    std::vector<DeathEvent> Events;
  };
  // Unmarked slots ahead of the scan whose object and block header are
  // prefetched: each candidate is a dependent load into a cold heap.
  constexpr uint32_t PrefetchDistance = 12;

  const uint32_t NumSlots = SlotCount.load(std::memory_order_relaxed);
  const uint32_t NumWords = static_cast<uint32_t>(MarkBits.size());
  const unsigned Workers = GcThreads;
  const uint32_t ChunkWords = (NumWords + Workers - 1) / Workers;
  std::vector<SweepState> States(Workers);

  runOnWorkers([&](unsigned W) {
    CHAM_TRACE_SPAN_ARG("gc", "sweep.worker", "worker",
                        static_cast<int64_t>(W));
    SweepState &State = States[W];
    uint32_t BeginWord = std::min(W * ChunkWords, NumWords);
    uint32_t EndWord = std::min(BeginWord + ChunkWords, NumWords);
    State.DeadSlots.reserve((EndWord - BeginWord) * 64);
    UnmarkedSlots Candidates(MarkBits.data(), BeginWord, EndWord, NumSlots);
    UnmarkedSlots Ahead = Candidates;
    auto PrefetchNext = [&] {
      uint32_t AheadSlot;
      if (Ahead.next(AheadSlot))
        if (HeapObject *Obj = slotRef(AheadSlot).get()) {
          __builtin_prefetch(alloc::blockOfPayload(Obj));
          __builtin_prefetch(Obj);
        }
    };
    for (uint32_t I = 0; I < PrefetchDistance; ++I)
      PrefetchNext();
    for (uint32_t Slot; Candidates.next(Slot);) {
      PrefetchNext();
      std::unique_ptr<HeapObject> &Cell = slotRef(Slot);
      HeapObject *Obj = Cell.get();
      if (!Obj)
        continue;
      State.FreedBytes += Obj->shallowBytes();
      ++State.FreedObjects;
      State.DeadSlots.push_back(Slot);
      const SemanticMap &Map = Types.get(Obj->typeId());
      if (Map.Kind == TypeKind::CollectionWrapper && Hooks) {
        // Destroyed after its death event replays.
        State.Events.push_back(
            {Slot, Map.ContextTagOf ? Map.ContextTagOf(*Obj) : nullptr,
             Map.ObjectInfoOf ? Map.ObjectInfoOf(*Obj) : nullptr});
        continue;
      }
      Cell.reset();
    }
  });

  // Replay death events on the calling thread (the hooks are not
  // thread-safe), in ascending slot order, while the wrappers are still
  // alive; then destroy the wrappers in parallel (disjoint slots).
  bool AnyEvents = false;
  for (const SweepState &State : States)
    for (const DeathEvent &Event : State.Events) {
      Hooks->onCollectionDeath(*slotRef(Event.Slot), Event.Tag, Event.Info);
      AnyEvents = true;
    }
  if (AnyEvents)
    runOnWorkers([&](unsigned W) {
      for (const DeathEvent &Event : States[W].Events)
        slotRef(Event.Slot).reset();
    });

  for (const SweepState &State : States) {
    Record.FreedBytes += State.FreedBytes;
    Record.FreedObjects += State.FreedObjects;
    BytesInUse.fetch_sub(State.FreedBytes, std::memory_order_relaxed);
    ObjectsInUse.fetch_sub(State.FreedObjects, std::memory_order_relaxed);
    FreeSlots.insert(FreeSlots.end(), State.DeadSlots.begin(),
                     State.DeadSlots.end());
  }
}

//===----------------------------------------------------------------------===//
// Collection driver
//===----------------------------------------------------------------------===//

const GcCycleRecord &GcHeap::collect(bool Forced) {
  if (!MutatorsActive.load(std::memory_order_acquire))
    return collectStopped(Forced);

  // Stop the world: wait out any in-flight request, then claim our own and
  // wait until every registered mutator other than us is parked. The
  // initiator holds SpMu across the whole cycle, so late pollers simply
  // block until the world restarts.
  MutatorThread *Self = selfMutatorOrNull();
  std::unique_lock<std::mutex> L(SpMu);
  while (SafepointRequested.load(std::memory_order_relaxed)) {
    if (Self) {
      Self->AtSafepoint = true;
      SpCv.notify_all();
    }
    SpCv.wait(L, [&] {
      return !SafepointRequested.load(std::memory_order_relaxed);
    });
    if (Self)
      Self->AtSafepoint = false;
  }
  SafepointRequested.store(true, std::memory_order_release);
  SpCv.wait(L, [&] {
    for (const std::unique_ptr<MutatorThread> &Rec : Mutators)
      if (Rec->Registered && Rec.get() != Self && !Rec->AtSafepoint)
        return false;
    return true;
  });

  const GcCycleRecord &Rec = collectStopped(Forced);

  SafepointRequested.store(false, std::memory_order_release);
  SpCv.notify_all();
  return Rec;
}

const GcCycleRecord &GcHeap::collectStopped(bool Forced) {
  assert(!InCollection && "re-entrant collection");
  InCollection = true;
  CHAM_TRACE_SPAN_ARG("gc", "cycle", "cycle",
                      static_cast<int64_t>(CycleRecords.size() + 1));
  auto Start = std::chrono::steady_clock::now();

  // One pool-or-not decision per cycle (DESIGN.md §4). With no registered
  // mutator the calling thread is the heap's only mutator and finds the
  // heap warm in its own cache, where pool workers would find it cold; the
  // pool pays only once other threads have mutated the heap.
  const bool OnPool = GcThreads > 1 && concurrentMutatorsActive();

  // Return every thread's ungranted cached slots first (un-bumping the
  // frontier where possible): the slot table then looks exactly as if the
  // locked path had served every allocation, which keeps sweep order and
  // future slot reuse independent of the caching (DESIGN.md §12).
  flushAllSlotCaches();

  // Fold every thread's allocation volume: the totals are exact from here
  // to the end of the cycle. A sample or emergency cycle restarts its
  // trigger's cadence from this exact total, which the allocating thread's
  // view may have trailed (DESIGN.md §12.3).
  for (const std::unique_ptr<MutatorThread> &Mut : Mutators)
    foldAllocations(*Mut);
  const uint64_t Total = TotalAllocatedBytes.load(std::memory_order_relaxed);
  if (PendingSample) {
    PendingSample = false;
    LastSampleAt.store(Total, std::memory_order_relaxed);
  }
  if (PendingEmergency)
    LastEmergencyAt.store(Total, std::memory_order_relaxed);

  // Let the profiler drain per-thread event buffers before any live/death
  // statistics of this cycle land (DESIGN.md §9: flush precedes fold).
  if (Hooks)
    Hooks->onStopTheWorld();

  // Every mark bit clear, one per slot. Nothing allocates during the
  // cycle, so this size holds through the sweep.
  MarkBits.assign((SlotCount.load(std::memory_order_relaxed) + 63) / 64, 0);
  GcCycleRecord Record;
  Record.Cycle = CycleRecords.size() + 1;
  Record.Forced = Forced;

  {
    CHAM_TRACE_SPAN("gc", "mark");
    markPhase(Record, OnPool);
  }
  {
    CHAM_TRACE_SPAN("gc", "sweep");
    sweepPhase(Record, OnPool);
  }

  // Deferred emergency shrink (see allocateLocked): caches are flushed and
  // the world is stopped, so trimming FreeSlots and the published count
  // cannot race a refill.
  if (PendingEmergency) {
    PendingEmergency = false;
    shrinkSlotTable();
  }

  auto End = std::chrono::steady_clock::now();
  Record.DurationNanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(End - Start)
          .count());

  GcCycles.inc();
  if (Forced)
    GcForcedCycles.inc();
  GcFreedBytes.add(Record.FreedBytes);
  GcFreedObjects.add(Record.FreedObjects);
  GcPauseHdrNanos.observe(Record.DurationNanos);
  GcBytesInUse.set(static_cast<int64_t>(bytesInUse()));
  GcObjectsInUse.set(static_cast<int64_t>(objectsInUse()));

  // Decision-provenance epoch boundary: advance the ledger's epoch to this
  // cycle and append the global EpochMark so every decision recorded during
  // the upcoming fold (and until the next cycle) is attributable to the
  // heap state it actually saw. Appended while the world is stopped (under
  // SpMu for threaded cycles) — record() never allocates, so the spinlock
  // discipline holds.
  if (obs::DecisionLog &Ledger = obs::DecisionLog::instance();
      Ledger.enabled()) {
    Ledger.setEpoch(Record.Cycle);
    obs::DecisionRecord Mark;
    Mark.Epoch = Record.Cycle;
    Mark.Kind = obs::DecisionKind::EpochMark;
    Mark.Allocations = objectsInUse();
    Mark.TotLive = bytesInUse();
    Mark.TotUsed = Record.FreedBytes;
    Mark.Capacity = static_cast<uint32_t>(
        Record.FreedObjects > ~0u ? ~0u : Record.FreedObjects);
    Ledger.record(Mark);
  }

  CycleRecords.push_back(std::move(Record));
  InCollection = false;
  if (Hooks) {
    // "fold": the profiler folds this cycle's liveness statistics into its
    // per-context models (DESIGN.md §9).
    CHAM_TRACE_SPAN("gc", "fold");
    Hooks->onCycleEnd(CycleRecords.back());
  }
  return CycleRecords.back();
}

//===----------------------------------------------------------------------===//
// Verification
//===----------------------------------------------------------------------===//

namespace {
/// Tracer that validates outgoing references instead of marking.
class VerifyTracer : public GcTracer {
public:
  explicit VerifyTracer(std::function<bool(uint32_t)> SlotOccupied)
      : SlotOccupied(std::move(SlotOccupied)) {}

  std::string Problem;

private:
  void visitRef(ObjectRef Ref) override {
    if (!Problem.empty())
      return;
    if (!SlotOccupied(Ref.slot()))
      Problem = "dangling reference to slot "
                + std::to_string(Ref.slot());
  }

  std::function<bool(uint32_t)> SlotOccupied;
};
} // namespace

bool GcHeap::verifyHeap(std::string *ErrorOut) const {
  auto Fail = [&](const std::string &Message) {
    if (ErrorOut)
      *ErrorOut = Message;
    return false;
  };

  const uint32_t NumSlots = SlotCount.load(std::memory_order_relaxed);
  auto SlotOccupied = [this, NumSlots](uint32_t Slot) {
    return Slot < NumSlots && slotRef(Slot) != nullptr;
  };

  uint64_t Bytes = 0;
  uint64_t Objects = 0;
  VerifyTracer Tracer(SlotOccupied);
  for (uint32_t Slot = 0; Slot != NumSlots; ++Slot) {
    const HeapObject *Obj = slotRef(Slot).get();
    if (!Obj)
      continue;
    ++Objects;
    Bytes += Obj->shallowBytes();
    if (Obj->self().isNull() || Obj->self().slot() != Slot)
      return Fail("object in slot " + std::to_string(Slot)
                  + " has a mismatched self-reference");
    if (Obj->typeId() >= Types.size())
      return Fail("object in slot " + std::to_string(Slot)
                  + " has an unregistered TypeId");
    Obj->trace(Tracer);
    if (!Tracer.Problem.empty())
      return Fail("object in slot " + std::to_string(Slot) + ": "
                  + Tracer.Problem);
  }

  // The folded totals plus every record's unfolded volume.
  uint64_t TrackedBytes = bytesInUse();
  uint64_t TrackedObjects = objectsInUse();
  for (const std::unique_ptr<MutatorThread> &Mut : Mutators) {
    TrackedBytes += Mut->UnfoldedBytes;
    TrackedObjects += Mut->UnfoldedObjects;
  }
  if (Bytes != TrackedBytes)
    return Fail("byte accounting mismatch: tracked "
                + std::to_string(TrackedBytes) + ", actual "
                + std::to_string(Bytes));
  if (Objects != TrackedObjects)
    return Fail("object accounting mismatch: tracked "
                + std::to_string(TrackedObjects) + ", actual "
                + std::to_string(Objects));

  // Every ungranted cached slot must be an in-range empty cell, and no
  // slot may be grantable twice (cached twice, or both cached and free).
  std::unordered_set<uint32_t> Grantable(FreeSlots.begin(), FreeSlots.end());
  if (Grantable.size() != FreeSlots.size())
    return Fail("duplicate entry in the free-slot list");
  auto VerifyCache = [&](const MutatorThread &Mut) -> std::string {
    for (size_t I = Mut.SlotCachePos; I < Mut.SlotCache.size(); ++I) {
      uint32_t Slot = Mut.SlotCache[I] & SlotIndexMask;
      if (Slot >= NumSlots)
        return "cached slot " + std::to_string(Slot)
               + " is beyond the slot table";
      if (slotRef(Slot))
        return "cached slot " + std::to_string(Slot) + " is occupied";
      if (!Grantable.insert(Slot).second)
        return "slot " + std::to_string(Slot)
               + " is grantable through two paths";
    }
    return "";
  };
  std::string CacheProblem = VerifyCache(Main);
  if (CacheProblem.empty())
    for (const std::unique_ptr<MutatorThread> &Mut : Mutators) {
      CacheProblem = VerifyCache(*Mut);
      if (!CacheProblem.empty())
        break;
    }
  if (!CacheProblem.empty())
    return Fail(CacheProblem);

  // Root list linkage, every thread's segment.
  auto VerifySegment = [&](const MutatorThread &Mut) -> std::string {
    const RootNode *Prev = &Mut.RootsHead;
    for (const RootNode *Node = Mut.RootsHead.Next; Node;
         Node = Node->Next) {
      if (Node->Prev != Prev)
        return "root list back-link is broken";
      if (!Node->Ref.isNull() && !SlotOccupied(Node->Ref.slot()))
        return "root references an empty slot";
      Prev = Node;
    }
    return "";
  };
  std::string Problem = VerifySegment(Main);
  if (Problem.empty())
    for (const std::unique_ptr<MutatorThread> &Mut : Mutators) {
      Problem = VerifySegment(*Mut);
      if (!Problem.empty())
        break;
    }
  if (!Problem.empty())
    return Fail(Problem);
  return true;
}
