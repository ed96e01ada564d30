//===--- GcHeap.h - Managed heap with a collection-aware GC ----*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The managed heap and its mark-and-sweep collector — the substrate that
/// stands in for the paper's J9 JVM. The heap tracks a simulated byte size
/// for every object under a `MemoryModel`, triggers a collection when an
/// allocation would exceed the configured heap limit, and signals
/// out-of-memory when live data alone exceeds the limit (the condition the
/// minimal-heap-size experiments of Fig. 6 bisect on).
///
/// The collector follows the paper's base parallel mark-and-sweep design
/// (§4.3.2), and like J9's it keeps the mark state in a side bitmap: one
/// bit per slot, beside the slot table, cleared at the start of every
/// cycle. On a heap with registered mutator threads, tracing runs on the
/// `setGcThreads` collector threads (1 by default), which claim an object
/// by the atomic OR that sets its bit, and sweeping partitions the bitmap
/// into one contiguous range of 64-slot words per worker. A heap with no
/// registered mutator marks and sweeps on the calling thread at any thread
/// count.
/// Either sweep walks the bit words and loads only the objects of
/// unmarked, occupied slots: a live object is never read. The workers live
/// in a persistent `GcWorkerPool` owned by the heap (created lazily on the
/// first parallel cycle), so a cycle costs a wake/notify rather than a
/// thread spawn/join. Every cycle statistic is a commutative sum and every
/// profiler event is buffered per worker and replayed on the calling thread
/// in slot order after the phase barrier, so the recorded metrics are
/// identical at any thread count. During marking the collector consults the
/// semantic ADT map of every object and, for collection wrappers, computes
/// the ADT's live / used / core sizes and reports them to the installed
/// profiler hooks; during sweeping it reports dying collections so their
/// per-instance statistics can be folded into their allocation context (the
/// sweep-phase alternative to finalizers, §4.4).
///
/// The *mutator* side admits N application threads (DESIGN.md §9): each
/// thread registers through `registerMutatorThread` (see the runtime
/// layer's `MutatorScope`) and gets its own root-list segment and temp-root
/// stack; object references read lock-free through a chunked slot table
/// whose chunks are published once and never move; allocation grants slots
/// from per-thread caches (DESIGN.md §12) and takes the one allocation
/// mutex only when a collection trigger is pending or the caches are off;
/// and a collection triggered while mutators run stops the world
/// through a safepoint protocol — mutators poll at operation boundaries
/// (`safepointPoll`) or park in a `GcSafeRegion` while blocked. With no
/// registered mutators every path compiles down to the single-threaded
/// original (one relaxed flag load on the hot paths).
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_RUNTIME_GCHEAP_H
#define CHAMELEON_RUNTIME_GCHEAP_H

#include "runtime/GcCycle.h"
#include "runtime/GcWorkerPool.h"
#include "runtime/HeapHooks.h"
#include "runtime/HeapObject.h"
#include "runtime/MemoryModel.h"
#include "runtime/SemanticMap.h"
#include "support/Annotations.h"
#include "support/SpinLock.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace chameleon {

/// Intrusive root-list node. Handles embed one; registration is O(1)
/// pointer splicing, cheap enough that handles can be moved and copied in
/// hot paths (vector reshuffles, per-iteration temporaries).
struct RootNode {
  ObjectRef Ref;
  RootNode *Prev = nullptr;
  RootNode *Next = nullptr;
  /// True while linked into a heap's root list.
  bool linked() const { return Prev != nullptr; }
};

/// Maximum depth of a per-thread temp-root stack (see pushTempRoot).
inline constexpr unsigned GcMaxTempRoots = 32;

/// Per-mutator-thread heap state: a root-list segment, a temp-root stack,
/// the safepoint flag the stop-the-world protocol handshakes on, a slot
/// cache, and the allocation volume not yet folded into the heap's totals.
/// The heap owns one embedded record for the main (unregistered) thread and
/// one per registered mutator. Fields other than the safepoint state are
/// only touched by the owning thread (or by the collector while the world
/// is stopped); the safepoint state is guarded by the heap's safepoint
/// mutex. Records are cache-line aligned, so the fields an owner writes on
/// every allocation share no line with another thread's record.
struct alignas(64) MutatorThread {
  /// Sentinel head of this thread's intrusive root-list segment.
  RootNode RootsHead;
  ObjectRef TempRoots[GcMaxTempRoots];
  unsigned TempRootDepth = 0;
  std::thread::id ThreadId;
  /// True while the thread is stopped (parked at a poll or inside a
  /// GcSafeRegion). Guarded by the heap's safepoint mutex.
  bool AtSafepoint = false;
  /// False once unregistered (the record is retained; its lists are empty).
  bool Registered = false;

  /// -- Per-thread slot cache (DESIGN.md §12) -------------------------------
  /// A FIFO batch of pre-granted slot ids served without any lock on the
  /// allocation fast path. Entries tagged with SlotBumpTag were carved off
  /// the bump frontier (rather than popped from FreeSlots); the flush at
  /// every stop-the-world uses the tag to restore exactly the slot-table
  /// state the locked path would have, which is what keeps slot sequences
  /// — and therefore sweep order and every downstream statistic —
  /// byte-identical with caches on or off. Owned by the thread; touched by
  /// the collector only while the world is stopped.
  std::vector<uint32_t> SlotCache;
  size_t SlotCachePos = 0;
  /// Plain tally of cache-served grants, drained into the registry's
  /// cham.alloc.slot_cache_hits at refills and flushes.
  uint64_t SlotHits = 0;

  /// -- Unfolded allocation volume (DESIGN.md §12.3) -------------------------
  /// Model bytes and objects this registered thread allocated on the fast
  /// path since they were last folded into the heap's four totals. The
  /// owner folds them each time UnfoldedBytes reaches
  /// GcHeap::AllocFoldChunkBytes, before the locked path evaluates a
  /// trigger, and at unregistration; the collector folds every record while
  /// the world is stopped. The main record's stay zero: unregistered
  /// allocations update the totals directly.
  uint64_t UnfoldedBytes = 0;
  uint64_t UnfoldedObjects = 0;
};

/// A managed heap. Single-threaded by default; N mutator threads are
/// supported once they register (DESIGN.md §9).
class GcHeap {
public:
  /// Creates a heap with the given layout model and limit in model bytes
  /// (0 = unlimited).
  explicit GcHeap(MemoryModel Model = MemoryModel::jvm32(),
                  uint64_t HeapLimitBytes = 0);
  ~GcHeap();

  GcHeap(const GcHeap &) = delete;
  GcHeap &operator=(const GcHeap &) = delete;

  /// The layout model used for all size accounting.
  const MemoryModel &model() const { return Model; }

  /// The semantic-map registry for this heap.
  TypeRegistry &types() { return Types; }
  const TypeRegistry &types() const { return Types; }

  /// Installs (or clears) the profiler callback sink.
  void setProfilerHooks(HeapProfilerHooks *NewHooks) { Hooks = NewHooks; }

  /// Soft heap limit (0 = none), the graceful-degradation threshold below
  /// the hard limit: an allocation that would cross it triggers an
  /// emergency collect-then-shrink pass (rate-limited by allocation
  /// volume), and if the heap is still over afterwards the profiler hooks
  /// are told (`onHeapPressure`) so they can shed load; once usage drops
  /// back under the limit with 1/8 hysteresis headroom the hooks get
  /// `onHeapPressureCleared`. Unlike the hard limit, crossing the soft
  /// limit is never an error.
  void setSoftHeapLimit(uint64_t Bytes) { SoftLimitBytes = Bytes; }

  /// Number of emergency (soft-limit) collections so far.
  uint64_t emergencyCollects() const { return EmergencyCollects; }

  /// When nonzero, forces a (statistics-sampling) collection every time
  /// this many bytes have been allocated. Profiled runs use it so that the
  /// per-cycle collection statistics of Table 3 accumulate even when the
  /// heap limit alone would trigger few collections.
  void setGcSampleEveryBytes(uint64_t Bytes) { GcSampleEveryBytes = Bytes; }

  /// When set, each cycle record carries a per-type live-size breakdown
  /// (Table 3 "Type Distribution"). Off by default: it costs a vector per
  /// cycle.
  void setRecordTypeDistribution(bool On) { RecordTypeDistribution = On; }

  /// Number of collector threads (paper §4.3.2: "several parallel collector
  /// threads perform the tracing phase"): the worker-pool size for cycles
  /// that run while mutator threads are registered. A cycle on a heap with
  /// no registered mutator, and every cycle at 1 (default), marks and
  /// sweeps on the calling thread, which last touched the heap and so finds
  /// it in its own cache; pool workers would find it cold (DESIGN.md §4).
  /// All cycle statistics are commutative sums and all profiler events are
  /// replayed in deterministic order, so the recorded results are identical
  /// regardless of the thread count; profiler hooks always run on the
  /// calling thread after the phase barrier. Changing the count retires any
  /// existing worker pool; the next pool cycle re-creates it at the new
  /// size.
  void setGcThreads(unsigned Threads);

  /// When true (default), each mutator thread allocates slot ids out of a
  /// per-thread cache refilled in batches under a spinlock, so the hot
  /// allocation path takes no lock at all; when false, every allocation
  /// serialises on AllocMu. The locked path is the reference the allocator
  /// differential tests compare the cached one against. Flushes all caches
  /// on any change, so slot-table state is identical to what the locked
  /// path would have produced; safe to call only while no mutator threads
  /// are running.
  void setUseThreadCaches(bool On);

  /// -- Concurrent mutators (DESIGN.md §9) ----------------------------------

  /// Registers the calling thread as a mutator: it gets its own root-list
  /// segment and temp-root stack, and the stop-the-world protocol waits for
  /// it before any collection. A registered thread must reach safepoints
  /// regularly — every collection-handle operation polls — or park in a
  /// `GcSafeRegion` while blocked, and must unregister (on the same thread)
  /// before it exits. Use the runtime layer's `MutatorScope`, which pairs
  /// this with the profiler-side registration.
  MutatorThread *registerMutatorThread();

  /// Unregisters \p M (calling thread must be its owner). Surviving roots
  /// are spliced into the main thread's segment, so handles created on the
  /// worker stay valid after it exits.
  void unregisterMutatorThread(MutatorThread *M);

  /// True while any mutator thread is registered. While true, slot-cache
  /// refills take the heap's slot spinlock, an allocation takes its
  /// allocation mutex only when a collection trigger is pending or the
  /// thread caches are off, and collections stop the world and run on the
  /// worker pool when there is more than one GC thread; the
  /// *unregistered* threads (typically the coordinating main thread) must
  /// stay quiescent except while every registered mutator is parked.
  bool concurrentMutatorsActive() const {
    return MutatorsActive.load(std::memory_order_acquire);
  }

  /// The cheap check mutator threads make at operation boundaries: one
  /// acquire load and a predicted-not-taken branch. When a collection is
  /// pending, blocks until the world restarts.
  CHAM_MAY_SAFEPOINT void safepointPoll() {
    if (SafepointRequested.load(std::memory_order_acquire))
      safepointSlow();
  }

  /// Moves \p Obj into the heap and returns its reference.
  ///
  /// If the allocation would push the heap past its limit, a collection runs
  /// first; if live data still exceeds the limit afterwards the heap enters
  /// the out-of-memory state (the allocation itself still succeeds so the
  /// program remains structurally consistent — run drivers observe
  /// `outOfMemory()` and abort the run, mirroring a JVM OutOfMemoryError).
  CHAM_MAY_SAFEPOINT ObjectRef allocate(std::unique_ptr<HeapObject> Obj);

  /// Returns the object \p Ref points to. \p Ref must be non-null and live.
  /// Lock-free: published slots never move (chunked slot table).
  CHAM_NO_SAFEPOINT HeapObject &get(ObjectRef Ref) {
    assert(!Ref.isNull() && "dereferencing null ObjectRef");
    assert(Ref.slot() < SlotCount.load(std::memory_order_relaxed)
           && "ObjectRef beyond slot table");
    HeapObject *Obj = slotRef(Ref.slot()).get();
    assert(Obj && "dangling ObjectRef");
    return *Obj;
  }
  const HeapObject &get(ObjectRef Ref) const {
    return const_cast<GcHeap *>(this)->get(Ref);
  }

  /// Returns the object as \p T. Unchecked downcast: the caller must know
  /// the object's dynamic type (collections always do — the reference was
  /// produced by their own allocation).
  template <typename T> T &getAs(ObjectRef Ref) {
    return static_cast<T &>(get(Ref));
  }
  template <typename T> const T &getAs(ObjectRef Ref) const {
    return static_cast<const T &>(get(Ref));
  }

  /// Links \p Node as a GC root in the calling thread's root segment; the
  /// referenced object (if any) stays live. Use `Handle` rather than
  /// calling this directly.
  void addRoot(RootNode *Node) {
    assert(Node && !Node->linked() && "root node already linked");
    RootNode &Head = rootOwner().RootsHead;
    Node->Prev = &Head;
    Node->Next = Head.Next;
    if (Head.Next)
      Head.Next->Prev = Node;
    Head.Next = Node;
  }

  /// Unlinks a root previously added with addRoot. Positional: works
  /// regardless of which thread's segment the node sits in (the splicing
  /// at unregistration relies on this).
  void removeRoot(RootNode *Node) {
    assert(Node && Node->linked() && "removing an unlinked root node");
    Node->Prev->Next = Node->Next;
    if (Node->Next)
      Node->Next->Prev = Node->Prev;
    Node->Prev = nullptr;
    Node->Next = nullptr;
  }

  /// Maximum depth of a temp-root stack (see pushTempRoot).
  static constexpr unsigned MaxTempRoots = GcMaxTempRoots;

  /// Pushes a temporary root on the calling thread's temp-root stack. Temp
  /// roots protect operands held only in C++ locals across an allocation
  /// that might trigger a collection (e.g. a value being inserted while the
  /// map allocates its entry). They are a bounded stack because their
  /// lifetime is one collection operation; use `TempRootScope`, not these
  /// calls.
  void pushTempRoot(ObjectRef Ref) {
    MutatorThread &M = rootOwner();
    assert(M.TempRootDepth < MaxTempRoots && "temp root stack overflow");
    M.TempRoots[M.TempRootDepth++] = Ref;
  }

  /// Pops the \p Count most recent temp roots.
  void popTempRoots(unsigned Count) {
    MutatorThread &M = rootOwner();
    assert(Count <= M.TempRootDepth && "temp root stack underflow");
    M.TempRootDepth -= Count;
  }

  /// Runs one full mark-and-sweep cycle. \p Forced marks the record as an
  /// explicit request (statistics sampling) rather than allocation pressure.
  /// With registered mutators, first stops the world (all registered
  /// threads other than the caller parked at safepoints). Returns the
  /// completed cycle record.
  CHAM_MAY_SAFEPOINT const GcCycleRecord &collect(bool Forced = false);

  /// Applies \p Fn to every live-or-unswept object in the heap. Used by the
  /// end-of-run harvest that folds statistics of still-live collections;
  /// templated on the callback so the once-per-object call inlines instead
  /// of going through a std::function dispatch.
  template <typename CallbackT> void forEachObject(CallbackT &&Fn) {
    for (uint32_t Slot = 0, E = SlotCount.load(std::memory_order_relaxed);
         Slot != E; ++Slot)
      if (HeapObject *Obj = slotRef(Slot).get())
        Fn(*Obj);
  }

  /// Structural validator (the analogue of an IR verifier): checks that
  /// every object's self-reference matches its slot, that every traced
  /// outgoing reference points at an occupied slot, that every root list is
  /// well linked, and that the byte/object accounting matches the slots.
  /// \returns true when consistent; otherwise false, with a description of
  /// the first problem in \p ErrorOut (when non-null).
  bool verifyHeap(std::string *ErrorOut = nullptr) const;

  /// True once live data has exceeded the heap limit — or once the GC
  /// overhead guard tripped (GcOverheadLimit consecutive pressure
  /// collections each reclaiming less than 1/64 of the limit, the analogue
  /// of HotSpot's "GC overhead limit exceeded"). Sticky for the heap's
  /// lifetime: each bisection probe of Chameleon::findMinimalHeap runs on
  /// a fresh runtime.
  bool outOfMemory() const { return OomFlag.load(std::memory_order_relaxed); }

  /// Consecutive low-yield pressure collections tolerated before the heap
  /// declares OutOfMemory. Prevents unbounded collect-per-allocation
  /// thrashing when the limit sits just above the live size.
  static constexpr unsigned GcOverheadLimit = 8;

  /// Minimum fraction of the heap limit that must be free after a
  /// pressure collection; less means the program is effectively spending
  /// its time collecting, and the heap declares OutOfMemory (HotSpot's
  /// GC-overhead criterion).
  static constexpr double MinFreeFraction = 0.10;

  /// Allocation volume a registered mutator counts in its own record before
  /// folding it into the heap's totals: the most any one thread holds back
  /// from the accessors below, and how late it can make another thread's
  /// collection trigger (DESIGN.md §12.3).
  static constexpr uint64_t AllocFoldChunkBytes = 16 * 1024;

  /// The four allocation accessors below read the heap's folded totals.
  /// They are exact wherever no registered mutator has allocated since the
  /// last fold: after every collection, after a mutator unregisters if no
  /// other one runs, and always on a heap with no registered mutator. While
  /// registered mutators run, each may hold back less than
  /// AllocFoldChunkBytes of its own volume.
  ///
  /// Bytes currently occupied by allocated (not yet swept) objects.
  uint64_t bytesInUse() const {
    return BytesInUse.load(std::memory_order_relaxed);
  }

  /// Number of allocated (not yet swept) objects.
  uint64_t objectsInUse() const {
    return ObjectsInUse.load(std::memory_order_relaxed);
  }

  /// Cumulative allocation volume since construction.
  uint64_t totalAllocatedBytes() const {
    return TotalAllocatedBytes.load(std::memory_order_relaxed);
  }
  uint64_t totalAllocatedObjects() const {
    return TotalAllocatedObjects.load(std::memory_order_relaxed);
  }

  /// Number of completed GC cycles.
  uint64_t cycleCount() const { return CycleRecords.size(); }

  /// All completed cycle records, oldest first.
  const std::vector<GcCycleRecord> &cycles() const { return CycleRecords; }

private:
  class Marker;
  class ParallelMarker;
  friend class GcSafeRegion;

  /// -- Chunked slot table ---------------------------------------------------
  /// Slot storage is an array of fixed-size chunks published through atomic
  /// pointers: a chunk, once installed, never moves, so `get()` stays
  /// lock-free while another thread (holding the allocation mutex) grows
  /// the table. Slot = chunk index (high bits) + offset (low bits).
  static constexpr unsigned SlotChunkShift = 12;
  static constexpr uint32_t SlotChunkCapacity = 1u << SlotChunkShift;
  static constexpr uint32_t MaxSlotChunks = 1u << 14; // 64M slots
  struct SlotChunk {
    std::unique_ptr<HeapObject> Objs[SlotChunkCapacity];
  };

  std::unique_ptr<HeapObject> &slotRef(uint32_t Slot) const {
    assert((Slot >> SlotChunkShift) < MaxSlotChunks && "slot out of range");
    SlotChunk *C =
        Chunks[Slot >> SlotChunkShift].load(std::memory_order_acquire);
    assert(C && "slot in an unallocated chunk");
    return C->Objs[Slot & (SlotChunkCapacity - 1)];
  }

  /// The single-threaded allocation body (caller holds AllocMu when
  /// mutators are active).
  ObjectRef allocateLocked(std::unique_ptr<HeapObject> Obj);

  /// -- Per-thread slot caches (DESIGN.md §12) ------------------------------
  /// Bit set on SlotCache entries carved off the bump frontier (as opposed
  /// to recycled from FreeSlots); the flush uses it to un-bump instead of
  /// pushing a free-slot entry the locked path would never have produced.
  static constexpr uint32_t SlotBumpTag = 1u << 31;
  static constexpr uint32_t SlotIndexMask = SlotBumpTag - 1;
  /// Slots granted per refill. Small enough that a stop-the-world flush
  /// rarely un-bumps much; large enough that SlotMu is cold.
  static constexpr uint32_t SlotCacheBatch = 32;

  /// The four allocation triggers, each stated once: allocateLocked tests
  /// them on the exact totals under AllocMu, allocTriggersPending on what
  /// the calling thread can see. \p Total is the cumulative allocation
  /// volume, \p InUse the bytes in use, \p Bytes the new object's size and
  /// \p Oom the out-of-memory flag.
  ///
  /// Sample cadence: GcSampleEveryBytes allocated since the last sample.
  bool sampleDue(uint64_t Total) const {
    return GcSampleEveryBytes != 0
           && Total - LastSampleAt.load(std::memory_order_relaxed)
                  >= GcSampleEveryBytes;
  }
  /// Soft-limit emergency: the allocation crosses the soft limit, and a
  /// sixteenth of that limit has been allocated since the last emergency
  /// pass.
  bool emergencyDue(uint64_t Total, uint64_t InUse, uint64_t Bytes,
                    bool Oom) const {
    return SoftLimitBytes != 0 && !Oom && InUse + Bytes > SoftLimitBytes
           && Total - LastEmergencyAt.load(std::memory_order_relaxed)
                  >= std::max<uint64_t>(SoftLimitBytes / 16, 1);
  }
  /// Pressure cleared: under pressure, and back below the soft limit with
  /// 1/8 hysteresis headroom.
  bool pressureCleared(uint64_t InUse, uint64_t Bytes) const {
    return UnderPressure.load(std::memory_order_relaxed)
           && SoftLimitBytes != 0
           && InUse + Bytes <= SoftLimitBytes - SoftLimitBytes / 8;
  }
  /// Hard limit: the allocation would push the heap past it.
  bool overHeapLimit(uint64_t InUse, uint64_t Bytes, bool Oom) const {
    return !Oom && HeapLimitBytes != 0 && InUse + Bytes > HeapLimitBytes;
  }

  /// True when allocating \p Bytes on \p M, the calling thread's record,
  /// must take the locked path because one of the four triggers holds.
  /// False at once when no trigger is configured. Otherwise it tests the
  /// folded totals plus M's own unfolded volume: the totals exactly when
  /// one thread allocates, and short of them by less than one
  /// AllocFoldChunkBytes per other running registered mutator, so a
  /// collection trigger is never early and at most that late (DESIGN.md
  /// §12.3). allocateLocked re-evaluates every trigger under AllocMu.
  bool allocTriggersPending(const MutatorThread &M, uint64_t Bytes) const;

  /// Adds M's unfolded allocation volume to the four totals and zeroes it.
  /// The caller is M's owner, or the collector while the world is stopped.
  void foldAllocations(MutatorThread &M);

  /// Grants \p M the next slot id, refilling its cache (batched, under
  /// SlotMu) when empty. Caller must be M's owning thread; returns the slot
  /// with any SlotBumpTag already stripped.
  CHAM_NO_SAFEPOINT uint32_t grantSlot(MutatorThread &M);
  /// Refills M.SlotCache with SlotCacheBatch grants: FreeSlots entries
  /// first (FIFO order of the locked path), then bump-carved tagged ones.
  CHAM_NO_SAFEPOINT void refillSlotCache(MutatorThread &M);
  /// Returns M's ungranted slots. With \p StoppedWorld, cached bump-carved
  /// slots adjacent to the frontier are un-bumped (SlotCount rolled back)
  /// so the table state is exactly the locked path's; otherwise they are
  /// pushed on FreeSlots (caller holds SlotMu or is single-threaded).
  void flushSlotCache(MutatorThread &M, bool StoppedWorld);
  /// Flushes every thread's cache; world must be stopped (or no mutators).
  void flushAllSlotCaches();

  /// Lock-free fast path: grants a cached slot and places the object
  /// without AllocMu. Returns false when a trigger is pending or the cache
  /// machinery is off, in which case the caller takes the locked path.
  bool allocateFast(std::unique_ptr<HeapObject> &Obj, ObjectRef &RefOut);

  /// Returns trailing all-empty slot-table capacity to the OS analogue:
  /// trims the published slot count past the last live slot, drops the
  /// free-slot entries above it, and frees wholly-trailing chunks. Safe
  /// against concurrent lock-free readers because no live reference can
  /// point into the trimmed region. Called after emergency collections.
  void shrinkSlotTable();

  /// The collection body, entered with the world already stopped (or no
  /// mutators registered).
  const GcCycleRecord &collectStopped(bool Forced);

  /// The calling thread's MutatorThread record, or null when the thread
  /// never registered with this heap.
  MutatorThread *selfMutatorOrNull();
  /// Slow path of rootOwner (mutators active): resolve via thread-local.
  MutatorThread &rootOwnerSlow();
  MutatorThread &rootOwner() {
    if (!MutatorsActive.load(std::memory_order_relaxed))
      return Main;
    return rootOwnerSlow();
  }

  CHAM_MAY_SAFEPOINT void safepointSlow();
  void enterSafeRegion();
  void leaveSafeRegion();

  /// Marks from roots, on the worker pool when \p OnPool (collectStopped's
  /// per-cycle decision) and on the calling thread otherwise; fills the
  /// cycle record's live statistics. The phase bodies run with the world
  /// stopped and must never re-enter the safepoint machinery.
  CHAM_NO_SAFEPOINT void markPhase(GcCycleRecord &Record, bool OnPool);
  /// The multi-threaded tracing phase (pool cycles).
  CHAM_NO_SAFEPOINT void markPhaseParallel(GcCycleRecord &Record);
  /// Sweeps unmarked objects, on the pool when \p OnPool; fills the
  /// record's freed statistics.
  CHAM_NO_SAFEPOINT void sweepPhase(GcCycleRecord &Record, bool OnPool);
  /// The multi-threaded sweep (pool cycles): one contiguous slot range
  /// per worker, per-worker freed/death buffers, deterministic replay.
  CHAM_NO_SAFEPOINT void sweepPhaseParallel(GcCycleRecord &Record);
  /// Runs `Task(WorkerIndex)` on the persistent pool's GcThreads workers
  /// and waits for all of them.
  void runOnWorkers(const std::function<void(unsigned)> &Task);

  MemoryModel Model;
  uint64_t HeapLimitBytes;
  uint64_t GcSampleEveryBytes = 0;
  std::atomic<uint64_t> LastSampleAt{0};
  uint64_t SoftLimitBytes = 0;
  std::atomic<uint64_t> LastEmergencyAt{0};
  uint64_t EmergencyCollects = 0;
  std::atomic<bool> UnderPressure{false};
  TypeRegistry Types;
  HeapProfilerHooks *Hooks = nullptr;

  std::unique_ptr<std::atomic<SlotChunk *>[]> Chunks;
  std::atomic<uint32_t> SlotCount{0};
  std::vector<uint32_t> FreeSlots;
  /// Guards FreeSlots and the bump frontier during batched cache refills
  /// while mutators are active (AllocMu alone covers them otherwise).
  SpinLock SlotMu CHAM_LOCK_RANK(20);

  /// The main (unregistered) thread's roots and temp roots; also the
  /// landing segment for roots spliced out of unregistering mutators.
  MutatorThread Main;
  /// Registered mutator records; retained (Registered=false, lists empty)
  /// after unregistration so pointers stay valid for the heap's lifetime.
  std::vector<std::unique_ptr<MutatorThread>> Mutators;

  /// Identifies this heap instance in the thread-local mutator cache, so a
  /// heap reallocated at a dead heap's address cannot inherit stale state.
  const uint64_t InstanceId;

  std::atomic<bool> MutatorsActive{false};
  std::atomic<bool> SafepointRequested{false};
  /// Guards the safepoint handshake state (AtSafepoint flags, the Mutators
  /// vector) and is held by the collection initiator for the whole stopped
  /// window.
  std::mutex SpMu CHAM_LOCK_RANK(40);
  std::condition_variable SpCv;
  /// Serialises allocation when mutators are active.
  std::mutex AllocMu CHAM_LOCK_RANK(30);

  /// The four allocation totals. Unregistered threads and the locked path
  /// update them on every allocation; a registered mutator's fast path
  /// counts in its own MutatorThread record instead, which is folded in
  /// here (foldAllocations) at every stop-the-world, at unregistration,
  /// every AllocFoldChunkBytes, and before the locked path evaluates a
  /// trigger. They start a cache line, so a fold dirties one line rather
  /// than two wherever the heap sits inside its owner.
  alignas(64) std::atomic<uint64_t> BytesInUse{0};
  std::atomic<uint64_t> ObjectsInUse{0};
  std::atomic<uint64_t> TotalAllocatedBytes{0};
  std::atomic<uint64_t> TotalAllocatedObjects{0};
  unsigned LowYieldStreak = 0;
  std::atomic<bool> OomFlag{false};
  bool InCollection = false;
  bool RecordTypeDistribution = false;
  unsigned GcThreads = 1;
  bool UseThreadCaches = true;
  /// Set by allocateLocked right before a sample (emergency) collection.
  /// That cycle restarts the trigger's cadence, LastSampleAt
  /// (LastEmergencyAt), from the exact total at its stop-the-world point,
  /// which counts every thread's volume, so the next trigger cannot fire
  /// early. An emergency cycle also shrinks the slot table there: the
  /// shrink must not race cache refills reading FreeSlots.
  bool PendingSample = false;
  bool PendingEmergency = false;
  /// Lazily created on the first parallel cycle; retired when the thread
  /// count changes.
  std::unique_ptr<GcWorkerPool> Pool;
  std::vector<GcCycleRecord> CycleRecords;
  /// One mark bit per slot (bit Slot % 64 of word Slot / 64): set means
  /// live in the current cycle. collectStopped sizes it to the slot table
  /// and zeroes it before marking; nothing allocates during a cycle, so
  /// the size holds through the sweep. The serial marker sets bits with
  /// plain stores, pool workers with an atomic OR.
  std::vector<uint64_t> MarkBits;
};

/// RAII scope marking the calling (registered) mutator as stopped for the
/// duration: a pending stop-the-world proceeds without waiting for this
/// thread. Enter one around any blocking wait (barriers, queue pops, lock
/// acquisitions outside the heap); the thread must not touch the heap while
/// inside. No-op on threads that never registered.
class GcSafeRegion {
public:
  explicit GcSafeRegion(GcHeap &Heap) : Heap(Heap) {
    Heap.enterSafeRegion();
  }
  GcSafeRegion(const GcSafeRegion &) = delete;
  GcSafeRegion &operator=(const GcSafeRegion &) = delete;
  /// Blocks until no collection is in progress, then resumes mutation.
  ~GcSafeRegion() { Heap.leaveSafeRegion(); }

private:
  GcHeap &Heap;
};

/// RAII scope for temp roots: pushes up to three references on construction
/// and pops them on destruction. Null references are pushed too (the marker
/// skips them); that keeps the pop count static.
class TempRootScope {
public:
  TempRootScope(GcHeap &Heap, ObjectRef A,
                ObjectRef B = ObjectRef::null(),
                ObjectRef C = ObjectRef::null())
      : Heap(Heap) {
    Heap.pushTempRoot(A);
    Heap.pushTempRoot(B);
    Heap.pushTempRoot(C);
  }

  TempRootScope(const TempRootScope &) = delete;
  TempRootScope &operator=(const TempRootScope &) = delete;

  ~TempRootScope() { Heap.popTempRoots(3); }

private:
  GcHeap &Heap;
};

/// RAII GC root: keeps the object referenced by its embedded node alive
/// while in scope. Copyable (each copy is an independent root), movable.
/// The node links into the root segment of the thread performing the
/// construction/copy/move; destroying a handle that lives in another
/// *running* thread's segment is a race — transfer handles only across
/// synchronisation points (the unregistration splice moves a finished
/// worker's surviving roots to the main segment).
class Handle {
public:
  Handle() = default;

  Handle(GcHeap &Heap, ObjectRef Ref) : Heap(&Heap) {
    Node.Ref = Ref;
    Heap.addRoot(&Node);
  }

  Handle(const Handle &Other) : Heap(Other.Heap) {
    Node.Ref = Other.Node.Ref;
    if (Heap)
      Heap->addRoot(&Node);
  }

  Handle(Handle &&Other) noexcept : Heap(Other.Heap) {
    Node.Ref = Other.Node.Ref;
    if (Heap) {
      Heap->removeRoot(&Other.Node);
      Heap->addRoot(&Node);
    }
    Other.Heap = nullptr;
    Other.Node.Ref = ObjectRef::null();
  }

  Handle &operator=(const Handle &Other) {
    if (this == &Other)
      return *this;
    reset();
    Heap = Other.Heap;
    Node.Ref = Other.Node.Ref;
    if (Heap)
      Heap->addRoot(&Node);
    return *this;
  }

  Handle &operator=(Handle &&Other) noexcept {
    if (this == &Other)
      return *this;
    reset();
    Heap = Other.Heap;
    Node.Ref = Other.Node.Ref;
    if (Heap) {
      Heap->removeRoot(&Other.Node);
      Heap->addRoot(&Node);
    }
    Other.Heap = nullptr;
    Other.Node.Ref = ObjectRef::null();
    return *this;
  }

  ~Handle() { reset(); }

  /// Drops the root (the handle becomes empty).
  void reset() {
    if (Heap)
      Heap->removeRoot(&Node);
    Heap = nullptr;
    Node.Ref = ObjectRef::null();
  }

  /// Re-targets the handle.
  void set(GcHeap &NewHeap, ObjectRef NewRef) {
    reset();
    Heap = &NewHeap;
    Node.Ref = NewRef;
    NewHeap.addRoot(&Node);
  }

  /// The referenced object, or null for an empty handle.
  ObjectRef ref() const { return Node.Ref; }

  /// True when the handle roots nothing.
  bool isNull() const { return Node.Ref.isNull(); }

  /// The heap this handle roots into (null when empty).
  GcHeap *heap() const { return Heap; }

private:
  GcHeap *Heap = nullptr;
  RootNode Node;
};

} // namespace chameleon

#endif // CHAMELEON_RUNTIME_GCHEAP_H
