//===--- CollectionRuntime.h - Heap + profiler + factory -------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collection runtime bundles everything a program needs to use
/// Chameleon collections: the managed heap, the semantic profiler wired
/// into its GC, the registered semantic ADT maps for every built-in
/// implementation, and the allocation factory. The factory is where
/// selection happens: it captures the allocation context, then consults —
/// in order — the offline `ReplacementPlan` and the online selector
/// (§3.3.2) before choosing the backing implementation.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_COLLECTIONS_COLLECTIONRUNTIME_H
#define CHAMELEON_COLLECTIONS_COLLECTIONRUNTIME_H

#include "collections/ImplBase.h"
#include "collections/Internals.h"
#include "obs/Metrics.h"
#include "collections/Kinds.h"
#include "collections/ReplacementPlan.h"
#include "collections/Wrapper.h"
#include "profiler/SemanticProfiler.h"
#include "runtime/GcHeap.h"

#include <array>
#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace chameleon {

class List;
class Set;
class Map;

/// Configuration of a collection runtime.
struct RuntimeConfig {
  MemoryModel Model = MemoryModel::jvm32();
  /// Heap limit in model bytes (0 = unlimited).
  uint64_t HeapLimitBytes = 0;
  ProfilerConfig Profiler;
  /// Simulated bytes charged per profiled wrapper for its per-instance
  /// statistics record ("usually very small (few words)", §4.4). Set to 0
  /// for uninstrumented measurement runs.
  uint32_t ObjectInfoSimBytes = 32;
  /// Record the per-type live breakdown each GC cycle (Table 3).
  bool RecordTypeDistribution = false;
  /// Force a statistics-sampling GC every this many allocated bytes
  /// (0 = only allocation-pressure GCs).
  uint64_t GcSampleEveryBytes = 0;
  /// Return one shared iterator object for iterations over empty
  /// collections instead of allocating a fresh one — the optimisation
  /// §5.4 proposes for the "massive creation of iterator objects" it
  /// observes (safe here: iterators cannot insert). Off by default, which
  /// matches java.util semantics.
  bool ShareEmptyIterators = false;
  /// Parallel collector threads (§4.3.2), used for both the tracing phase
  /// and the sweep; statistics are identical at any count, only GC wall
  /// time changes. Threads > 1 starts a persistent worker pool on the
  /// heap's first parallel cycle.
  unsigned GcThreads = 1;
  /// Consult the online selector about migrating a *live* collection every
  /// this many mutating operations on it (0 disables live migration;
  /// allocation-time selection is unaffected).
  uint32_t OnlineRevisePeriod = 64;
};

/// TypeIds of the registered internal and implementation types.
struct CollectionTypeIds {
  TypeId ValueArray = 0;
  TypeId IntArray = 0;
  TypeId MapEntry = 0;
  TypeId LinkedEntry = 0;
  TypeId LinkedHashEntry = 0;
  TypeId Iterator = 0;
  TypeId Data = 0;
  std::array<TypeId, NumImplKinds> Impl{};
};

/// A user-supplied backing implementation (paper §4.2: alternative
/// implementations "obtained from other sources" — Trove, Javolution,
/// Apache/Google collections — can be swapped in; §5.1: custom collection
/// classes can be profiled "with very little manual effort"). The class
/// behind `Make` derives SeqImpl or MapImpl; because the collection-aware
/// GC is parametric on semantic maps that simply call the implementation's
/// own `sizes()`, a custom implementation is profiled exactly like a
/// built-in one.
struct CustomImpl {
  std::string Name;
  AdtKind Adt = AdtKind::List;
  /// The TypeId the runtime registered for this implementation.
  TypeId Type = 0;
  /// Creates a bare implementation object (not yet in the heap).
  std::function<std::unique_ptr<CollectionImplBase>(
      CollectionRuntime &RT, TypeId Type, uint32_t Capacity)>
      Make;
  /// Optional eager initialisation, run once the object is rooted (for
  /// implementations that allocate internals up front).
  std::function<void(CollectionRuntime &RT, ObjectRef Impl)> InitEager;
};

/// Identifies a registered custom implementation.
using CustomImplId = uint32_t;

/// Decides the implementation for an allocation while the program runs —
/// the fully-automatic mode of §3.3.2. Implemented by the core layer's
/// OnlineAdaptor; the runtime only knows the interface.
class OnlineSelector {
public:
  virtual ~OnlineSelector();

  /// Chooses the implementation for an allocation at \p Info (null when
  /// the allocation was not profiled). \p Requested is the source-level
  /// default; \p Capacity may be adjusted in place.
  virtual ImplKind chooseImpl(const ContextInfo *Info, AdtKind Adt,
                              ImplKind Requested, uint32_t &Capacity) = 0;

  /// Asks whether a *live* collection of \p Info should migrate away from
  /// \p Current. Returning an ImplKind starts a transactional migration
  /// (see CollectionRuntime::migrateCollection); std::nullopt (the
  /// default) leaves the collection alone. \p Capacity may be set to size
  /// the target. Selectors implementing this must expect the migration to
  /// abort and be re-asked later (onMigrationResult reports the outcome).
  virtual std::optional<ImplKind> reviseImpl(const ContextInfo *Info,
                                             AdtKind Adt, ImplKind Current,
                                             uint32_t &Capacity) {
    (void)Info;
    (void)Adt;
    (void)Current;
    (void)Capacity;
    return std::nullopt;
  }

  /// Outcome report for a migration this selector requested via
  /// reviseImpl. \p Committed is false for a clean abort (the collection
  /// still runs on its previous implementation). Default: ignore.
  virtual void onMigrationResult(const ContextInfo *Info, bool Committed) {
    (void)Info;
    (void)Committed;
  }

  /// One-line description of this selector's per-context state (current
  /// plan, back-off, pin) for diagnostics — RuleEngine::explainContext
  /// appends it verbatim. Default: nothing to say.
  virtual std::string describeContext(const ContextInfo *Info) const {
    (void)Info;
    return std::string();
  }
};

/// Result of CollectionRuntime::migrateCollection.
enum class MigrationOutcome : uint8_t {
  /// The wrapper now runs on the target implementation.
  Committed,
  /// A failure (injected or real) rolled the transaction back; the wrapper
  /// still runs on its previous implementation, fully intact.
  Aborted,
  /// Nothing to do: same kind, custom/retired wrapper, or a target that
  /// cannot represent the current contents.
  NoOp,
};

/// The collection runtime. One per simulated program run.
class CollectionRuntime {
public:
  explicit CollectionRuntime(RuntimeConfig Config = RuntimeConfig());
  ~CollectionRuntime();

  CollectionRuntime(const CollectionRuntime &) = delete;
  CollectionRuntime &operator=(const CollectionRuntime &) = delete;

  GcHeap &heap() { return Heap; }
  const GcHeap &heap() const { return Heap; }
  SemanticProfiler &profiler() { return Profiler; }
  const SemanticProfiler &profiler() const { return Profiler; }
  const RuntimeConfig &config() const { return Config; }
  const CollectionTypeIds &typeIds() const { return Types; }

  /// Interns an allocation-site label (e.g. "BaseTVS.java:50").
  FrameId site(const std::string &Label) {
    return Profiler.internFrame(Label);
  }

  /// Changes the collector thread count mid-run (heap pass-through; the
  /// worker pool is re-created lazily at the new size).
  void setGcThreads(unsigned Threads) { Heap.setGcThreads(Threads); }

  /// -- Source-level allocations (subject to plan / online selection) ------

  /// `new ArrayList()` / `new ArrayList(Cap)`.
  List newArrayList(FrameId Site, uint32_t Capacity = 0);
  /// `new LinkedList()`.
  List newLinkedList(FrameId Site);
  /// A list whose source explicitly names the implementation (the
  /// "programmer indicated" choice of §4.2).
  List newListOf(ImplKind Impl, FrameId Site, uint32_t Capacity = 0);
  /// `new HashSet()` / `new HashSet(Cap)`.
  Set newHashSet(FrameId Site, uint32_t Capacity = 0);
  Set newSetOf(ImplKind Impl, FrameId Site, uint32_t Capacity = 0);
  /// `new HashMap()` / `new HashMap(Cap)`.
  Map newHashMap(FrameId Site, uint32_t Capacity = 0);
  Map newMapOf(ImplKind Impl, FrameId Site, uint32_t Capacity = 0);

  /// Copy constructors: record the copy interaction counters on both sides.
  List newArrayListCopy(FrameId Site, const List &Source);
  Set newHashSetCopy(FrameId Site, const Set &Source);

  /// Rebuilds a typed handle for a wrapper reference obtained earlier
  /// (e.g. one stored as a Value inside a data object). The wrapper's ADT
  /// must match.
  List adoptList(ObjectRef Wrapper);
  Set adoptSet(ObjectRef Wrapper);
  Map adoptMap(ObjectRef Wrapper);

  /// -- Custom implementations ------------------------------------------------

  /// Registers a user implementation under \p Name; allocations through
  /// newCustom* are profiled per context like any built-in, and the
  /// replacement plan can redirect them to built-ins (the paper's flow for
  /// replacing a poorly-chosen custom structure).
  CustomImplId registerCustomImpl(CustomImpl Impl);

  /// The registered descriptor.
  const CustomImpl &customImpl(CustomImplId Id) const {
    assert(Id < CustomImpls.size() && "unknown CustomImplId");
    return CustomImpls[Id];
  }

  List newCustomList(CustomImplId Impl, FrameId Site,
                     uint32_t Capacity = 0);
  Set newCustomSet(CustomImplId Impl, FrameId Site, uint32_t Capacity = 0);
  Map newCustomMap(CustomImplId Impl, FrameId Site, uint32_t Capacity = 0);

  /// How many wrappers were allocated with a given custom backing.
  uint64_t allocationsWithCustomImpl(CustomImplId Id) const {
    assert(Id < CustomAllocCounts.size() && "unknown CustomImplId");
    return CustomAllocCounts[Id].load(std::memory_order_relaxed);
  }

  /// -- Plan and online selection -------------------------------------------

  ReplacementPlan &plan() { return Plan; }
  const ReplacementPlan &plan() const { return Plan; }

  /// Installs the online selector (null disables online mode).
  void setOnlineSelector(OnlineSelector *Selector) {
    this->Selector = Selector;
  }

  /// Transactionally migrates a live collection to \p Target (two-phase:
  /// build the target shadow-side from the current contents, verify, then
  /// atomically publish into the wrapper). Any failure on the way —
  /// injected allocation failure, a target that cannot hold the contents —
  /// aborts cleanly: the wrapper keeps its current implementation and
  /// contents, the shadow becomes garbage, and the context's
  /// migrationAborts counter is bumped. \p Capacity sizes the target
  /// (0 = current size / kind default). Single-owner discipline: the
  /// calling thread must be the only one operating on this collection.
  CHAM_MAY_SAFEPOINT MigrationOutcome migrateCollection(ObjectRef Wrapper,
                                                        ImplKind Target,
                                                        uint32_t Capacity = 0);

  /// Live-migration counters (whole runtime; thin reads of the
  /// registry-backed cham.collections.* metrics).
  uint64_t migrationAttempts() const { return MigrationAttempts.value(); }
  uint64_t migrationCommits() const { return MigrationCommits.value(); }
  uint64_t migrationAborts() const { return MigrationAborts.value(); }

  /// -- Application payloads -------------------------------------------------

  /// Allocates a plain data object and returns it as a Value. The caller
  /// must ensure it is reachable (insert it into a rooted collection or
  /// hold a Handle) before the next allocation.
  Value allocData(uint32_t PointerFields, uint32_t ScalarBytes = 0);

  /// -- Internal allocations (for implementation classes) -------------------

  ObjectRef allocValueArray(uint32_t Length);
  ObjectRef allocIntArray(uint32_t Length);
  ObjectRef allocMapEntry(Value Key, Value Val, ObjectRef Next);
  ObjectRef allocLinkedEntry(Value Item, ObjectRef Prev, ObjectRef Next);
  ObjectRef allocLinkedHashEntry(Value Item, ObjectRef Chain);
  /// Allocates the per-iteration iterator object; when the collection is
  /// empty and ShareEmptyIterators is on, returns the shared instance.
  ObjectRef allocIterator(ObjectRef Coll, bool CollectionIsEmpty = false);

  /// Allocates a bare implementation object of \p Kind (post-initialised by
  /// the caller; eager representations allocate their internals via
  /// `SeqImpl`/`MapImpl` methods once the object is rooted).
  ObjectRef makeImpl(ImplKind Kind, uint32_t Capacity);

  /// -- Lifecycle -------------------------------------------------------------

  /// Folds the statistics of still-live profiled collections into their
  /// contexts — the end-of-execution completion of the paper's §3.3.2
  /// operation mode. Idempotent. Requires a quiescent world.
  void harvestLiveStatistics();

  /// -- Concurrent mutators (DESIGN.md §9) ----------------------------------

  /// Explicitly retires a collection the program is done with: folds (or,
  /// in concurrent-mutator mode, buffers) its usage record into its
  /// context now, on the retiring thread, instead of waiting for the
  /// sweep. In concurrent-mutator mode this is how deaths stay in
  /// deterministic task order — the sweep's slot order depends on thread
  /// interleaving, so multi-threaded workloads wanting byte-identical
  /// reports retire every profiled collection explicitly (ServerSim does).
  /// Idempotent; the wrapper remains usable (later ops are uncounted).
  void retireCollection(ObjectRef Wrapper);

  /// Epoch-boundary flush: drains every mutator thread's buffered profile
  /// events in deterministic order and canonicalizes context numbering.
  /// Call at application epoch barriers, while every registered mutator
  /// is parked (e.g. in a GcSafeRegion). Pass-through to
  /// SemanticProfiler::flushEpoch.
  void flushMutatorStatistics() { Profiler.flushEpoch(); }

  /// -- Introspection (tests, reports) ---------------------------------------

  /// How many wrappers were allocated with each backing implementation.
  uint64_t allocationsWithImpl(ImplKind Kind) const {
    return ImplAllocCounts[implIndex(Kind)].load(std::memory_order_relaxed);
  }

  /// Contract-violation counters (see retireCollection / Handles).
  uint64_t doubleRetires() const { return DoubleRetireCount.value(); }
  uint64_t usesAfterRetire() const { return UseAfterRetireCount.value(); }
  void noteUseAfterRetire() { UseAfterRetireCount.inc(); }

  /// Periodic online-revision check, called by the handles after mutating
  /// operations: every OnlineRevisePeriod such operations, asks the
  /// installed selector whether this collection should migrate, and runs
  /// the transaction if so.
  void maybeMigrate(ObjectRef Wrapper);

private:
  friend class List;
  friend class Set;
  friend class Map;

  /// Allocates wrapper + backing impl for a source-level request, running
  /// context capture, plan lookup, and online selection. When \p Custom is
  /// non-null it provides the default backing instead of \p Requested
  /// (the plan may still redirect to a built-in).
  ObjectRef allocateCollection(AdtKind Adt, const char *SourceType,
                               ImplKind Requested, FrameId Site,
                               uint32_t Capacity,
                               const CustomImpl *Custom = nullptr);

  void registerTypes();

  /// The EmptyList flyweight's reference, creating it on first use.
  ObjectRef sharedEmptyListRef();

  RuntimeConfig Config;
  GcHeap Heap;
  SemanticProfiler Profiler;
  CollectionTypeIds Types;
  /// Wrapper TypeId + pre-interned source-type FrameId per source-level
  /// type name (created on demand). Shared-locked: steady-state
  /// allocations only read; registration of a new source type is rare.
  struct WrapperTypeInfo {
    TypeId Type = 0;
    FrameId SourceTypeFrame = 0;
  };
  mutable std::shared_mutex WrapperTypesMu;
  std::unordered_map<std::string, WrapperTypeInfo> WrapperTypes;
  ReplacementPlan Plan;
  OnlineSelector *Selector = nullptr;
  std::array<std::atomic<uint64_t>, NumImplKinds> ImplAllocCounts{};
  /// Guards the lazy creation of the two shared flyweights below. Waiters
  /// park in a GcSafeRegion, because the holder allocates (and so may
  /// initiate a stop-the-world) with the lock held.
  std::mutex FlyweightMu;
  /// EmptyList is immutable and stateless, so all wrappers backed by it
  /// share one flyweight implementation object — this is what makes the
  /// "collection never used" fix eliminate nearly the whole per-instance
  /// cost, like the paper's manual lazy-allocation fix for bloat.
  Handle SharedEmptyList;
  /// The shared iterator returned for empty iterations when
  /// ShareEmptyIterators is on (§5.4).
  Handle SharedEmptyIterator;
  std::vector<CustomImpl> CustomImpls;
  /// Deque of atomics: stable addresses under growth, lock-free bumps.
  std::deque<std::atomic<uint64_t>> CustomAllocCounts;
  /// Instance-owned, registry-backed counters (cham.collections.*): each
  /// runtime reads its own values (so a fresh runtime reads zero) while
  /// the telemetry exporters merge every live instance.
  obs::Counter MigrationAttempts{"cham.collections.migration_attempts"};
  obs::Counter MigrationCommits{"cham.collections.migration_commits"};
  obs::Counter MigrationAborts{"cham.collections.migration_aborts"};
  obs::Counter DoubleRetireCount{"cham.collections.double_retires"};
  obs::Counter UseAfterRetireCount{"cham.collections.use_after_retire"};
};

/// RAII registration of the calling thread as a mutator, pairing the
/// heap-side registration (root segment, safepoint participation) with the
/// profiler-side switch into concurrent-mutator mode. Construct as the
/// first act of every worker thread that touches a shared runtime, destroy
/// (on the same thread) before it exits; surviving handles migrate to the
/// main thread's root segment at destruction. The runtime should be
/// configured with `ProfilerConfig::ConcurrentMutators` so statistics
/// buffer from the very first event.
class MutatorScope {
public:
  explicit MutatorScope(CollectionRuntime &RT) : RT(RT) {
    RT.profiler().enableConcurrentMutators();
    M = RT.heap().registerMutatorThread();
  }
  MutatorScope(const MutatorScope &) = delete;
  MutatorScope &operator=(const MutatorScope &) = delete;
  ~MutatorScope() { RT.heap().unregisterMutatorThread(M); }

private:
  CollectionRuntime &RT;
  MutatorThread *M;
};

} // namespace chameleon

#endif // CHAMELEON_COLLECTIONS_COLLECTIONRUNTIME_H
