//===--- CollectionRuntime.cpp - Heap + profiler + factory ----------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "collections/CollectionRuntime.h"

#include "collections/ArrayListImpl.h"
#include "collections/ArrayMapImpl.h"
#include "collections/Handles.h"
#include "collections/HashMapImpl.h"
#include "collections/LinkedHashSetImpl.h"
#include "collections/LinkedListImpl.h"
#include "collections/OtherMapImpls.h"
#include "collections/SetImpls.h"
#include "collections/SmallListImpls.h"
#include "obs/DecisionLog.h"
#include "obs/Trace.h"
#include "support/Assert.h"
#include "support/FaultInjector.h"

#include <chrono>

using namespace chameleon;

OnlineSelector::~OnlineSelector() = default;

namespace {

// Migration-phase latency (cham.collections.migrate_*_nanos, DESIGN.md
// §16): HDR histograms so the exporters can report tail percentiles of
// each transactional phase independently.
CHAM_METRIC_HDR(MigrateBuildHdrNanos, "cham.collections.migrate_build_nanos");
CHAM_METRIC_HDR(MigrateVerifyHdrNanos,
                "cham.collections.migrate_verify_nanos");
CHAM_METRIC_HDR(MigratePublishHdrNanos,
                "cham.collections.migrate_publish_nanos");

/// Nanoseconds elapsed since \p Start.
uint64_t nanosSince(std::chrono::steady_clock::time_point Start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
}

/// Ledger record skeleton for one migration-lifecycle event.
obs::DecisionRecord migrationRecord(const ContextInfo *Ctx,
                                    obs::DecisionKind Kind, ImplKind Target) {
  obs::DecisionRecord R;
  R.CtxId = Ctx ? Ctx->id() : ~0u;
  R.Epoch = obs::DecisionLog::instance().currentEpoch();
  R.Kind = Kind;
  R.Impl = static_cast<uint8_t>(implIndex(Target));
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Semantic-map functions for wrapper types
//===----------------------------------------------------------------------===//

static CollectionSizes wrapperComputeSizes(const HeapObject &Obj,
                                           const GcHeap &Heap) {
  const auto &W = static_cast<const CollectionObject &>(Obj);
  CollectionSizes S;
  // The wrapper itself (and the profiling record charged to it) is occupied
  // space that is not reserved capacity, so it counts as live and used but
  // never as core.
  S.Live = Obj.shallowBytes();
  S.Used = Obj.shallowBytes();
  if (!W.Impl.isNull()) {
    const auto &Impl = Heap.getAs<CollectionImplBase>(W.Impl);
    CollectionSizes Inner = Impl.sizes();
    S.Live += Inner.Live;
    S.Used += Inner.Used;
    S.Core = Inner.Core;
  }
  return S;
}

static void *wrapperContextTag(const HeapObject &Obj) {
  return static_cast<const CollectionObject &>(Obj).Ctx;
}

static void *wrapperObjectInfo(const HeapObject &Obj) {
  const auto &W = static_cast<const CollectionObject &>(Obj);
  return W.Ctx ? &W.Usage : nullptr;
}

//===----------------------------------------------------------------------===//
// Construction and type registration
//===----------------------------------------------------------------------===//

CollectionRuntime::CollectionRuntime(RuntimeConfig Config)
    : Config(Config), Heap(Config.Model, Config.HeapLimitBytes),
      Profiler(Config.Profiler) {
  Heap.setProfilerHooks(&Profiler);
  Heap.setRecordTypeDistribution(Config.RecordTypeDistribution);
  Heap.setGcSampleEveryBytes(Config.GcSampleEveryBytes);
  Heap.setGcThreads(Config.GcThreads ? Config.GcThreads : 1);
  registerTypes();
}

CollectionRuntime::~CollectionRuntime() {
  // Hooks point into this object's Profiler; detach before the heap dies.
  Heap.setProfilerHooks(nullptr);
}

void CollectionRuntime::registerTypes() {
  auto Internal = [&](const char *Name) {
    SemanticMap Map;
    Map.Name = Name;
    Map.Kind = TypeKind::CollectionInternal;
    return Heap.types().registerType(std::move(Map));
  };
  Types.ValueArray = Internal("Object[]");
  Types.IntArray = Internal("int[]");
  Types.MapEntry = Internal("HashMap$Entry");
  Types.LinkedEntry = Internal("LinkedList$Entry");
  Types.LinkedHashEntry = Internal("LinkedHashMap$Entry");
  Types.Iterator = Internal("Iterator");
  for (unsigned I = 0; I < NumImplKinds; ++I)
    Types.Impl[I] = Internal(implKindName(static_cast<ImplKind>(I)));

  SemanticMap DataMap;
  DataMap.Name = "Object";
  DataMap.Kind = TypeKind::Plain;
  Types.Data = Heap.types().registerType(std::move(DataMap));
}

//===----------------------------------------------------------------------===//
// Internal allocations
//===----------------------------------------------------------------------===//

ObjectRef CollectionRuntime::allocValueArray(uint32_t Length) {
  return Heap.allocate(std::make_unique<ValueArray>(
      Types.ValueArray, Heap.model().arrayBytes(Length), Length));
}

ObjectRef CollectionRuntime::allocIntArray(uint32_t Length) {
  uint64_t Bytes = Heap.model().align(Heap.model().ArrayHeaderBytes
                                      + static_cast<uint64_t>(Length) * 4);
  return Heap.allocate(
      std::make_unique<IntArray>(Types.IntArray, Bytes, Length));
}

ObjectRef CollectionRuntime::allocMapEntry(Value Key, Value Val,
                                           ObjectRef Next) {
  TempRootScope Guard(Heap, Key.refOrNull(), Val.refOrNull(), Next);
  return Heap.allocate(std::make_unique<MapEntry>(
      Types.MapEntry, Heap.model().objectBytes(3), Key, Val, Next));
}

ObjectRef CollectionRuntime::allocLinkedEntry(Value Item, ObjectRef Prev,
                                              ObjectRef Next) {
  TempRootScope Guard(Heap, Item.refOrNull(), Prev, Next);
  return Heap.allocate(std::make_unique<LinkedEntry>(
      Types.LinkedEntry, Heap.model().objectBytes(3), Item, Prev, Next));
}

ObjectRef CollectionRuntime::allocLinkedHashEntry(Value Item,
                                                  ObjectRef Chain) {
  TempRootScope Guard(Heap, Item.refOrNull(), Chain);
  return Heap.allocate(std::make_unique<LinkedHashEntry>(
      Types.LinkedHashEntry, Heap.model().objectBytes(5), Item, Chain));
}

ObjectRef CollectionRuntime::allocIterator(ObjectRef Coll) {
  TempRootScope Guard(Heap, Coll);
  return Heap.allocate(std::make_unique<IteratorObject>(
      Types.Iterator, Heap.model().objectBytes(2), Coll));
}

Value CollectionRuntime::allocData(uint32_t PointerFields,
                                   uint32_t ScalarBytes) {
  ObjectRef Ref = Heap.allocate(std::make_unique<ValueArray>(
      Types.Data, Heap.model().objectBytes(PointerFields, ScalarBytes),
      PointerFields));
  return Value::ofRef(Ref);
}

//===----------------------------------------------------------------------===//
// Implementation construction
//===----------------------------------------------------------------------===//

ObjectRef CollectionRuntime::makeImpl(ImplKind Kind, uint32_t Capacity) {
  const MemoryModel &M = Heap.model();
  TypeId Type = Types.Impl[implIndex(Kind)];
  if (Capacity == 0)
    Capacity = defaultCapacityOf(Kind);
  switch (Kind) {
  case ImplKind::ArrayList:
    return Heap.allocate(std::make_unique<ArrayListImpl>(
        Type, M.objectBytes(1, 8), *this, /*Lazy=*/false, Capacity));
  case ImplKind::LazyArrayList:
    return Heap.allocate(std::make_unique<ArrayListImpl>(
        Type, M.objectBytes(1, 8), *this, /*Lazy=*/true, Capacity));
  case ImplKind::LinkedList:
    return Heap.allocate(std::make_unique<LinkedListImpl>(
        Type, M.objectBytes(1, 4), *this));
  case ImplKind::SingletonList:
    return Heap.allocate(std::make_unique<SingletonListImpl>(
        Type, M.objectBytes(1, 1), *this));
  case ImplKind::EmptyList:
    return Heap.allocate(
        std::make_unique<EmptyListImpl>(Type, M.objectBytes(0), *this));
  case ImplKind::IntArrayList:
    return Heap.allocate(std::make_unique<IntArrayListImpl>(
        Type, M.objectBytes(1, 8), *this, Capacity));
  case ImplKind::HashedList:
    return Heap.allocate(std::make_unique<LinkedHashSetImpl>(
        Type, M.objectBytes(2, 12), *this, Capacity));
  case ImplKind::HashSet:
    return Heap.allocate(std::make_unique<HashSetImpl>(
        Type, M.objectBytes(1), *this, /*Lazy=*/false, Capacity));
  case ImplKind::LazySet:
    return Heap.allocate(std::make_unique<HashSetImpl>(
        Type, M.objectBytes(1), *this, /*Lazy=*/true, Capacity));
  case ImplKind::ArraySet:
    return Heap.allocate(std::make_unique<ArraySetImpl>(
        Type, M.objectBytes(1, 8), *this, Capacity));
  case ImplKind::LinkedHashSet:
    return Heap.allocate(std::make_unique<LinkedHashSetImpl>(
        Type, M.objectBytes(2, 12), *this, Capacity));
  case ImplKind::SizeAdaptingSet:
    return Heap.allocate(std::make_unique<SizeAdaptingSetImpl>(
        Type, M.objectBytes(1, 8), *this, Capacity));
  case ImplKind::HashMap:
    return Heap.allocate(std::make_unique<HashMapImpl>(
        Type, M.objectBytes(1, 12), *this, /*Lazy=*/false, Capacity));
  case ImplKind::LazyMap:
    return Heap.allocate(std::make_unique<HashMapImpl>(
        Type, M.objectBytes(1, 12), *this, /*Lazy=*/true, Capacity));
  case ImplKind::ArrayMap:
    return Heap.allocate(std::make_unique<ArrayMapImpl>(
        Type, M.objectBytes(1, 8), *this, Capacity));
  case ImplKind::SingletonMap:
    return Heap.allocate(std::make_unique<SingletonMapImpl>(
        Type, M.objectBytes(2, 1), *this));
  case ImplKind::SizeAdaptingMap:
    return Heap.allocate(std::make_unique<SizeAdaptingMapImpl>(
        Type, M.objectBytes(1, 8), *this, Capacity));
  }
  CHAM_UNREACHABLE("unknown ImplKind");
}

//===----------------------------------------------------------------------===//
// The factory: context capture, plan lookup, online selection
//===----------------------------------------------------------------------===//

ObjectRef CollectionRuntime::allocateCollection(AdtKind Adt,
                                                const char *SourceType,
                                                ImplKind Requested,
                                                FrameId Site,
                                                uint32_t Capacity,
                                                const CustomImpl *Custom) {
  // Wrapper TypeId for the source-level type (registered on first use).
  // Reads vastly outnumber the one-time registrations, so the map sits
  // behind a shared_mutex; the source-type frame is interned once at
  // registration so the hot path never touches the frame interner.
  WrapperTypeInfo WrapperType;
  {
    std::shared_lock<std::shared_mutex> Lock(WrapperTypesMu);
    auto TypeIt = WrapperTypes.find(SourceType);
    if (TypeIt != WrapperTypes.end())
      WrapperType = TypeIt->second;
  }
  if (!WrapperType.Type) {
    std::unique_lock<std::shared_mutex> Lock(WrapperTypesMu);
    auto TypeIt = WrapperTypes.find(SourceType);
    if (TypeIt != WrapperTypes.end()) {
      WrapperType = TypeIt->second;
    } else {
      SemanticMap Map;
      // The "$Wrapper" suffix only affects type-distribution displays;
      // contexts and rules use the bare source-type name.
      Map.Name = std::string(SourceType) + "$Wrapper";
      Map.Kind = TypeKind::CollectionWrapper;
      Map.ComputeSizes = wrapperComputeSizes;
      Map.ContextTagOf = wrapperContextTag;
      Map.ObjectInfoOf = wrapperObjectInfo;
      WrapperType.Type = Heap.types().registerType(std::move(Map));
      WrapperType.SourceTypeFrame = Profiler.internFrame(SourceType);
      WrapperTypes.emplace(SourceType, WrapperType);
    }
  }

  // Context capture (the expensive step the paper's online mode pays).
  ContextInfo *Ctx =
      Profiler.contextForAllocation(Site, WrapperType.SourceTypeFrame);

  // Offline plan, then online selector. A plan decision with an
  // implementation overrides a custom default (the paper's flow for
  // replacing a poorly-chosen custom structure with a built-in).
  ImplKind Kind = Requested;
  bool UseCustom = Custom != nullptr;
  const PlanDecision *Planned = Ctx ? Plan.lookup(Ctx->label()) : nullptr;
  if (Planned) {
    if (std::optional<ImplKind> Impl = Planned->apply(Adt, Capacity)) {
      Kind = *Impl;
      UseCustom = false;
    }
  }
  if (Selector && !UseCustom)
    Kind = Selector->chooseImpl(Ctx, Adt, Kind, Capacity);
  assert((UseCustom || adtOfImpl(Kind) == Adt)
         && "selected impl does not fit the ADT");

  uint32_t EffectiveCapacity =
      Capacity || UseCustom ? Capacity : defaultCapacityOf(Kind);

  // Build impl, then wrapper; temp-root the impl across the wrapper
  // allocation. EmptyList is a shared flyweight (immutable, stateless).
  ObjectRef ImplRef;
  if (UseCustom) {
    ImplRef = Heap.allocate(Custom->Make(*this, Custom->Type, Capacity));
  } else if (Kind == ImplKind::EmptyList) {
    ImplRef = sharedEmptyListRef();
  } else {
    ImplRef = makeImpl(Kind, EffectiveCapacity);
  }
  TempRootScope Guard(Heap, ImplRef);
  Heap.getAs<CollectionImplBase>(ImplRef).initEager();

  uint64_t WrapperBytes = Heap.model().objectBytes(1)
                          + (Ctx ? Config.ObjectInfoSimBytes : 0);
  ObjectRef WrapperRef = Heap.allocate(std::make_unique<CollectionObject>(
      WrapperType.Type, WrapperBytes, Adt, Kind));
  CollectionObject &W = Heap.getAs<CollectionObject>(WrapperRef);
  W.Impl = ImplRef;
  W.Ctx = Ctx;
  W.Usage.InitialCapacity = EffectiveCapacity;
  Profiler.noteAllocation(Ctx, EffectiveCapacity);
  if (UseCustom) {
    W.CustomId = static_cast<int32_t>(Custom - CustomImpls.data());
    CustomAllocCounts[static_cast<size_t>(W.CustomId)].fetch_add(
        1, std::memory_order_relaxed);
  } else {
    ImplAllocCounts[implIndex(Kind)].fetch_add(1,
                                               std::memory_order_relaxed);
  }
  CHAM_TRACE_INSTANT_ARG("collections", "alloc", "impl",
                         static_cast<int64_t>(implIndex(Kind)));
  return WrapperRef;
}

ObjectRef CollectionRuntime::sharedEmptyListRef() {
  // Same discipline as the shared empty iterator: the lock is held across
  // an allocation, so waiters must park in a GC-safe region.
  std::unique_lock<std::mutex> L(FlyweightMu, std::defer_lock);
  {
    GcSafeRegion Region(Heap);
    L.lock();
  }
  if (SharedEmptyList.isNull())
    SharedEmptyList.set(Heap, makeImpl(ImplKind::EmptyList, 0));
  return SharedEmptyList.ref();
}

CustomImplId CollectionRuntime::registerCustomImpl(CustomImpl Impl) {
  assert(Impl.Make && "custom implementation needs a factory");
  assert(!Impl.Name.empty() && "custom implementation needs a name");
  SemanticMap Map;
  Map.Name = Impl.Name;
  Map.Kind = TypeKind::CollectionInternal;
  Impl.Type = Heap.types().registerType(std::move(Map));
  CustomImpls.push_back(std::move(Impl));
  CustomAllocCounts.emplace_back(0);
  return static_cast<CustomImplId>(CustomImpls.size() - 1);
}

List CollectionRuntime::newCustomList(CustomImplId Impl, FrameId Site,
                                      uint32_t Capacity) {
  const CustomImpl &C = customImpl(Impl);
  assert(C.Adt == AdtKind::List && "not a list implementation");
  return List(*this, allocateCollection(AdtKind::List, C.Name.c_str(),
                                        ImplKind::ArrayList, Site,
                                        Capacity, &C));
}

Set CollectionRuntime::newCustomSet(CustomImplId Impl, FrameId Site,
                                    uint32_t Capacity) {
  const CustomImpl &C = customImpl(Impl);
  assert(C.Adt == AdtKind::Set && "not a set implementation");
  return Set(*this, allocateCollection(AdtKind::Set, C.Name.c_str(),
                                       ImplKind::HashSet, Site, Capacity,
                                       &C));
}

Map CollectionRuntime::newCustomMap(CustomImplId Impl, FrameId Site,
                                    uint32_t Capacity) {
  const CustomImpl &C = customImpl(Impl);
  assert(C.Adt == AdtKind::Map && "not a map implementation");
  return Map(*this, allocateCollection(AdtKind::Map, C.Name.c_str(),
                                       ImplKind::HashMap, Site, Capacity,
                                       &C));
}

//===----------------------------------------------------------------------===//
// Source-level allocation API
//===----------------------------------------------------------------------===//

List CollectionRuntime::newArrayList(FrameId Site, uint32_t Capacity) {
  return List(*this, allocateCollection(AdtKind::List, "ArrayList",
                                        ImplKind::ArrayList, Site,
                                        Capacity));
}

List CollectionRuntime::newLinkedList(FrameId Site) {
  return List(*this, allocateCollection(AdtKind::List, "LinkedList",
                                        ImplKind::LinkedList, Site,
                                        /*Capacity=*/0));
}

List CollectionRuntime::newListOf(ImplKind Impl, FrameId Site,
                                  uint32_t Capacity) {
  assert(adtOfImpl(Impl) == AdtKind::List && "not a list implementation");
  return List(*this, allocateCollection(AdtKind::List, implKindName(Impl),
                                        Impl, Site, Capacity));
}

Set CollectionRuntime::newHashSet(FrameId Site, uint32_t Capacity) {
  return Set(*this, allocateCollection(AdtKind::Set, "HashSet",
                                       ImplKind::HashSet, Site, Capacity));
}

Set CollectionRuntime::newSetOf(ImplKind Impl, FrameId Site,
                                uint32_t Capacity) {
  assert(adtOfImpl(Impl) == AdtKind::Set && "not a set implementation");
  return Set(*this, allocateCollection(AdtKind::Set, implKindName(Impl),
                                       Impl, Site, Capacity));
}

Map CollectionRuntime::newHashMap(FrameId Site, uint32_t Capacity) {
  return Map(*this, allocateCollection(AdtKind::Map, "HashMap",
                                       ImplKind::HashMap, Site, Capacity));
}

Map CollectionRuntime::newMapOf(ImplKind Impl, FrameId Site,
                                uint32_t Capacity) {
  assert(adtOfImpl(Impl) == AdtKind::Map && "not a map implementation");
  return Map(*this, allocateCollection(AdtKind::Map, implKindName(Impl),
                                       Impl, Site, Capacity));
}

List CollectionRuntime::newArrayListCopy(FrameId Site, const List &Source) {
  List Fresh = newArrayList(Site, Source.size());
  // The wrapper is rooted by Fresh's handle and the GC is non-moving.
  // cham-checker-ok(check-raw-across-safepoint): rooted via Fresh
  CollectionObject &W = Heap.getAs<CollectionObject>(Fresh.wrapperRef());
  if (W.Ctx)
    W.Usage.count(OpKind::CopiedFrom);
  Source.countOp(OpKind::CopiedInto);
  SeqImpl &Dst = Heap.getAs<SeqImpl>(W.Impl);
  const SeqImpl &Src = Heap.getAs<SeqImpl>(
      Heap.getAs<CollectionObject>(Source.wrapperRef()).Impl);
  IterState It;
  Value V;
  while (Src.iterNext(It, V)) {
    TempRootScope Guard(Heap, V.refOrNull());
    Dst.add(V);
  }
  if (W.Ctx)
    W.Usage.noteSize(Dst.size());
  return Fresh;
}

List CollectionRuntime::adoptList(ObjectRef Wrapper) {
  assert(Heap.getAs<CollectionObject>(Wrapper).Adt == AdtKind::List
         && "wrapper is not a List");
  return List(*this, Wrapper);
}

Set CollectionRuntime::adoptSet(ObjectRef Wrapper) {
  assert(Heap.getAs<CollectionObject>(Wrapper).Adt == AdtKind::Set
         && "wrapper is not a Set");
  return Set(*this, Wrapper);
}

Map CollectionRuntime::adoptMap(ObjectRef Wrapper) {
  assert(Heap.getAs<CollectionObject>(Wrapper).Adt == AdtKind::Map
         && "wrapper is not a Map");
  return Map(*this, Wrapper);
}

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

void CollectionRuntime::retireCollection(ObjectRef Wrapper) {
  CollectionObject &W = Heap.getAs<CollectionObject>(Wrapper);
  if (W.Retired) {
    // The death event was already folded; folding again would double-count
    // every per-instance statistic. Report the contract violation and
    // carry on (CHAMELEON_PARANOID builds abort instead).
    DoubleRetireCount.inc();
    CHAM_DCHECK(false, "double retire of a collection wrapper");
    return;
  }
  W.Retired = true;
  if (W.Ctx)
    Profiler.noteDeath(W.Ctx, W.Usage);
}

//===----------------------------------------------------------------------===//
// Transactional live migration (online mode)
//===----------------------------------------------------------------------===//

/// Built-in kinds a live collection can migrate *to*. The bounded kinds
/// work only as allocation-time choices: EmptyList rejects all mutation and
/// the singleton impls hold at most one element, so a collection that later
/// outgrows them would be stuck.
static bool isMigratableTarget(ImplKind Kind) { return !implIsBounded(Kind); }

MigrationOutcome CollectionRuntime::migrateCollection(ObjectRef Wrapper,
                                                      ImplKind Target,
                                                      uint32_t Capacity) {
  Handle WrapperRoot(Heap, Wrapper);
  CollectionObject &W = Heap.getAs<CollectionObject>(Wrapper);
  if (W.CustomId >= 0 || W.Retired || W.CurrentImpl == Target
      || !implSupportsAdt(Target, W.Adt) || !isMigratableTarget(Target))
    return MigrationOutcome::NoOp;

  MigrationAttempts.inc();
  const int64_t CtxId = W.Ctx ? static_cast<int64_t>(W.Ctx->id()) : -1;
  CHAM_TRACE_SPAN_ARG("migrate", "transaction", "ctx", CtxId);
  obs::DecisionLog &Ledger = obs::DecisionLog::instance();
  if (Ledger.enabled()) {
    obs::DecisionRecord Rec =
        migrationRecord(W.Ctx, obs::DecisionKind::MigrationStart, Target);
    Rec.Capacity = Capacity;
    Ledger.record(Rec);
  }
  Handle ShadowRoot;
  bool Verified = false;
  // Phase 1+2 form the transaction: any injected allocation failure below
  // unwinds to the catch, where the half-built shadow is simply dropped
  // (the GC reclaims it) and the wrapper is untouched. This is the one
  // region prepared to recover, so it is the one region where FailAlloc
  // faults are delivered.
  FaultInjector::FailScope Armed;
  try {
    CHAM_FAULT("migrate.begin");
    // Phase 1: build the target implementation shadow-side from the
    // current contents. The source impl stays reachable through the
    // wrapper; per-element temp roots protect values across the internal
    // allocations of the copy.
    uint32_t SrcSize = Heap.getAs<CollectionImplBase>(W.Impl).size();
    uint32_t TargetCapacity = Capacity ? Capacity : SrcSize;
    auto BuildStart = std::chrono::steady_clock::now();
    {
      CHAM_TRACE_SPAN_ARG("migrate", "build", "ctx", CtxId);
      ShadowRoot.set(Heap, makeImpl(Target, TargetCapacity));
      Heap.getAs<CollectionImplBase>(ShadowRoot.ref()).initEager();
    }
    MigrateBuildHdrNanos.observe(nanosSince(BuildStart));
    if (Ledger.enabled()) {
      obs::DecisionRecord Rec =
          migrationRecord(W.Ctx, obs::DecisionKind::MigrationBuild, Target);
      Rec.Capacity = TargetCapacity;
      Rec.Allocations = SrcSize;
      Ledger.record(Rec);
    }
    auto VerifyStart = std::chrono::steady_clock::now();
    CHAM_FAULT("migrate.copy");
    if (W.Adt == AdtKind::Map) {
      CHAM_TRACE_SPAN_ARG("migrate", "copy_verify", "ctx", CtxId);
      const MapImpl &Src = Heap.getAs<MapImpl>(W.Impl);
      MapImpl &Dst = Heap.getAs<MapImpl>(ShadowRoot.ref());
      IterState It;
      Value K, V;
      while (Src.iterNext(It, K, V)) {
        TempRootScope Guard(Heap, K.refOrNull(), V.refOrNull());
        Dst.put(K, V);
      }
      // Phase 2: verify the shadow represents the contents exactly.
      // cham-checker-ok(check-fault-tag-dup): same verify phase, map branch
      CHAM_FAULT("migrate.verify");
      Verified = Dst.size() == Src.size();
      if (Verified) {
        IterState Check;
        while (Src.iterNext(Check, K, V)) {
          if (Dst.get(K) != V) {
            Verified = false;
            break;
          }
        }
      }
    } else {
      CHAM_TRACE_SPAN_ARG("migrate", "copy_verify", "ctx", CtxId);
      const SeqImpl &Src = Heap.getAs<SeqImpl>(W.Impl);
      SeqImpl &Dst = Heap.getAs<SeqImpl>(ShadowRoot.ref());
      bool Representable = true;
      IterState It;
      Value V;
      while (Src.iterNext(It, V)) {
        if (Target == ImplKind::IntArrayList && !V.isInt()) {
          // The int-specialised list cannot hold references; leave the
          // shadow short and let verification abort the transaction.
          Representable = false;
          break;
        }
        TempRootScope Guard(Heap, V.refOrNull());
        Dst.add(V);
      }
      // cham-checker-ok(check-fault-tag-dup): same verify phase, seq branch
      CHAM_FAULT("migrate.verify");
      // Size equality also catches semantics-changing conversions, e.g. a
      // list with duplicates migrating to the deduplicating HashedList.
      Verified = Representable && Dst.size() == Src.size();
      if (Verified && W.Adt == AdtKind::List) {
        // Lists must preserve order: compare pairwise (every built-in
        // list iterates in index order, HashedList in insertion order).
        IterState SrcIt, DstIt;
        Value SrcV, DstV;
        while (Src.iterNext(SrcIt, SrcV) && Dst.iterNext(DstIt, DstV)) {
          if (SrcV != DstV) {
            Verified = false;
            break;
          }
        }
      } else if (Verified) {
        IterState Check;
        while (Src.iterNext(Check, V)) {
          if (!Dst.contains(V)) {
            Verified = false;
            break;
          }
        }
      }
    }
    MigrateVerifyHdrNanos.observe(nanosSince(VerifyStart));
    if (Ledger.enabled()) {
      obs::DecisionRecord Rec =
          migrationRecord(W.Ctx, obs::DecisionKind::MigrationVerify, Target);
      Rec.Capacity = Verified ? 1 : 0;
      Ledger.record(Rec);
    }
    if (Verified) {
      // Phase 3: publish. One reference store into the wrapper — the
      // program-facing handles re-fetch the impl through the wrapper on
      // every operation, so they observe the swap atomically; the old
      // impl becomes garbage.
      CHAM_TRACE_SPAN_ARG("migrate", "publish", "ctx", CtxId);
      auto PublishStart = std::chrono::steady_clock::now();
      CHAM_FAULT("migrate.publish");
      W.Impl = ShadowRoot.ref();
      W.CurrentImpl = Target;
      ++W.MigrationEpoch;
      MigratePublishHdrNanos.observe(nanosSince(PublishStart));
      if (Ledger.enabled()) {
        Ledger.record(
            migrationRecord(W.Ctx, obs::DecisionKind::MigrationPublish,
                            Target));
        Ledger.record(migrationRecord(
            W.Ctx, obs::DecisionKind::MigrationCommit, Target));
      }
      MigrationCommits.inc();
      if (W.Ctx)
        W.Ctx->noteMigrationCommit();
      return MigrationOutcome::Committed;
    }
  } catch (const InjectedFault &) {
    // Clean abort: nothing was published, the shadow is garbage.
  }
  MigrationAborts.inc();
  CHAM_TRACE_INSTANT_ARG("migrate", "abort", "ctx", CtxId);
  if (W.Ctx)
    W.Ctx->noteMigrationAbort();
  if (Ledger.enabled()) {
    obs::DecisionRecord Rec =
        migrationRecord(W.Ctx, obs::DecisionKind::MigrationAbort, Target);
    uint64_t Aborts = W.Ctx ? W.Ctx->migrationAborts() : 0;
    Rec.Rule = static_cast<int16_t>(Aborts > 0x7fff ? 0x7fff : Aborts);
    Ledger.record(Rec);
  }
  return MigrationOutcome::Aborted;
}

void CollectionRuntime::maybeMigrate(ObjectRef Wrapper) {
  if (!Selector || Config.OnlineRevisePeriod == 0)
    return;
  // Every caller operates on the wrapper through a live collection
  // handle, and the GC is non-moving, so W stays valid across the polls.
  // cham-checker-ok(check-raw-across-safepoint): rooted by caller's handle
  CollectionObject &W = Heap.getAs<CollectionObject>(Wrapper);
  if (!W.Ctx || W.CustomId >= 0 || W.Retired)
    return;
  if (++W.ReviseTick % Config.OnlineRevisePeriod != 0)
    return;
  uint32_t Capacity = 0;
  std::optional<ImplKind> Target =
      Selector->reviseImpl(W.Ctx, W.Adt, W.CurrentImpl, Capacity);
  if (!Target)
    return;
  Target = adaptImplToAdt(*Target, W.Adt);
  if (!Target || *Target == W.CurrentImpl)
    return;
  MigrationOutcome Outcome = migrateCollection(Wrapper, *Target, Capacity);
  if (Outcome != MigrationOutcome::NoOp)
    Selector->onMigrationResult(W.Ctx,
                                Outcome == MigrationOutcome::Committed);
}

void CollectionRuntime::harvestLiveStatistics() {
  Heap.forEachObject([&](HeapObject &Obj) {
    const SemanticMap &Map = Heap.types().get(Obj.typeId());
    if (Map.Kind != TypeKind::CollectionWrapper)
      return;
    auto &W = static_cast<CollectionObject &>(Obj);
    if (W.Ctx)
      Profiler.noteDeath(W.Ctx, W.Usage);
  });
  Profiler.flushEpoch();
}
