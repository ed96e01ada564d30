//===--- HandlesTest.cpp - Wrapper op-counting unit tests -----------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks that every handle operation records the right counter in the
/// wrapper's per-instance record — the trace half of Table 1 — and pins
/// each operation's shape: which counter it bumps, whether it records the
/// size, and whether it reaches the online-revision hook.
///
//===----------------------------------------------------------------------===//

#include "collections/CollectionRuntime.h"
#include "collections/Handles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <type_traits>
#include <vector>

using namespace chameleon;

namespace {

struct HandlesTest : ::testing::Test {
  CollectionRuntime RT;
  FrameId Site = RT.site("test:1");

  const ObjectContextInfo &usageOf(const CollectionHandleBase &H) {
    return RT.heap().getAs<CollectionObject>(H.wrapperRef()).Usage;
  }

  uint32_t countOf(const CollectionHandleBase &H, OpKind Op) {
    return usageOf(H).Counts[opIndex(Op)];
  }
};

TEST_F(HandlesTest, ListOpsAreCounted) {
  List L = RT.newArrayList(Site);
  L.add(Value::ofInt(1));
  L.add(0, Value::ofInt(0));
  (void)L.get(0);
  (void)L.get(1);
  L.set(0, Value::ofInt(5));
  (void)L.contains(Value::ofInt(5));
  (void)L.size();
  (void)L.isEmpty();
  L.removeAt(0);
  L.remove(Value::ofInt(1));
  L.add(Value::ofInt(2));
  L.removeFirst();
  L.clear();

  EXPECT_EQ(countOf(L, OpKind::Add), 2u);
  EXPECT_EQ(countOf(L, OpKind::AddAtIndex), 1u);
  EXPECT_EQ(countOf(L, OpKind::GetAtIndex), 2u);
  EXPECT_EQ(countOf(L, OpKind::Set), 1u);
  EXPECT_EQ(countOf(L, OpKind::Contains), 1u);
  EXPECT_EQ(countOf(L, OpKind::Size), 1u);
  EXPECT_EQ(countOf(L, OpKind::IsEmpty), 1u);
  EXPECT_EQ(countOf(L, OpKind::RemoveAtIndex), 1u);
  EXPECT_EQ(countOf(L, OpKind::RemoveObject), 1u);
  EXPECT_EQ(countOf(L, OpKind::RemoveFirst), 1u);
  EXPECT_EQ(countOf(L, OpKind::Clear), 1u);
}

TEST_F(HandlesTest, MaxAndCurrentSizeTracked) {
  List L = RT.newArrayList(Site);
  for (int I = 0; I < 5; ++I)
    L.add(Value::ofInt(I));
  L.removeAt(0);
  L.removeAt(0);
  const ObjectContextInfo &Usage = usageOf(L);
  EXPECT_EQ(Usage.MaxSize, 5u);
  EXPECT_EQ(Usage.CurrentSize, 3u);
}

TEST_F(HandlesTest, EffectiveInitialCapacityRecorded) {
  List Default = RT.newArrayList(Site);
  EXPECT_EQ(usageOf(Default).InitialCapacity, 10u);
  List Sized = RT.newArrayList(Site, 64);
  EXPECT_EQ(usageOf(Sized).InitialCapacity, 64u);
  Map M = RT.newHashMap(Site);
  EXPECT_EQ(usageOf(M).InitialCapacity, 16u);
}

TEST_F(HandlesTest, AddAllCountsBothSides) {
  List Src = RT.newArrayList(Site);
  Src.add(Value::ofInt(1));
  List Dst = RT.newArrayList(Site);
  Dst.addAll(Src);
  EXPECT_EQ(countOf(Dst, OpKind::AddAll), 1u);
  EXPECT_EQ(countOf(Src, OpKind::CopiedInto), 1u);
  // The element transfer is internal, not counted as add ops on either.
  EXPECT_EQ(countOf(Dst, OpKind::Add), 0u);
}

TEST_F(HandlesTest, CopyConstructorCountsBothSides) {
  List Src = RT.newArrayList(Site);
  Src.add(Value::ofInt(1));
  List Copy = RT.newArrayListCopy(Site, Src);
  EXPECT_EQ(countOf(Copy, OpKind::CopiedFrom), 1u);
  EXPECT_EQ(countOf(Src, OpKind::CopiedInto), 1u);
  // CopiedFrom is a birth annotation: the copy's allOps stays clean
  // (checked before size(), which is itself a counted operation).
  EXPECT_EQ(usageOf(Copy).allOps(), 0u);
  EXPECT_EQ(Copy.size(), 1u);
}

TEST_F(HandlesTest, MapOpsAreCounted) {
  Map M = RT.newHashMap(Site);
  M.put(Value::ofInt(1), Value::ofInt(2));
  (void)M.get(Value::ofInt(1));
  (void)M.containsKey(Value::ofInt(1));
  (void)M.containsValue(Value::ofInt(2));
  M.remove(Value::ofInt(1));
  EXPECT_EQ(countOf(M, OpKind::Put), 1u);
  EXPECT_EQ(countOf(M, OpKind::Get), 1u);
  EXPECT_EQ(countOf(M, OpKind::ContainsKey), 1u);
  EXPECT_EQ(countOf(M, OpKind::ContainsValue), 1u);
  EXPECT_EQ(countOf(M, OpKind::RemoveKey), 1u);
}

TEST_F(HandlesTest, IteratorsCountAndDistinguishEmpty) {
  List L = RT.newArrayList(Site);
  { ValueIter It = L.iterate(); } // empty iteration
  L.add(Value::ofInt(1));
  { ValueIter It = L.iterate(); }
  EXPECT_EQ(countOf(L, OpKind::IterateEmpty), 1u);
  EXPECT_EQ(countOf(L, OpKind::Iterate), 1u);
}

TEST_F(HandlesTest, IteratorAllocatesAHeapObject) {
  // §5.4: iterator objects are real allocations, an empty iteration's
  // too.
  List L = RT.newArrayList(Site);
  uint64_t Before = RT.heap().totalAllocatedObjects();
  ValueIter It = L.iterate();
  EXPECT_EQ(RT.heap().totalAllocatedObjects(), Before + 1);
}

TEST_F(HandlesTest, UnprofiledAllocationsCountNothing) {
  RuntimeConfig Config;
  Config.Profiler.Enabled = false;
  CollectionRuntime Bare(Config);
  List L = Bare.newArrayList(Bare.site("t:1"));
  L.add(Value::ofInt(1));
  EXPECT_EQ(L.context(), nullptr);
  EXPECT_EQ(
      Bare.heap().getAs<CollectionObject>(L.wrapperRef()).Usage.allOps(),
      0u);
}

TEST_F(HandlesTest, HandleCopiesAliasOneCollection) {
  List A = RT.newArrayList(Site);
  List B = A;
  B.add(Value::ofInt(7));
  EXPECT_EQ(A.size(), 1u);
  EXPECT_TRUE(A.sameAs(B));
}

TEST_F(HandlesTest, CollectionsKeepElementsAliveAcrossGc) {
  List L = RT.newArrayList(Site);
  L.add(RT.allocData(2));
  const GcCycleRecord &Rec = RT.heap().collect(true);
  // wrapper + impl + array + data object all live.
  EXPECT_EQ(Rec.LiveObjects, 4u);
}

TEST_F(HandlesTest, DeadCollectionsFoldIntoTheirContext) {
  ContextInfo *Ctx;
  {
    List L = RT.newArrayList(Site);
    L.add(Value::ofInt(1));
    Ctx = L.context();
    ASSERT_NE(Ctx, nullptr);
  }
  RT.heap().collect(true);
  EXPECT_EQ(Ctx->foldedInstances(), 1u);
  EXPECT_DOUBLE_EQ(Ctx->opStat(OpKind::Add).mean(), 1.0);
  EXPECT_DOUBLE_EQ(Ctx->maxSizeStat().mean(), 1.0);
}

TEST_F(HandlesTest, HarvestFoldsLiveCollectionsOnce) {
  List L = RT.newArrayList(Site);
  L.add(Value::ofInt(1));
  ContextInfo *Ctx = L.context();
  RT.harvestLiveStatistics();
  EXPECT_EQ(Ctx->foldedInstances(), 1u);
  RT.harvestLiveStatistics(); // idempotent
  EXPECT_EQ(Ctx->foldedInstances(), 1u);
}

//===----------------------------------------------------------------------===//
// Per-operation pins
//===----------------------------------------------------------------------===//

/// Allocates as requested and never migrates: installing it makes every
/// mutating operation advance its wrapper's ReviseTick.
struct NeverMigrate : OnlineSelector {
  ImplKind chooseImpl(const ContextInfo *, AdtKind, ImplKind Requested,
                      uint32_t &) override {
    return Requested;
  }
};

/// One handle operation on a target built with SizeBefore elements, and
/// what it must leave behind. Source is a second two-element collection of
/// the same ADT, disjoint from the target (addAll / putAll copy it).
template <typename HandleT> struct OpCase {
  const char *Name;
  OpKind Op;
  uint32_t SizeBefore;
  uint32_t SizeAfter;
  /// Reaches noteSize (records CurrentSize / MaxSize).
  bool NotesSize;
  /// Reaches maybeRevise (advances ReviseTick).
  bool Revises;
  std::function<void(HandleT &Target, HandleT &Source)> Run;
};

struct HandlePinTest : HandlesTest {
  /// Written into CurrentSize before the operation: it survives only if
  /// the operation does not record the size.
  static constexpr uint32_t Stale = 1000;

  NeverMigrate Selector;

  HandlePinTest() { RT.setOnlineSelector(&Selector); }

  CollectionObject &wrapperOf(const CollectionHandleBase &H) {
    return RT.heap().getAs<CollectionObject>(H.wrapperRef());
  }

  List makeList(uint32_t N) {
    List L = RT.newArrayList(Site);
    for (uint32_t I = 1; I <= N; ++I)
      L.add(Value::ofInt(10 * I));
    return L;
  }

  Set makeSet(uint32_t N) {
    Set S = RT.newHashSet(Site);
    for (uint32_t I = 1; I <= N; ++I)
      S.add(Value::ofInt(10 * I));
    return S;
  }

  Map makeMap(uint32_t N) {
    Map M = RT.newHashMap(Site);
    for (uint32_t I = 1; I <= N; ++I)
      M.put(Value::ofInt(10 * I), Value::ofInt(100 * I));
    return M;
  }

  /// Runs \p C on a fresh target built by \p Make and checks its pins:
  /// exactly its counter rose by one (plus the source's CopiedInto for a
  /// copy), the recorded sizes, the real size, and the revision tick.
  template <typename HandleT, typename MakeT>
  void checkPins(const OpCase<HandleT> &C, MakeT Make) {
    SCOPED_TRACE(C.Name);
    HandleT Target = Make(C.SizeBefore);
    HandleT Source = Make(0);
    // Source elements are negative, so they never collide with the
    // target's.
    for (int I = 1; I <= 2; ++I)
      addSourceElement(Source, Value::ofInt(-I));
    CollectionObject &W = wrapperOf(Target);
    CollectionObject &SrcW = wrapperOf(Source);
    W.Usage.CurrentSize = Stale;
    auto Counts = W.Usage.Counts;
    auto SourceCounts = SrcW.Usage.Counts;
    uint32_t Tick = W.ReviseTick;
    uint32_t SourceTick = SrcW.ReviseTick;

    C.Run(Target, Source);

    ++Counts[opIndex(C.Op)];
    if (C.Op == OpKind::AddAll || C.Op == OpKind::AddAllAtIndex)
      ++SourceCounts[opIndex(OpKind::CopiedInto)];
    EXPECT_EQ(W.Usage.Counts, Counts);
    EXPECT_EQ(SrcW.Usage.Counts, SourceCounts);
    EXPECT_EQ(W.Usage.CurrentSize, C.NotesSize ? C.SizeAfter : Stale);
    EXPECT_EQ(W.Usage.MaxSize, C.NotesSize
                                   ? std::max(C.SizeBefore, C.SizeAfter)
                                   : C.SizeBefore);
    EXPECT_EQ(RT.heap().getAs<CollectionImplBase>(W.Impl).size(),
              C.SizeAfter);
    EXPECT_EQ(W.ReviseTick, Tick + (C.Revises ? 1u : 0u));
    EXPECT_EQ(SrcW.ReviseTick, SourceTick);
  }

  static void addSourceElement(List &L, Value V) { L.add(V); }
  static void addSourceElement(Set &S, Value V) { S.add(V); }
  static void addSourceElement(Map &M, Value V) { M.put(V, V); }
};

/// Number of elements an iterator yields.
template <typename IterT> uint32_t drain(IterT It) {
  uint32_t N = 0;
  Value K, V;
  if constexpr (std::is_same_v<IterT, EntryIter>) {
    while (It.next(K, V))
      ++N;
  } else {
    while (It.next(V))
      ++N;
  }
  return N;
}

TEST_F(HandlePinTest, EveryListOperation) {
  Value X = Value::ofInt(99);
  std::vector<OpCase<List>> Cases = {
      {"add", OpKind::Add, 3, 4, true, true,
       [&](List &T, List &) { T.add(X); }},
      {"add(index)", OpKind::AddAtIndex, 3, 4, true, true,
       [&](List &T, List &) { T.add(1, X); }},
      {"get", OpKind::GetAtIndex, 3, 3, false, false,
       [](List &T, List &) { EXPECT_EQ(T.get(1).asInt(), 20); }},
      {"set", OpKind::Set, 3, 3, false, true,
       [&](List &T, List &) { EXPECT_EQ(T.set(1, X).asInt(), 20); }},
      {"removeAt", OpKind::RemoveAtIndex, 3, 2, true, true,
       [](List &T, List &) { EXPECT_EQ(T.removeAt(1).asInt(), 20); }},
      {"removeFirst", OpKind::RemoveFirst, 3, 2, true, true,
       [](List &T, List &) { EXPECT_EQ(T.removeFirst().asInt(), 10); }},
      {"remove", OpKind::RemoveObject, 3, 2, true, true,
       [](List &T, List &) { EXPECT_TRUE(T.remove(Value::ofInt(30))); }},
      {"contains", OpKind::Contains, 3, 3, false, false,
       [](List &T, List &) { EXPECT_TRUE(T.contains(Value::ofInt(30))); }},
      {"addAll", OpKind::AddAll, 3, 5, true, true,
       [](List &T, List &S) { T.addAll(S); }},
      {"addAll(index)", OpKind::AddAllAtIndex, 3, 5, true, true,
       [](List &T, List &S) { T.addAll(1, S); }},
      {"size", OpKind::Size, 3, 3, false, false,
       [](List &T, List &) { EXPECT_EQ(T.size(), 3u); }},
      {"isEmpty", OpKind::IsEmpty, 3, 3, false, false,
       [](List &T, List &) { EXPECT_FALSE(T.isEmpty()); }},
      {"clear", OpKind::Clear, 3, 0, true, true,
       [](List &T, List &) { T.clear(); }},
      {"iterate", OpKind::Iterate, 3, 3, false, false,
       [](List &T, List &) { EXPECT_EQ(drain(T.iterate()), 3u); }},
      {"iterate (empty)", OpKind::IterateEmpty, 0, 0, false, false,
       [](List &T, List &) { EXPECT_EQ(drain(T.iterate()), 0u); }},
  };
  for (const OpCase<List> &C : Cases)
    checkPins(C, [&](uint32_t N) { return makeList(N); });
}

TEST_F(HandlePinTest, EverySetOperation) {
  std::vector<OpCase<Set>> Cases = {
      {"add", OpKind::Add, 3, 4, true, true,
       [](Set &T, Set &) { EXPECT_TRUE(T.add(Value::ofInt(99))); }},
      {"add (duplicate)", OpKind::Add, 3, 3, true, true,
       [](Set &T, Set &) { EXPECT_FALSE(T.add(Value::ofInt(20))); }},
      {"remove", OpKind::RemoveObject, 3, 2, true, true,
       [](Set &T, Set &) { EXPECT_TRUE(T.remove(Value::ofInt(20))); }},
      {"contains", OpKind::Contains, 3, 3, false, false,
       [](Set &T, Set &) { EXPECT_TRUE(T.contains(Value::ofInt(20))); }},
      {"addAll", OpKind::AddAll, 3, 5, true, true,
       [](Set &T, Set &S) { T.addAll(S); }},
      {"size", OpKind::Size, 3, 3, false, false,
       [](Set &T, Set &) { EXPECT_EQ(T.size(), 3u); }},
      {"isEmpty", OpKind::IsEmpty, 3, 3, false, false,
       [](Set &T, Set &) { EXPECT_FALSE(T.isEmpty()); }},
      {"clear", OpKind::Clear, 3, 0, true, true,
       [](Set &T, Set &) { T.clear(); }},
      {"iterate", OpKind::Iterate, 3, 3, false, false,
       [](Set &T, Set &) { EXPECT_EQ(drain(T.iterate()), 3u); }},
      {"iterate (empty)", OpKind::IterateEmpty, 0, 0, false, false,
       [](Set &T, Set &) { EXPECT_EQ(drain(T.iterate()), 0u); }},
  };
  for (const OpCase<Set> &C : Cases)
    checkPins(C, [&](uint32_t N) { return makeSet(N); });
}

TEST_F(HandlePinTest, EveryMapOperation) {
  Value K = Value::ofInt(20);
  std::vector<OpCase<Map>> Cases = {
      {"put", OpKind::Put, 3, 4, true, true,
       [](Map &T, Map &) {
         EXPECT_TRUE(T.put(Value::ofInt(99), Value::ofInt(1)));
       }},
      {"put (replace)", OpKind::Put, 3, 3, true, true,
       [&](Map &T, Map &) { EXPECT_FALSE(T.put(K, Value::ofInt(1))); }},
      {"get", OpKind::Get, 3, 3, false, false,
       [&](Map &T, Map &) { EXPECT_EQ(T.get(K).asInt(), 200); }},
      {"containsKey", OpKind::ContainsKey, 3, 3, false, false,
       [&](Map &T, Map &) { EXPECT_TRUE(T.containsKey(K)); }},
      {"containsValue", OpKind::ContainsValue, 3, 3, false, false,
       [](Map &T, Map &) {
         EXPECT_TRUE(T.containsValue(Value::ofInt(300)));
       }},
      {"remove", OpKind::RemoveKey, 3, 2, true, true,
       [&](Map &T, Map &) { EXPECT_TRUE(T.remove(K)); }},
      {"putAll", OpKind::AddAll, 3, 5, true, true,
       [](Map &T, Map &S) { T.putAll(S); }},
      {"size", OpKind::Size, 3, 3, false, false,
       [](Map &T, Map &) { EXPECT_EQ(T.size(), 3u); }},
      {"isEmpty", OpKind::IsEmpty, 3, 3, false, false,
       [](Map &T, Map &) { EXPECT_FALSE(T.isEmpty()); }},
      {"clear", OpKind::Clear, 3, 0, true, true,
       [](Map &T, Map &) { T.clear(); }},
      {"iterate", OpKind::Iterate, 3, 3, false, false,
       [](Map &T, Map &) { EXPECT_EQ(drain(T.iterate()), 3u); }},
      {"iterate (empty)", OpKind::IterateEmpty, 0, 0, false, false,
       [](Map &T, Map &) { EXPECT_EQ(drain(T.iterate()), 0u); }},
  };
  for (const OpCase<Map> &C : Cases)
    checkPins(C, [&](uint32_t N) { return makeMap(N); });
}

} // namespace
