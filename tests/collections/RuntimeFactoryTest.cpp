//===--- RuntimeFactoryTest.cpp - Factory selection unit tests ------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the allocation factory: source-level defaults, replacement-plan
/// application (the automated fix step of §5.2), online selection
/// (§3.3.2), and handle re-adoption.
///
//===----------------------------------------------------------------------===//

#include "collections/CollectionRuntime.h"
#include "collections/Handles.h"

#include <gtest/gtest.h>

using namespace chameleon;

namespace {

struct RuntimeFactoryTest : ::testing::Test {
  CollectionRuntime RT;
  FrameId Site = RT.site("Factory.make:1");
};

TEST_F(RuntimeFactoryTest, SourceLevelDefaults) {
  EXPECT_EQ(RT.newArrayList(Site).backing(), ImplKind::ArrayList);
  EXPECT_EQ(RT.newLinkedList(Site).backing(), ImplKind::LinkedList);
  EXPECT_EQ(RT.newHashSet(Site).backing(), ImplKind::HashSet);
  EXPECT_EQ(RT.newHashMap(Site).backing(), ImplKind::HashMap);
  EXPECT_EQ(RT.allocationsWithImpl(ImplKind::ArrayList), 1u);
  EXPECT_EQ(RT.allocationsWithImpl(ImplKind::HashMap), 1u);
}

TEST_F(RuntimeFactoryTest, ExplicitImplRequests) {
  EXPECT_EQ(RT.newListOf(ImplKind::SingletonList, Site).backing(),
            ImplKind::SingletonList);
  EXPECT_EQ(RT.newSetOf(ImplKind::ArraySet, Site).backing(),
            ImplKind::ArraySet);
  EXPECT_EQ(RT.newMapOf(ImplKind::SizeAdaptingMap, Site).backing(),
            ImplKind::SizeAdaptingMap);
}

TEST_F(RuntimeFactoryTest, PlanRedirectsMatchingContexts) {
  // Discover the context label the factory will see.
  Map Probe = RT.newHashMap(Site);
  ASSERT_NE(Probe.context(), nullptr);
  std::string Label = Probe.context()->label();

  PlanDecision Decision;
  Decision.Impl = ImplKind::ArrayMap;
  Decision.Capacity = 3;
  RT.plan().add(Label, Decision);

  Map Redirected = RT.newHashMap(Site);
  EXPECT_EQ(Redirected.backing(), ImplKind::ArrayMap);
  EXPECT_EQ(RT.heap()
                .getAs<CollectionObject>(Redirected.wrapperRef())
                .Usage.InitialCapacity,
            3u);
  // The wrapper's source-level identity is unchanged — the program still
  // "sees" a HashMap (the §4.1 indirection argument).
  EXPECT_EQ(Redirected.context()->typeName(), "HashMap");
}

TEST_F(RuntimeFactoryTest, PlanDoesNotTouchOtherContexts) {
  Map Probe = RT.newHashMap(Site);
  PlanDecision Decision;
  Decision.Impl = ImplKind::ArrayMap;
  RT.plan().add(Probe.context()->label(), Decision);

  FrameId Other = RT.site("Other.make:2");
  EXPECT_EQ(RT.newHashMap(Other).backing(), ImplKind::HashMap);
}

TEST_F(RuntimeFactoryTest, PlanCapacityOnlyDecision) {
  List Probe = RT.newArrayList(Site);
  PlanDecision Decision;
  Decision.Capacity = 2;
  RT.plan().add(Probe.context()->label(), Decision);

  List Tuned = RT.newArrayList(Site);
  EXPECT_EQ(Tuned.backing(), ImplKind::ArrayList);
  EXPECT_EQ(RT.heap()
                .getAs<CollectionObject>(Tuned.wrapperRef())
                .Usage.InitialCapacity,
            2u);
}

TEST_F(RuntimeFactoryTest, PlanEditsMidRunAreObserved) {
  // The factory reads the plan on every allocation: edits between
  // allocations take effect at the next one.
  Map Probe = RT.newHashMap(Site);
  std::string Label = Probe.context()->label();

  EXPECT_EQ(RT.newHashMap(Site).backing(), ImplKind::HashMap);

  PlanDecision Decision;
  Decision.Impl = ImplKind::ArrayMap;
  RT.plan().add(Label, Decision);
  EXPECT_EQ(RT.newHashMap(Site).backing(), ImplKind::ArrayMap);

  RT.plan().clear();
  EXPECT_EQ(RT.newHashMap(Site).backing(), ImplKind::HashMap);

  Decision.Impl = ImplKind::LazyMap;
  RT.plan().add(Label, Decision);
  EXPECT_EQ(RT.newHashMap(Site).backing(), ImplKind::LazyMap);
}

TEST_F(RuntimeFactoryTest, AssignedPlanReplacesEveryDecision) {
  // Assigning a whole plan must drop the old plan's decisions, even when
  // the new plan was edited exactly as often as the old one.
  FrameId A = RT.site("Factory.a:1");
  FrameId B = RT.site("Factory.b:2");
  std::string LabelA = RT.newHashMap(A).context()->label();
  std::string LabelB = RT.newHashMap(B).context()->label();

  ReplacementPlan RedirectA;
  RedirectA.add(LabelA, PlanDecision{ImplKind::ArrayMap, std::nullopt});
  RT.plan() = RedirectA;
  EXPECT_EQ(RT.newHashMap(A).backing(), ImplKind::ArrayMap);

  ReplacementPlan RedirectB;
  RedirectB.add(LabelB, PlanDecision{ImplKind::LazyMap, std::nullopt});
  RT.plan() = RedirectB;
  EXPECT_EQ(RT.newHashMap(A).backing(), ImplKind::HashMap);
  EXPECT_EQ(RT.newHashMap(B).backing(), ImplKind::LazyMap);
}

TEST_F(RuntimeFactoryTest, PlanAdaptsSetSuggestionsForLists) {
  List Probe = RT.newArrayList(Site);
  PlanDecision Decision;
  Decision.Impl = ImplKind::LinkedHashSet; // the paper's Table-2 target
  RT.plan().add(Probe.context()->label(), Decision);

  List Adapted = RT.newArrayList(Site);
  EXPECT_EQ(Adapted.backing(), ImplKind::HashedList);
}

namespace {
/// Online selector that redirects every HashMap request to ArrayMap.
struct ForceArrayMap : OnlineSelector {
  ImplKind chooseImpl(const ContextInfo *, AdtKind Adt, ImplKind Requested,
                      uint32_t &Capacity) override {
    Capacity = 2;
    return (Adt == AdtKind::Map && Requested == ImplKind::HashMap)
               ? ImplKind::ArrayMap
               : Requested;
  }
};
} // namespace

TEST_F(RuntimeFactoryTest, OnlineSelectorOverridesRequests) {
  ForceArrayMap Selector;
  RT.setOnlineSelector(&Selector);
  Map M = RT.newHashMap(Site);
  EXPECT_EQ(M.backing(), ImplKind::ArrayMap);
  List L = RT.newArrayList(Site);
  EXPECT_EQ(L.backing(), ImplKind::ArrayList);
  RT.setOnlineSelector(nullptr);
  EXPECT_EQ(RT.newHashMap(Site).backing(), ImplKind::HashMap);
}

TEST_F(RuntimeFactoryTest, AdoptRebuildsHandles) {
  Map M = RT.newHashMap(Site);
  M.put(Value::ofInt(1), Value::ofInt(2));
  Map Again = RT.adoptMap(M.wrapperRef());
  EXPECT_TRUE(Again.sameAs(M));
  EXPECT_EQ(Again.get(Value::ofInt(1)).asInt(), 2);
}

TEST_F(RuntimeFactoryTest, CollectionsStoredInPayloadObjectsSurvive) {
  // A wrapper reachable only through a data object field must survive GC;
  // adopt* then rebuilds a typed handle for it.
  ObjectRef WrapperRef;
  Value HolderVal = RT.allocData(1);
  Handle Holder(RT.heap(), HolderVal.asRef());
  {
    List L = RT.newArrayList(Site);
    L.add(Value::ofInt(9));
    WrapperRef = L.wrapperRef();
    RT.heap()
        .getAs<ValueArray>(HolderVal.asRef())
        .set(0, Value::ofRef(WrapperRef));
  }
  RT.heap().collect(true);
  List Recovered = RT.adoptList(WrapperRef);
  EXPECT_EQ(Recovered.get(0).asInt(), 9);
}

TEST_F(RuntimeFactoryTest, ContextsRecordAllocationsPerSite) {
  FrameId A = RT.site("a:1");
  FrameId B = RT.site("b:2");
  for (int I = 0; I < 3; ++I)
    (void)RT.newArrayList(A);
  (void)RT.newArrayList(B);
  ASSERT_EQ(RT.profiler().contexts().size(), 2u);
  EXPECT_EQ(RT.profiler().contexts()[0]->allocations(), 3u);
  EXPECT_EQ(RT.profiler().contexts()[1]->allocations(), 1u);
}

TEST_F(RuntimeFactoryTest, RootedValueKeepsDataAlive) {
  RootedValue Kept(RT, RT.allocData(0));
  uint64_t Live = RT.heap().collect(true).LiveObjects;
  EXPECT_EQ(Live, 1u);
  EXPECT_TRUE(Kept.get().isRef());
}

} // namespace
