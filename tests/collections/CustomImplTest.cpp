//===--- CustomImplTest.cpp - User-supplied implementation tests ----------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the extensibility path the paper claims (§4.2/§4.3.2): a custom
/// implementation registered by the user is allocated through the factory,
/// profiled per context, accounted by the collection-aware GC through its
/// own sizes(), matched by ADT rules, and redirected by the plan.
///
//===----------------------------------------------------------------------===//

#include "collections/CollectionRuntime.h"
#include "collections/Handles.h"
#include "rules/RuleEngine.h"

#include <gtest/gtest.h>

using namespace chameleon;

namespace {

/// Minimal custom list: a fixed-growth array with a deliberately odd
/// growth factor, so it is visibly not the built-in ArrayList.
class ChunkListImpl : public SeqImpl {
public:
  ChunkListImpl(TypeId Type, uint64_t Bytes, CollectionRuntime &RT,
                uint32_t Chunk)
      : SeqImpl(Type, Bytes, RT), Chunk(Chunk ? Chunk : 7) {}

  uint32_t size() const override { return Count; }

  void clear() override {
    Count = 0;
    bumpMod();
  }

  CollectionSizes sizes() const override {
    const MemoryModel &M = RT.heap().model();
    CollectionSizes S;
    S.Live = shallowBytes()
             + (Backing.isNull() ? 0 : M.arrayBytes(Capacity));
    S.Used =
        S.Live - static_cast<uint64_t>(Capacity - Count) * M.PointerBytes;
    S.Core = Count == 0 ? 0 : M.arrayBytes(Count);
    return S;
  }

  bool add(Value V) override {
    if (Count == Capacity) {
      ObjectRef Fresh = RT.allocValueArray(Capacity + Chunk);
      ValueArray &New = RT.heap().getAs<ValueArray>(Fresh);
      for (uint32_t I = 0; I < Count; ++I)
        New.set(I, RT.heap().getAs<ValueArray>(Backing).get(I));
      Backing = Fresh;
      Capacity += Chunk;
    }
    RT.heap().getAs<ValueArray>(Backing).set(Count++, V);
    bumpMod();
    return true;
  }

  Value get(uint32_t Index) const override {
    assert(Index < Count);
    return RT.heap().getAs<ValueArray>(Backing).get(Index);
  }

  bool removeValue(Value V) override {
    for (uint32_t I = 0; I < Count; ++I) {
      if (get(I) == V) {
        ValueArray &Arr = RT.heap().getAs<ValueArray>(Backing);
        for (uint32_t J = I; J + 1 < Count; ++J)
          Arr.set(J, Arr.get(J + 1));
        --Count;
        bumpMod();
        return true;
      }
    }
    return false;
  }

  bool contains(Value V) const override {
    for (uint32_t I = 0; I < Count; ++I)
      if (get(I) == V)
        return true;
    return false;
  }

  bool iterNext(IterState &State, Value &Out) const override {
    if (State.A >= Count)
      return false;
    Out = get(static_cast<uint32_t>(State.A++));
    return true;
  }

  void trace(GcTracer &Tracer) const override { Tracer.visit(Backing); }

private:
  ObjectRef Backing;
  uint32_t Count = 0;
  uint32_t Capacity = 0;
  uint32_t Chunk;
};

struct CustomImplTest : ::testing::Test {
  CollectionRuntime RT;
  CustomImplId ChunkId = registerChunkList(RT);
  FrameId Site = RT.site("Custom.make:5");

  static CustomImplId registerChunkList(CollectionRuntime &RT) {
    CustomImpl Impl;
    Impl.Name = "ChunkList";
    Impl.Adt = AdtKind::List;
    Impl.Make = [](CollectionRuntime &R, TypeId Type, uint32_t Capacity) {
      return std::make_unique<ChunkListImpl>(
          Type, R.heap().model().objectBytes(1, 8), R, Capacity);
    };
    return RT.registerCustomImpl(Impl);
  }
};

TEST_F(CustomImplTest, BehavesAsAList) {
  List L = RT.newCustomList(ChunkId, Site);
  EXPECT_TRUE(L.isCustomBacked());
  EXPECT_EQ(L.backingName(), "ChunkList");
  for (int I = 0; I < 20; ++I)
    L.add(Value::ofInt(I));
  EXPECT_EQ(L.size(), 20u);
  EXPECT_EQ(L.get(13).asInt(), 13);
  EXPECT_TRUE(L.contains(Value::ofInt(0)));
  EXPECT_TRUE(L.remove(Value::ofInt(0)));
  EXPECT_EQ(L.get(0).asInt(), 1);
  ValueIter It = L.iterate();
  Value V;
  int Seen = 0;
  while (It.next(V))
    ++Seen;
  EXPECT_EQ(Seen, 19);
}

TEST_F(CustomImplTest, ProfiledLikeABuiltin) {
  {
    List L = RT.newCustomList(ChunkId, Site);
    L.add(Value::ofInt(1));
    ASSERT_NE(L.context(), nullptr);
    EXPECT_EQ(L.context()->typeName(), "ChunkList");
    EXPECT_EQ(L.context()->label(),
              "ChunkList:Custom.make:5");
  }
  RT.heap().collect(true);
  const ContextInfo *Info = RT.profiler().contexts()[0];
  EXPECT_EQ(Info->foldedInstances(), 1u);
  EXPECT_DOUBLE_EQ(Info->opStat(OpKind::Add).mean(), 1.0);
  EXPECT_EQ(RT.allocationsWithCustomImpl(ChunkId), 1u);
}

TEST_F(CustomImplTest, GcAccountsCustomSizesViaSemanticMaps) {
  List L = RT.newCustomList(ChunkId, Site);
  L.add(Value::ofInt(1));
  const GcCycleRecord &Rec = RT.heap().collect(true);
  EXPECT_EQ(Rec.CollectionObjects, 1u);
  // wrapper(48) + impl(8+4+8 -> 24) + 7-slot chunk array (12+28 -> 40).
  EXPECT_EQ(Rec.CollectionLiveBytes, 48u + 24u + 40u);
  EXPECT_EQ(Rec.LiveBytes, Rec.CollectionLiveBytes);
}

TEST_F(CustomImplTest, AdtRulesMatchRegisteredSourceTypes) {
  for (int I = 0; I < 10; ++I) {
    List L = RT.newCustomList(ChunkId, Site);
    L.add(Value::ofInt(I));
    (void)L.get(0);
  }
  RT.heap().collect(true);
  RT.harvestLiveStatistics();

  rules::RuleEngine Engine;
  Engine.addRules("[custom-singletons] List : maxSize == 1 "
                  "-> SingletonList");
  std::vector<rules::Suggestion> Without =
      Engine.evaluate(RT.profiler());
  EXPECT_TRUE(Without.empty())
      << "ADT match requires registerSourceType";

  Engine.registerSourceType("ChunkList", AdtKind::List);
  std::vector<rules::Suggestion> With = Engine.evaluate(RT.profiler());
  ASSERT_EQ(With.size(), 1u);
  EXPECT_EQ(With[0].NewImpl, ImplKind::SingletonList);
}

TEST_F(CustomImplTest, PlanRedirectsCustomToBuiltin) {
  List Probe = RT.newCustomList(ChunkId, Site);
  PlanDecision Decision;
  Decision.Impl = ImplKind::SingletonList;
  RT.plan().add(Probe.context()->label(), Decision);

  List Redirected = RT.newCustomList(ChunkId, Site);
  EXPECT_FALSE(Redirected.isCustomBacked());
  EXPECT_EQ(Redirected.backing(), ImplKind::SingletonList);
  EXPECT_EQ(Redirected.backingName(), "SingletonList");
}

} // namespace
