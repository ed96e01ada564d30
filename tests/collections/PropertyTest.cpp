//===--- PropertyTest.cpp - Behavioural equivalence property tests --------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's implementation requirement (§1): every interchangeable
/// implementation must preserve the ADT's logical behaviour. These
/// parameterized property tests drive each implementation with randomized
/// operation sequences and check it against an obviously-correct reference
/// model, with forced GC cycles interleaved to flush out rooting bugs.
///
//===----------------------------------------------------------------------===//

#include "collections/CollectionRuntime.h"
#include "collections/Handles.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

using namespace chameleon;

namespace {

std::string kindName(const ::testing::TestParamInfo<ImplKind> &Info) {
  return implKindName(Info.param);
}

//===----------------------------------------------------------------------===//
// Lists vs std::vector
//===----------------------------------------------------------------------===//

class ListProperty : public ::testing::TestWithParam<ImplKind> {};

TEST_P(ListProperty, MatchesVectorModelUnderRandomOps) {
  CollectionRuntime RT;
  FrameId Site = RT.site("prop:1");
  List L = RT.newListOf(GetParam(), Site);
  std::vector<int64_t> Model;
  SplitMix64 Rng(0xC0FFEE ^ static_cast<uint64_t>(GetParam()));

  for (int Step = 0; Step < 3000; ++Step) {
    switch (Rng.nextBelow(10)) {
    case 0:
    case 1:
    case 2: { // append
      int64_t X = static_cast<int64_t>(Rng.nextBelow(50));
      L.add(Value::ofInt(X));
      Model.push_back(X);
      break;
    }
    case 3: { // positional insert
      int64_t X = static_cast<int64_t>(Rng.nextBelow(50));
      uint32_t At = static_cast<uint32_t>(
          Rng.nextBelow(Model.size() + 1));
      L.add(At, Value::ofInt(X));
      Model.insert(Model.begin() + At, X);
      break;
    }
    case 4: { // positional read
      if (Model.empty())
        break;
      uint32_t At = static_cast<uint32_t>(Rng.nextBelow(Model.size()));
      ASSERT_EQ(L.get(At).asInt(), Model[At]);
      break;
    }
    case 5: { // positional update
      if (Model.empty())
        break;
      uint32_t At = static_cast<uint32_t>(Rng.nextBelow(Model.size()));
      int64_t X = static_cast<int64_t>(Rng.nextBelow(50));
      ASSERT_EQ(L.set(At, Value::ofInt(X)).asInt(), Model[At]);
      Model[At] = X;
      break;
    }
    case 6: { // positional removal
      if (Model.empty())
        break;
      uint32_t At = static_cast<uint32_t>(Rng.nextBelow(Model.size()));
      ASSERT_EQ(L.removeAt(At).asInt(), Model[At]);
      Model.erase(Model.begin() + At);
      break;
    }
    case 7: { // removal by value
      int64_t X = static_cast<int64_t>(Rng.nextBelow(50));
      bool Expected = false;
      for (size_t I = 0; I < Model.size(); ++I) {
        if (Model[I] == X) {
          Model.erase(Model.begin() + static_cast<long>(I));
          Expected = true;
          break;
        }
      }
      ASSERT_EQ(L.remove(Value::ofInt(X)), Expected);
      break;
    }
    case 8: { // membership
      int64_t X = static_cast<int64_t>(Rng.nextBelow(50));
      bool Expected = false;
      for (int64_t Y : Model)
        Expected |= Y == X;
      ASSERT_EQ(L.contains(Value::ofInt(X)), Expected);
      break;
    }
    case 9: { // occasional GC + full iteration check
      if (Rng.nextBool(0.2))
        RT.heap().collect(/*Forced=*/true);
      ASSERT_EQ(L.size(), Model.size());
      ValueIter It = L.iterate();
      Value V;
      size_t I = 0;
      while (It.next(V))
        ASSERT_EQ(V.asInt(), Model[I++]);
      ASSERT_EQ(I, Model.size());
      break;
    }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllListImpls, ListProperty,
                         ::testing::Values(ImplKind::ArrayList,
                                           ImplKind::LinkedList,
                                           ImplKind::LazyArrayList,
                                           ImplKind::IntArrayList),
                         kindName);

//===----------------------------------------------------------------------===//
// Sets vs std::set
//===----------------------------------------------------------------------===//

class SetProperty : public ::testing::TestWithParam<ImplKind> {};

TEST_P(SetProperty, MatchesSetModelUnderRandomOps) {
  CollectionRuntime RT;
  FrameId Site = RT.site("prop:1");
  Set S = RT.newSetOf(GetParam(), Site);
  std::set<int64_t> Model;
  SplitMix64 Rng(0xBEEF ^ static_cast<uint64_t>(GetParam()));

  for (int Step = 0; Step < 4000; ++Step) {
    int64_t X = static_cast<int64_t>(Rng.nextBelow(64));
    switch (Rng.nextBelow(6)) {
    case 0:
    case 1:
    case 2:
      ASSERT_EQ(S.add(Value::ofInt(X)), Model.insert(X).second);
      break;
    case 3:
      ASSERT_EQ(S.remove(Value::ofInt(X)), Model.erase(X) == 1);
      break;
    case 4:
      ASSERT_EQ(S.contains(Value::ofInt(X)), Model.count(X) == 1);
      break;
    case 5: {
      if (Rng.nextBool(0.2))
        RT.heap().collect(true);
      ASSERT_EQ(S.size(), Model.size());
      ValueIter It = S.iterate();
      Value V;
      std::set<int64_t> Seen;
      while (It.next(V))
        ASSERT_TRUE(Seen.insert(V.asInt()).second)
            << "duplicate during iteration";
      ASSERT_EQ(Seen, Model);
      break;
    }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSetImpls, SetProperty,
                         ::testing::Values(ImplKind::HashSet,
                                           ImplKind::ArraySet,
                                           ImplKind::LazySet,
                                           ImplKind::LinkedHashSet,
                                           ImplKind::SizeAdaptingSet),
                         kindName);

//===----------------------------------------------------------------------===//
// Maps vs std::map
//===----------------------------------------------------------------------===//

class MapProperty : public ::testing::TestWithParam<ImplKind> {};

TEST_P(MapProperty, MatchesMapModelUnderRandomOps) {
  CollectionRuntime RT;
  FrameId Site = RT.site("prop:1");
  Map M = RT.newMapOf(GetParam(), Site);
  std::map<int64_t, int64_t> Model;
  SplitMix64 Rng(0xD00D ^ static_cast<uint64_t>(GetParam()));

  for (int Step = 0; Step < 4000; ++Step) {
    int64_t K = static_cast<int64_t>(Rng.nextBelow(64));
    int64_t V = static_cast<int64_t>(Rng.nextBelow(1000));
    switch (Rng.nextBelow(7)) {
    case 0:
    case 1:
    case 2: {
      bool New = Model.find(K) == Model.end();
      ASSERT_EQ(M.put(Value::ofInt(K), Value::ofInt(V)), New);
      Model[K] = V;
      break;
    }
    case 3: {
      auto It = Model.find(K);
      Value Got = M.get(Value::ofInt(K));
      if (It == Model.end())
        ASSERT_TRUE(Got.isNull());
      else
        ASSERT_EQ(Got.asInt(), It->second);
      break;
    }
    case 4:
      ASSERT_EQ(M.remove(Value::ofInt(K)), Model.erase(K) == 1);
      break;
    case 5:
      ASSERT_EQ(M.containsKey(Value::ofInt(K)),
                Model.count(K) == 1);
      break;
    case 6: {
      if (Rng.nextBool(0.2))
        RT.heap().collect(true);
      ASSERT_EQ(M.size(), Model.size());
      EntryIter It = M.iterate();
      Value Key, Val;
      std::map<int64_t, int64_t> Seen;
      while (It.next(Key, Val))
        ASSERT_TRUE(
            Seen.emplace(Key.asInt(), Val.asInt()).second);
      ASSERT_EQ(Seen, Model);
      break;
    }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMapImpls, MapProperty,
                         ::testing::Values(ImplKind::HashMap,
                                           ImplKind::ArrayMap,
                                           ImplKind::LazyMap,
                                           ImplKind::SizeAdaptingMap),
                         kindName);

//===----------------------------------------------------------------------===//
// Heap-limit stress: collections stay correct under allocation pressure
//===----------------------------------------------------------------------===//

class PressureProperty : public ::testing::TestWithParam<ImplKind> {};

TEST_P(PressureProperty, MapSurvivesPressureCollections) {
  RuntimeConfig Config;
  Config.HeapLimitBytes = 64 * 1024;
  CollectionRuntime RT(Config);
  FrameId Site = RT.site("prop:1");
  FrameId TmpSite = RT.site("prop:tmp");
  Map M = RT.newMapOf(GetParam(), Site);
  SplitMix64 Rng(99);

  for (int I = 0; I < 400; ++I) {
    M.put(Value::ofInt(I % 50), Value::ofInt(I));
    // Garbage to force pressure collections mid-operation.
    List Tmp = RT.newListOf(ImplKind::ArrayList, TmpSite, 32);
    Tmp.add(Value::ofInt(I));
  }
  ASSERT_FALSE(RT.heap().outOfMemory());
  EXPECT_EQ(M.size(), 50u);
  for (int K = 0; K < 50; ++K)
    EXPECT_FALSE(M.get(Value::ofInt(K)).isNull());
}

INSTANTIATE_TEST_SUITE_P(AllMapImpls, PressureProperty,
                         ::testing::Values(ImplKind::HashMap,
                                           ImplKind::ArrayMap,
                                           ImplKind::LazyMap,
                                           ImplKind::SizeAdaptingMap),
                         kindName);

} // namespace
