//===--- DifferentialTest.cpp - Impls vs reference models ------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential testing of every registered collection implementation:
/// seeded random operation sequences are applied in lockstep to a handle
/// and to a C++ standard-library reference model (`std::vector`,
/// `std::set`, `std::unordered_map`), and every observable — return
/// values, sizes, membership, iteration contents — must agree at every
/// step. Sequences also run across *online replacement*: a rotating
/// selector (and the real OnlineAdaptor) swap the backing implementation
/// between allocations at one site, and behaviour must stay identical.
///
/// On a mismatch the failing implementation and seed are printed via
/// SCOPED_TRACE so the sequence can be replayed exactly.
///
//===----------------------------------------------------------------------===//

#include "collections/Handles.h"

#include "core/Chameleon.h"
#include "core/OnlineAdaptor.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>
#include <vector>

using namespace chameleon;

namespace {

constexpr uint64_t BaseSeed = 0xD1FFBA5E;
constexpr uint64_t Gamma = 0x9E3779B97F4A7C15ULL;
constexpr int CasesPerImpl = 4;

/// Values stay within a small range (collisions and duplicates on
/// purpose) and within int32 so IntArrayList's 4-byte slots hold them.
int64_t randomValue(SplitMix64 &Rng) {
  return static_cast<int64_t>(Rng.nextBelow(50));
}

std::string traceLabel(const char *What, uint64_t Seed) {
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "%s seed=0x%llx (replay with this seed)",
                What, static_cast<unsigned long long>(Seed));
  return Buf;
}

/// Collects a list's contents through its iterator.
std::vector<int64_t> iterateList(const List &L) {
  std::vector<int64_t> Out;
  ValueIter It = L.iterate();
  Value V;
  while (It.next(V))
    Out.push_back(V.asInt());
  return Out;
}

std::vector<int64_t> iterateSet(const Set &S) {
  std::vector<int64_t> Out;
  ValueIter It = S.iterate();
  Value V;
  while (It.next(V))
    Out.push_back(V.asInt());
  return Out;
}

std::vector<std::pair<int64_t, int64_t>> iterateMap(const Map &M) {
  std::vector<std::pair<int64_t, int64_t>> Out;
  EntryIter It = M.iterate();
  Value K, V;
  while (It.next(K, V))
    Out.emplace_back(K.asInt(), V.asInt());
  return Out;
}

//===----------------------------------------------------------------------===//
// List differential drivers
//===----------------------------------------------------------------------===//

/// Full positional op sequence against std::vector. \p Ordered is false
/// for HashedList, whose set-shaped backing has no positional updates and
/// deduplicates (the model then is an insertion-ordered unique vector).
void runListSequence(List L, uint64_t Seed, int Ops, bool Ordered) {
  SplitMix64 Rng(Seed);
  std::vector<int64_t> Model;
  for (int Op = 0; Op < Ops; ++Op) {
    uint64_t Roll = Rng.nextBelow(100);
    if (Roll < 30) {
      int64_t V = randomValue(Rng);
      L.add(Value::ofInt(V));
      if (Ordered)
        Model.push_back(V);
      else if (std::find(Model.begin(), Model.end(), V) == Model.end())
        Model.push_back(V);
    } else if (Roll < 40 && Ordered && !Model.empty()) {
      uint32_t At = static_cast<uint32_t>(Rng.nextBelow(Model.size() + 1));
      int64_t V = randomValue(Rng);
      L.add(At, Value::ofInt(V));
      Model.insert(Model.begin() + At, V);
    } else if (Roll < 55 && !Model.empty()) {
      uint32_t At = static_cast<uint32_t>(Rng.nextBelow(Model.size()));
      ASSERT_EQ(L.get(At).asInt(), Model[At]);
    } else if (Roll < 65 && Ordered && !Model.empty()) {
      uint32_t At = static_cast<uint32_t>(Rng.nextBelow(Model.size()));
      int64_t V = randomValue(Rng);
      ASSERT_EQ(L.set(At, Value::ofInt(V)).asInt(), Model[At]);
      Model[At] = V;
    } else if (Roll < 75 && !Model.empty()) {
      uint32_t At = static_cast<uint32_t>(Rng.nextBelow(Model.size()));
      ASSERT_EQ(L.removeAt(At).asInt(), Model[At]);
      Model.erase(Model.begin() + At);
    } else if (Roll < 80 && !Model.empty()) {
      ASSERT_EQ(L.removeFirst().asInt(), Model.front());
      Model.erase(Model.begin());
    } else if (Roll < 87) {
      int64_t V = randomValue(Rng);
      auto It = std::find(Model.begin(), Model.end(), V);
      ASSERT_EQ(L.remove(Value::ofInt(V)), It != Model.end());
      if (It != Model.end())
        Model.erase(It);
    } else if (Roll < 97) {
      int64_t V = randomValue(Rng);
      ASSERT_EQ(L.contains(Value::ofInt(V)),
                std::find(Model.begin(), Model.end(), V) != Model.end());
    } else {
      L.clear();
      Model.clear();
    }
    ASSERT_EQ(L.size(), Model.size());
    ASSERT_EQ(L.isEmpty(), Model.empty());
    if (Op % 16 == 15) {
      ASSERT_EQ(iterateList(L), Model);
    }
  }
  ASSERT_EQ(iterateList(L), Model);
}

/// Constrained sequence for SingletonList (capacity one).
void runSingletonListSequence(List L, uint64_t Seed, int Ops) {
  SplitMix64 Rng(Seed);
  std::vector<int64_t> Model;
  for (int Op = 0; Op < Ops; ++Op) {
    uint64_t Roll = Rng.nextBelow(100);
    if (Roll < 40 && Model.empty()) {
      int64_t V = randomValue(Rng);
      L.add(Value::ofInt(V));
      Model.push_back(V);
    } else if (Roll < 55 && !Model.empty()) {
      ASSERT_EQ(L.get(0).asInt(), Model[0]);
    } else if (Roll < 70 && !Model.empty()) {
      ASSERT_EQ(L.removeAt(0).asInt(), Model[0]);
      Model.clear();
    } else if (Roll < 85) {
      int64_t V = randomValue(Rng);
      ASSERT_EQ(L.contains(Value::ofInt(V)),
                !Model.empty() && Model[0] == V);
    } else {
      L.clear();
      Model.clear();
    }
    ASSERT_EQ(L.size(), Model.size());
  }
  ASSERT_EQ(iterateList(L), Model);
}

//===----------------------------------------------------------------------===//
// Set / Map differential drivers
//===----------------------------------------------------------------------===//

/// Set sequence against std::set; iteration is compared as sorted
/// contents (per-impl iteration order is not part of the Set contract).
void runSetSequence(Set S, uint64_t Seed, int Ops) {
  SplitMix64 Rng(Seed);
  std::set<int64_t> Model;
  for (int Op = 0; Op < Ops; ++Op) {
    uint64_t Roll = Rng.nextBelow(100);
    int64_t V = randomValue(Rng);
    if (Roll < 45) {
      ASSERT_EQ(S.add(Value::ofInt(V)), Model.insert(V).second);
    } else if (Roll < 65) {
      ASSERT_EQ(S.remove(Value::ofInt(V)), Model.erase(V) > 0);
    } else if (Roll < 95) {
      ASSERT_EQ(S.contains(Value::ofInt(V)), Model.count(V) > 0);
    } else {
      S.clear();
      Model.clear();
    }
    ASSERT_EQ(S.size(), Model.size());
    if (Op % 16 == 15) {
      std::vector<int64_t> Got = iterateSet(S);
      std::sort(Got.begin(), Got.end());
      ASSERT_EQ(Got, std::vector<int64_t>(Model.begin(), Model.end()));
    }
  }
}

/// Map sequence against std::unordered_map; iteration compared sorted.
void runMapSequence(Map M, uint64_t Seed, int Ops) {
  SplitMix64 Rng(Seed);
  std::unordered_map<int64_t, int64_t> Model;
  for (int Op = 0; Op < Ops; ++Op) {
    uint64_t Roll = Rng.nextBelow(100);
    int64_t K = randomValue(Rng);
    if (Roll < 40) {
      int64_t V = static_cast<int64_t>(Rng.nextBelow(1000));
      bool New = Model.find(K) == Model.end();
      ASSERT_EQ(M.put(Value::ofInt(K), Value::ofInt(V)), New);
      Model[K] = V;
    } else if (Roll < 65) {
      Value Got = M.get(Value::ofInt(K));
      auto It = Model.find(K);
      if (It == Model.end())
        ASSERT_TRUE(Got.isNull());
      else
        ASSERT_EQ(Got.asInt(), It->second);
    } else if (Roll < 80) {
      ASSERT_EQ(M.containsKey(Value::ofInt(K)), Model.count(K) > 0);
    } else if (Roll < 95) {
      ASSERT_EQ(M.remove(Value::ofInt(K)), Model.erase(K) > 0);
    } else {
      M.clear();
      Model.clear();
    }
    ASSERT_EQ(M.size(), Model.size());
    if (Op % 16 == 15) {
      auto Got = iterateMap(M);
      std::sort(Got.begin(), Got.end());
      std::vector<std::pair<int64_t, int64_t>> Want(Model.begin(),
                                                    Model.end());
      std::sort(Want.begin(), Want.end());
      ASSERT_EQ(Got, Want);
    }
  }
}

/// Constrained sequence for SingletonMap (one entry).
void runSingletonMapSequence(Map M, uint64_t Seed, int Ops) {
  SplitMix64 Rng(Seed);
  std::unordered_map<int64_t, int64_t> Model;
  for (int Op = 0; Op < Ops; ++Op) {
    uint64_t Roll = Rng.nextBelow(100);
    int64_t K = randomValue(Rng);
    if (Roll < 35 && (Model.empty() || Model.count(K))) {
      int64_t V = static_cast<int64_t>(Rng.nextBelow(1000));
      ASSERT_EQ(M.put(Value::ofInt(K), Value::ofInt(V)), !Model.count(K));
      Model[K] = V;
    } else if (Roll < 60) {
      Value Got = M.get(Value::ofInt(K));
      auto It = Model.find(K);
      ASSERT_EQ(Got.isNull(), It == Model.end());
      if (It != Model.end()) {
        ASSERT_EQ(Got.asInt(), It->second);
      }
    } else if (Roll < 80) {
      ASSERT_EQ(M.remove(Value::ofInt(K)), Model.erase(K) > 0);
    } else {
      ASSERT_EQ(M.containsKey(Value::ofInt(K)), Model.count(K) > 0);
    }
    ASSERT_EQ(M.size(), Model.size());
  }
}

//===----------------------------------------------------------------------===//
// Per-implementation sweeps
//===----------------------------------------------------------------------===//

TEST(Differential, ListImplsMatchVectorModel) {
  for (ImplKind Kind : {ImplKind::ArrayList, ImplKind::LazyArrayList,
                        ImplKind::LinkedList, ImplKind::IntArrayList}) {
    for (int Case = 0; Case < CasesPerImpl; ++Case) {
      uint64_t Seed = BaseSeed ^ (Gamma * (Case + 1));
      SCOPED_TRACE(traceLabel(implKindName(Kind), Seed));
      CollectionRuntime RT;
      runListSequence(RT.newListOf(Kind, RT.site("diff.list:1")), Seed,
                      300, /*Ordered=*/true);
    }
  }
}

TEST(Differential, HashedListMatchesDedupModel) {
  for (int Case = 0; Case < CasesPerImpl; ++Case) {
    uint64_t Seed = BaseSeed ^ (Gamma * (Case + 11));
    SCOPED_TRACE(traceLabel("HashedList", Seed));
    CollectionRuntime RT;
    runListSequence(
        RT.newListOf(ImplKind::HashedList, RT.site("diff.hlist:1")), Seed,
        300, /*Ordered=*/false);
  }
}

TEST(Differential, SingletonAndEmptyListConstrainedModels) {
  for (int Case = 0; Case < CasesPerImpl; ++Case) {
    uint64_t Seed = BaseSeed ^ (Gamma * (Case + 21));
    SCOPED_TRACE(traceLabel("SingletonList", Seed));
    CollectionRuntime RT;
    runSingletonListSequence(
        RT.newListOf(ImplKind::SingletonList, RT.site("diff.slist:1")),
        Seed, 200);

    List Empty = RT.newListOf(ImplKind::EmptyList, RT.site("diff.elist:1"));
    EXPECT_TRUE(Empty.isEmpty());
    EXPECT_FALSE(Empty.contains(Value::ofInt(1)));
    EXPECT_FALSE(Empty.remove(Value::ofInt(1)));
    EXPECT_EQ(iterateList(Empty), std::vector<int64_t>());
  }
}

TEST(Differential, SetImplsMatchSetModel) {
  for (ImplKind Kind :
       {ImplKind::HashSet, ImplKind::ArraySet, ImplKind::LazySet,
        ImplKind::LinkedHashSet, ImplKind::SizeAdaptingSet}) {
    for (int Case = 0; Case < CasesPerImpl; ++Case) {
      uint64_t Seed = BaseSeed ^ (Gamma * (Case + 31));
      SCOPED_TRACE(traceLabel(implKindName(Kind), Seed));
      CollectionRuntime RT;
      runSetSequence(RT.newSetOf(Kind, RT.site("diff.set:1")), Seed, 300);
    }
  }
}

TEST(Differential, MapImplsMatchUnorderedMapModel) {
  for (ImplKind Kind : {ImplKind::HashMap, ImplKind::ArrayMap,
                        ImplKind::LazyMap, ImplKind::SizeAdaptingMap}) {
    for (int Case = 0; Case < CasesPerImpl; ++Case) {
      uint64_t Seed = BaseSeed ^ (Gamma * (Case + 41));
      SCOPED_TRACE(traceLabel(implKindName(Kind), Seed));
      CollectionRuntime RT;
      runMapSequence(RT.newMapOf(Kind, RT.site("diff.map:1")), Seed, 300);
    }
  }
}

TEST(Differential, SingletonMapConstrainedModel) {
  for (int Case = 0; Case < CasesPerImpl; ++Case) {
    uint64_t Seed = BaseSeed ^ (Gamma * (Case + 51));
    SCOPED_TRACE(traceLabel("SingletonMap", Seed));
    CollectionRuntime RT;
    runSingletonMapSequence(
        RT.newMapOf(ImplKind::SingletonMap, RT.site("diff.smap:1")), Seed,
        200);
  }
}

//===----------------------------------------------------------------------===//
// Differential across online replacement
//===----------------------------------------------------------------------===//

/// Rotates the backing implementation on every allocation — the
/// worst-case online replacement schedule.
class RotatingSelector : public OnlineSelector {
public:
  ImplKind chooseImpl(const ContextInfo *, AdtKind Adt, ImplKind Requested,
                      uint32_t &) override {
    switch (Adt) {
    case AdtKind::List: {
      static const ImplKind Kinds[] = {ImplKind::ArrayList,
                                       ImplKind::LinkedList,
                                       ImplKind::LazyArrayList};
      return Kinds[Tick++ % 3];
    }
    case AdtKind::Set: {
      static const ImplKind Kinds[] = {ImplKind::HashSet,
                                       ImplKind::ArraySet,
                                       ImplKind::LinkedHashSet};
      return Kinds[Tick++ % 3];
    }
    case AdtKind::Map: {
      static const ImplKind Kinds[] = {ImplKind::HashMap,
                                       ImplKind::ArrayMap,
                                       ImplKind::LazyMap};
      return Kinds[Tick++ % 3];
    }
    }
    return Requested;
  }

private:
  unsigned Tick = 0;
};

TEST(Differential, BehaviourIdenticalAcrossRotatingReplacement) {
  CollectionRuntime RT;
  RotatingSelector Selector;
  RT.setOnlineSelector(&Selector);
  FrameId ListSite = RT.site("diff.rotate.list:1");
  FrameId MapSite = RT.site("diff.rotate.map:1");

  std::set<ImplKind> ListBackings, MapBackings;
  for (int Case = 0; Case < 9; ++Case) {
    uint64_t Seed = BaseSeed ^ (Gamma * (Case + 61));
    SCOPED_TRACE(traceLabel("rotating", Seed));
    List L = RT.newArrayList(ListSite);
    ListBackings.insert(L.backing());
    runListSequence(std::move(L), Seed, 200, /*Ordered=*/true);
    Map M = RT.newHashMap(MapSite);
    MapBackings.insert(M.backing());
    runMapSequence(std::move(M), Seed, 200);
  }
  EXPECT_EQ(ListBackings.size(), 3u)
      << "selector must actually rotate the list backing";
  EXPECT_EQ(MapBackings.size(), 3u)
      << "selector must actually rotate the map backing";
}

TEST(Differential, BehaviourIdenticalAcrossOnlineAdaptorReplacement) {
  rules::RuleEngine Engine;
  Engine.addBuiltinRules();
  CollectionRuntime RT;
  OnlineAdaptor Adaptor(Engine, RT.profiler());
  RT.setOnlineSelector(&Adaptor);
  FrameId Site = RT.site("diff.online.map:1");

  // Small get-dominated maps: the adaptor redirects HashMap -> ArrayMap
  // after warm-up. Every instance, before and after the switch, must
  // behave identically against the model.
  std::set<ImplKind> Backings;
  for (int I = 0; I < 120; ++I) {
    uint64_t Seed = BaseSeed ^ (Gamma * (I + 71));
    SCOPED_TRACE(traceLabel("online-adaptor", Seed));
    Map M = RT.newHashMap(Site, 4);
    Backings.insert(M.backing());
    SplitMix64 Rng(Seed);
    std::unordered_map<int64_t, int64_t> Model;
    for (int E = 0; E < 3; ++E) {
      int64_t K = static_cast<int64_t>(Rng.nextBelow(6));
      bool New = Model.find(K) == Model.end();
      ASSERT_EQ(M.put(Value::ofInt(K), Value::ofInt(I)), New);
      Model[K] = I;
    }
    for (int E = 0; E < 8; ++E) {
      int64_t K = static_cast<int64_t>(Rng.nextBelow(6));
      Value Got = M.get(Value::ofInt(K));
      auto It = Model.find(K);
      ASSERT_EQ(Got.isNull(), It == Model.end());
      if (It != Model.end()) {
        ASSERT_EQ(Got.asInt(), It->second);
      }
    }
    ASSERT_EQ(M.size(), Model.size());
    if (I % 16 == 15)
      RT.heap().collect(/*Forced=*/true);
  }
  EXPECT_GT(Adaptor.replacements(), 0u)
      << "the adaptor must have switched the backing at least once";
  EXPECT_GE(Backings.size(), 2u);
}

} // namespace
