//===--- GcFuzzTest.cpp - Randomized collector property tests -------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property test for the collector: a randomized object graph is mutated
/// alongside a C++-side shadow model; after every collection, the set of
/// surviving objects must be exactly the shadow model's reachable set,
/// and the heap's byte accounting must match the model's. It runs on the
/// calling thread and, with a registered mutator, on the worker pool.
///
//===----------------------------------------------------------------------===//

#include "runtime/GcHeap.h"

#include "TestHelpers.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

using namespace chameleon;
using namespace chameleon::testing;

namespace {

/// C++-side mirror of the object graph.
struct ShadowGraph {
  struct ShadowNode {
    std::vector<ObjectRef> Refs; // slot -> target (null allowed)
    uint64_t Bytes = 0;
  };

  std::map<uint32_t, ShadowNode> Nodes; // keyed by slot index
  std::vector<ObjectRef> Roots;

  std::set<uint32_t> reachable() const {
    std::set<uint32_t> Seen;
    std::vector<uint32_t> Work;
    for (ObjectRef R : Roots) {
      if (!R.isNull() && Seen.insert(R.slot()).second)
        Work.push_back(R.slot());
    }
    while (!Work.empty()) {
      uint32_t Slot = Work.back();
      Work.pop_back();
      auto It = Nodes.find(Slot);
      EXPECT_TRUE(It != Nodes.end()) << "shadow graph corrupt";
      if (It == Nodes.end())
        continue;
      for (ObjectRef R : It->second.Refs)
        if (!R.isNull() && Seen.insert(R.slot()).second)
          Work.push_back(R.slot());
    }
    return Seen;
  }
};

/// Mutates a random graph on \p Heap beside its shadow model, collecting
/// now and then, and checks every cycle's survivors against the model.
void fuzzAgainstShadow(GcHeap &Heap) {
  TypeId NodeType = registerNodeType(Heap);
  SplitMix64 Rng(20260704);
  ShadowGraph Shadow;
  std::vector<Handle> RootHandles;

  constexpr unsigned Slots = 3;
  auto AllLive = [&] {
    std::vector<uint32_t> Live;
    for (const auto &[Slot, Node] : Shadow.Nodes)
      Live.push_back(Slot);
    return Live;
  };

  for (int Step = 0; Step < 6000; ++Step) {
    unsigned Choice = static_cast<unsigned>(Rng.nextBelow(10));
    if (Choice < 4 || Shadow.Nodes.empty()) {
      // Allocate, sometimes rooted.
      uint64_t Bytes = 8 * (1 + Rng.nextBelow(8));
      ObjectRef R = allocNode(Heap, NodeType, Slots, Bytes);
      ShadowGraph::ShadowNode Node;
      Node.Refs.assign(Slots, ObjectRef::null());
      Node.Bytes = Bytes;
      Shadow.Nodes[R.slot()] = Node;
      if (Rng.nextBool(0.3)) {
        RootHandles.emplace_back(Heap, R);
        Shadow.Roots.push_back(R);
      }
    } else if (Choice < 7) {
      // Rewire a random edge between live nodes (or to null).
      std::vector<uint32_t> Live = AllLive();
      uint32_t From = Live[Rng.nextBelow(Live.size())];
      unsigned SlotIdx = static_cast<unsigned>(Rng.nextBelow(Slots));
      ObjectRef To = ObjectRef::null();
      if (Rng.nextBool(0.8))
        To = ObjectRef::fromSlot(Live[Rng.nextBelow(Live.size())]);
      Heap.getAs<Node>(ObjectRef::fromSlot(From)).setRef(SlotIdx, To);
      Shadow.Nodes[From].Refs[SlotIdx] = To;
    } else if (Choice < 8 && !RootHandles.empty()) {
      // Drop a random root.
      size_t I = Rng.nextBelow(RootHandles.size());
      RootHandles.erase(RootHandles.begin() + static_cast<long>(I));
      Shadow.Roots.erase(Shadow.Roots.begin() + static_cast<long>(I));
    } else if (Choice == 8) {
      // Collect and compare against the model.
      Heap.collect(/*Forced=*/true);
      std::set<uint32_t> Expected = Shadow.reachable();

      std::set<uint32_t> Actual;
      uint64_t ActualBytes = 0;
      Heap.forEachObject([&](HeapObject &Obj) {
        Actual.insert(Obj.self().slot());
        ActualBytes += Obj.shallowBytes();
      });

      ASSERT_EQ(Actual, Expected) << "survivor set diverged at step "
                                  << Step;
      uint64_t ExpectedBytes = 0;
      for (uint32_t Slot : Expected)
        ExpectedBytes += Shadow.Nodes[Slot].Bytes;
      ASSERT_EQ(Heap.bytesInUse(), ExpectedBytes);
      ASSERT_EQ(ActualBytes, ExpectedBytes);
      ASSERT_EQ(Heap.objectsInUse(), Expected.size());

      // Prune the shadow to the survivors (slots may be reused later).
      for (auto It = Shadow.Nodes.begin(); It != Shadow.Nodes.end();) {
        if (!Expected.count(It->first))
          It = Shadow.Nodes.erase(It);
        else
          ++It;
      }

      // The verifier agrees after every collection.
      std::string Error;
      ASSERT_TRUE(Heap.verifyHeap(&Error)) << Error;
    } else {
      // Duplicate-root churn: root an already-live node again.
      std::vector<uint32_t> Live = AllLive();
      ObjectRef R = ObjectRef::fromSlot(Live[Rng.nextBelow(Live.size())]);
      RootHandles.emplace_back(Heap, R);
      Shadow.Roots.push_back(R);
    }
  }

  // Final consistency check.
  Heap.collect(true);
  std::set<uint32_t> Expected = Shadow.reachable();
  ASSERT_EQ(Heap.objectsInUse(), Expected.size());
}

TEST(GcFuzz, SurvivorsMatchShadowReachability) {
  GcHeap Heap;
  fuzzAgainstShadow(Heap);
}

// The same fuzz on the worker pool: a heap collects there only while a
// mutator thread is registered.
TEST(GcFuzz, PoolSurvivorsMatchShadowReachability) {
  GcHeap Heap;
  Heap.setGcThreads(4);
  MutatorThread *Mutator = Heap.registerMutatorThread();
  const uint64_t PoolTasks = metricValue("cham.gc.pool_tasks");
  fuzzAgainstShadow(Heap);
  Heap.unregisterMutatorThread(Mutator);
  EXPECT_GT(metricValue("cham.gc.pool_tasks"), PoolTasks);
}

} // namespace
