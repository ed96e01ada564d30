//===--- ConcurrentMutatorTest.cpp - Mutator-thread stress tests ----------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stress and correctness tests of the concurrent-mutator runtime
/// (DESIGN.md §9): N registered mutator threads allocate, use, and retire
/// collections — with stop-the-world GCs triggered both by allocation
/// sampling mid-operation and by explicit collect() calls — while the
/// sharded profiler keeps exact, race-free statistics. Run under TSan in
/// CI (the `ConcurrentMutator*` filter of the sanitizer job).
///
//===----------------------------------------------------------------------===//

#include "collections/Handles.h"
#include "profiler/Report.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

using namespace chameleon;

namespace {

/// Runs \p Fn on \p Threads workers, each registered as a mutator.
void onMutators(CollectionRuntime &RT, unsigned Threads,
                const std::function<void(unsigned)> &Fn) {
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&RT, &Fn, T] {
      MutatorScope Scope(RT);
      Fn(T);
    });
  for (std::thread &W : Workers)
    W.join();
}

TEST(ConcurrentMutator, DisjointOpsUnderPressureGc) {
  RuntimeConfig Config;
  Config.Profiler.ConcurrentMutators = true;
  // Statistics-sampling GCs fire in the middle of handle operations, so
  // workers are stopped at countOp safepoint polls, not just at barriers.
  Config.GcSampleEveryBytes = 64 * 1024;
  CollectionRuntime RT(Config);

  constexpr unsigned Threads = 4;
  constexpr int PerThread = 600;
  onMutators(RT, Threads, [&](unsigned Tid) {
    FrameId Site = RT.site("cm.pressure:" + std::to_string(Tid));
    std::vector<Map> Kept;
    for (int I = 0; I < PerThread; ++I) {
      Map M = RT.newHashMap(Site, 4);
      for (int E = 0; E < 6; ++E)
        M.put(Value::ofInt(E), Value::ofInt(Tid * 1000 + I));
      ASSERT_EQ(M.size(), 6u);
      ASSERT_EQ(M.get(Value::ofInt(3)).asInt(), Tid * 1000 + I);
      if (I % 5 == 0)
        Kept.push_back(std::move(M));
      // The others die; sweep folding races against nothing because the
      // world is stopped for every cycle.
    }
    // Every retained map must have survived the pressure GCs intact.
    for (size_t I = 0; I < Kept.size(); ++I)
      ASSERT_EQ(Kept[I].get(Value::ofInt(0)).asInt(),
                static_cast<int64_t>(Tid * 1000 + I * 5));
  });

  EXPECT_GT(RT.heap().cycleCount(), 0u)
      << "the test must actually have stopped the world";
  RT.harvestLiveStatistics();
  uint64_t Allocations = 0;
  for (const ContextInfo *Ctx : RT.profiler().contexts())
    Allocations += Ctx->allocations();
  EXPECT_EQ(Allocations, static_cast<uint64_t>(Threads) * PerThread);
  std::string Error;
  EXPECT_TRUE(RT.heap().verifyHeap(&Error)) << Error;
}

TEST(ConcurrentMutator, SamplingCountersExactPerThread) {
  RuntimeConfig Config;
  Config.Profiler.ConcurrentMutators = true;
  Config.Profiler.SamplingPeriod = 4;
  CollectionRuntime RT(Config);

  constexpr unsigned Threads = 4;
  constexpr int PerThread = 400; // divisible by the period
  onMutators(RT, Threads, [&](unsigned Tid) {
    FrameId Site = RT.site("cm.sampling:" + std::to_string(Tid));
    for (int I = 0; I < PerThread; ++I) {
      List L = RT.newArrayList(Site, 2);
      L.add(Value::ofInt(I));
      L.retire();
    }
  });

  // The sampling tick is per thread: each thread captures exactly 1 in 4
  // of its own allocations, with no cross-thread counter interleaving.
  EXPECT_EQ(RT.profiler().contextAcquisitions(),
            static_cast<uint64_t>(Threads) * PerThread / 4);
  EXPECT_EQ(RT.profiler().allocationsSampledOut(),
            static_cast<uint64_t>(Threads) * PerThread * 3 / 4);
}

TEST(ConcurrentMutator, StripedRegistrySameContextAcrossThreads) {
  RuntimeConfig Config;
  Config.Profiler.ConcurrentMutators = true;
  CollectionRuntime RT(Config);
  FrameId Site = RT.site("cm.shared:1");
  FrameId Caller = RT.profiler().internFrame("cm.caller");

  constexpr unsigned Threads = 8;
  constexpr int PerThread = 300;
  onMutators(RT, Threads, [&](unsigned) {
    CallFrame Frame(RT.profiler(), Caller);
    for (int I = 0; I < PerThread; ++I) {
      Map M = RT.newHashMap(Site, 2);
      M.put(Value::ofInt(0), Value::ofInt(I));
      M.retire();
    }
  });
  RT.profiler().flushEpoch();

  // All threads hit the same (site, type, stack): the striped registry
  // must deduplicate to exactly one context holding every event.
  ASSERT_EQ(RT.profiler().contexts().size(), 1u);
  const ContextInfo &Ctx = *RT.profiler().contexts().front();
  EXPECT_EQ(Ctx.allocations(), static_cast<uint64_t>(Threads) * PerThread);
  EXPECT_EQ(Ctx.foldedInstances(),
            static_cast<uint64_t>(Threads) * PerThread);
}

TEST(ConcurrentMutator, FoldedStatsInvariantAcrossThreadCounts) {
  // The same partitioned workload at 1 and 4 threads must produce
  // identical context statistics (the fold order is the task order, not
  // the thread schedule).
  auto Run = [](unsigned Threads) {
    RuntimeConfig Config;
    Config.Profiler.ConcurrentMutators = true;
    CollectionRuntime RT(Config);
    FrameId Site = RT.site("cm.invariant:1");
    constexpr int Tasks = 240;
    onMutators(RT, Threads, [&](unsigned Tid) {
      for (int Task = 0; Task < Tasks; ++Task) {
        if (Task % Threads != Tid)
          continue;
        RT.profiler().setCurrentTask(Task + 1);
        List L = RT.newArrayList(Site, 4);
        for (int E = 0; E < Task % 9; ++E)
          L.add(Value::ofInt(E));
        (void)L.contains(Value::ofInt(1));
        L.retire();
      }
    });
    RT.profiler().flushEpoch();
    const ContextInfo &Ctx = *RT.profiler().contexts().front();
    return std::tuple(Ctx.allocations(), Ctx.foldedInstances(),
                      Ctx.avgAllOps(), Ctx.maxSizeStat().mean(),
                      Ctx.maxSizeStat().variance(),
                      Ctx.finalSizeStat().mean());
  };
  EXPECT_EQ(Run(1), Run(4));
}

TEST(ConcurrentMutator, PlanLookupsAgreeAcrossThreads) {
  // Every mutator reads the installed plan on every allocation, with no
  // lock: planned allocations must all get the planned backing, unplanned
  // ones the default, and the report must match a 1-thread run.
  auto Run = [](unsigned Threads) {
    RuntimeConfig Config;
    Config.Profiler.ConcurrentMutators = true;
    CollectionRuntime RT(Config);
    FrameId Planned = RT.site("cm.plan:planned");
    FrameId Unplanned = RT.site("cm.plan:unplanned");
    {
      Map Probe = RT.newHashMap(Planned);
      RT.plan().add(Probe.context()->label(),
                    PlanDecision{ImplKind::ArrayMap, 3});
      Probe.retire();
    }
    constexpr int Tasks = 400;
    std::atomic<int> WrongBacking{0};
    onMutators(RT, Threads, [&](unsigned Tid) {
      for (int Task = 0; Task < Tasks; ++Task) {
        if (Task % Threads != Tid)
          continue;
        RT.profiler().setCurrentTask(Task + 1);
        Map P = RT.newHashMap(Planned);
        Map U = RT.newHashMap(Unplanned);
        if (P.backing() != ImplKind::ArrayMap
            || U.backing() != ImplKind::HashMap)
          WrongBacking.fetch_add(1, std::memory_order_relaxed);
        for (int E = 0; E < Task % 5; ++E) {
          P.put(Value::ofInt(E), Value::ofInt(Task));
          U.put(Value::ofInt(E), Value::ofInt(Task));
        }
        P.retire();
        U.retire();
      }
    });
    RT.profiler().flushEpoch();
    EXPECT_EQ(WrongBacking.load(), 0) << "at " << Threads << " threads";
    auto Count = [&RT](ImplKind Kind) {
      return std::to_string(RT.allocationsWithImpl(Kind));
    };
    std::string Report = "ArrayMap=" + Count(ImplKind::ArrayMap)
                         + " HashMap=" + Count(ImplKind::HashMap) + "\n";
    for (const ContextInfo *Ctx : RT.profiler().contexts())
      Report += renderContextDetail(*Ctx);
    return Report;
  };
  std::string One = Run(1);
  EXPECT_NE(One.find("ArrayMap=400 HashMap=401"), std::string::npos) << One;
  EXPECT_EQ(One, Run(4));
}

TEST(ConcurrentMutator, HandlesMigrateAcrossThreads) {
  RuntimeConfig Config;
  Config.Profiler.ConcurrentMutators = true;
  CollectionRuntime RT(Config);
  FrameId Site = RT.site("cm.migrate:1");

  // Built on worker threads; the handles (and their root entries) outlive
  // the workers — unregistering splices surviving roots into the main
  // thread's root list.
  std::vector<Map> Survivors(4);
  onMutators(RT, 4, [&](unsigned Tid) {
    Map M = RT.newHashMap(Site, 4);
    M.put(Value::ofInt(0), Value::ofInt(Tid));
    Survivors[Tid] = std::move(M);
  });

  RT.heap().collect(/*Forced=*/true);
  std::string Error;
  ASSERT_TRUE(RT.heap().verifyHeap(&Error)) << Error;
  for (unsigned Tid = 0; Tid < 4; ++Tid)
    EXPECT_EQ(Survivors[Tid].get(Value::ofInt(0)).asInt(),
              static_cast<int64_t>(Tid));
}

TEST(ConcurrentMutator, ConcurrentForcedCollections) {
  RuntimeConfig Config;
  Config.Profiler.ConcurrentMutators = true;
  CollectionRuntime RT(Config);

  // Several threads race to initiate stop-the-world cycles while the
  // rest keep mutating; initiators must serialise, and waiting out an
  // in-flight request must not deadlock.
  onMutators(RT, 4, [&](unsigned Tid) {
    FrameId Site = RT.site("cm.collect:" + std::to_string(Tid));
    for (int I = 0; I < 40; ++I) {
      List L = RT.newArrayList(Site, 2);
      L.add(Value::ofInt(I));
      if (I % 8 == Tid % 8)
        RT.heap().collect(/*Forced=*/true);
      ASSERT_EQ(L.get(0).asInt(), I);
      L.retire();
    }
  });
  std::string Error;
  EXPECT_TRUE(RT.heap().verifyHeap(&Error)) << Error;
}

TEST(ConcurrentMutator, ParallelGcWithConcurrentMutators) {
  // Parallel collector workers (GcThreads=2) under registered mutator
  // threads: the STW protocol and the mark/sweep pool must compose.
  RuntimeConfig Config;
  Config.Profiler.ConcurrentMutators = true;
  Config.GcThreads = 2;
  Config.GcSampleEveryBytes = 96 * 1024;
  CollectionRuntime RT(Config);

  onMutators(RT, 4, [&](unsigned Tid) {
    FrameId Site = RT.site("cm.parallel:" + std::to_string(Tid));
    std::vector<List> Kept;
    for (int I = 0; I < 400; ++I) {
      List L = RT.newArrayList(Site, 4);
      for (int E = 0; E < 5; ++E)
        L.add(Value::ofInt(Tid * 10 + E));
      if (I % 7 == 0)
        Kept.push_back(std::move(L));
    }
    for (List &L : Kept)
      ASSERT_EQ(L.get(4).asInt(), static_cast<int64_t>(Tid * 10 + 4));
  });

  EXPECT_GT(RT.heap().cycleCount(), 0u);
  std::string Error;
  EXPECT_TRUE(RT.heap().verifyHeap(&Error)) << Error;
}

TEST(ConcurrentMutator, DeathFoldsExactUnderConcurrentRetire) {
  // Regression for the death-event fold race: every retired instance is
  // folded exactly once, even when sweeps run between the retires.
  RuntimeConfig Config;
  Config.Profiler.ConcurrentMutators = true;
  CollectionRuntime RT(Config);
  FrameId Site = RT.site("cm.retire:1");

  constexpr unsigned Threads = 4;
  constexpr int PerThread = 500;
  std::atomic<int> Collects{0};
  onMutators(RT, Threads, [&](unsigned Tid) {
    for (int I = 0; I < PerThread; ++I) {
      Map M = RT.newHashMap(Site, 2);
      M.put(Value::ofInt(0), Value::ofInt(I));
      M.retire(); // buffered on the retiring thread
      if (I % 100 == 99 && Tid == 0) {
        RT.heap().collect(/*Forced=*/true); // sweeps must skip the folded
        Collects.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  RT.profiler().flushEpoch();

  EXPECT_GT(Collects.load(), 0);
  ASSERT_EQ(RT.profiler().contexts().size(), 1u);
  const ContextInfo &Ctx = *RT.profiler().contexts().front();
  EXPECT_EQ(Ctx.allocations(), static_cast<uint64_t>(Threads) * PerThread);
  EXPECT_EQ(Ctx.foldedInstances(),
            static_cast<uint64_t>(Threads) * PerThread)
      << "each instance must fold exactly once (retire + sweep idempotent)";
}

} // namespace
