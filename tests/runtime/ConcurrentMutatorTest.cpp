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
/// sharded profiler keeps exact, race-free statistics, and the flush
/// merges the per-thread event buffers in the order a stable sort of them
/// would give. Run under TSan in CI (the `ConcurrentMutator*` filter of
/// the sanitizer job) and under ASan+UBSan (the statistics-record step).
///
//===----------------------------------------------------------------------===//

#include "collections/Handles.h"
#include "profiler/Report.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <algorithm>
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
  // Statistics-sampling GCs fire in the middle of handle operations, so
  // workers are stopped at countOp safepoint polls, not just at barriers.
  Config.GcSampleEveryBytes = 64 * 1024;
  CollectionRuntime RT(Config);
  RT.profiler().enableConcurrentMutators();

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
  Config.Profiler.SamplingPeriod = 4;
  CollectionRuntime RT(Config);
  RT.profiler().enableConcurrentMutators();

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
  CollectionRuntime RT(Config);
  RT.profiler().enableConcurrentMutators();
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
    CollectionRuntime RT(Config);
    RT.profiler().enableConcurrentMutators();
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

/// Every Welford record of the context the run folds into, plus its two
/// counts, for bit-for-bit comparison between runs.
struct FoldedStats {
  uint64_t Allocations = 0;
  uint64_t Folded = 0;
  std::vector<double> Moments; // mean and variance of every RunningStat
};

FoldedStats foldedStats(const ContextInfo &Ctx) {
  ContextStats S = Ctx.exportStats();
  FoldedStats Out{Ctx.allocations(), Ctx.foldedInstances(), {}};
  auto Add = [&Out](const RunningStat &R) {
    Out.Moments.push_back(R.mean());
    Out.Moments.push_back(R.variance());
  };
  for (const RunningStat &R : S.OpStats)
    Add(R);
  Add(S.MaxSizeStat);
  Add(S.FinalSizeStat);
  Add(S.InitialCapacityStat);
  return Out;
}

TEST(ConcurrentMutator, FoldedStatsInvariantWhenTasksRunOutOfOrder) {
  // Each of 4 mutators runs its tasks in descending id order, so every
  // buffer reaches the flush out of (Task, Seq) order and must be sorted
  // on its own before the merge. The folds — order-sensitive Welford
  // updates over uneven sizes and capacities — must match a 1-thread run
  // in ascending order bit for bit.
  auto Run = [](unsigned Threads, bool Descending) {
    RuntimeConfig Config;
    CollectionRuntime RT(Config);
    RT.profiler().enableConcurrentMutators();
    FrameId Site = RT.site("cm.outoforder:1");
    constexpr int Tasks = 240;
    onMutators(RT, Threads, [&](unsigned Tid) {
      for (int I = 0; I < Tasks; ++I) {
        int Task = Descending ? Tasks - 1 - I : I;
        if (static_cast<unsigned>(Task) % Threads != Tid)
          continue;
        RT.profiler().setCurrentTask(Task + 1);
        List L = RT.newArrayList(Site, 1 + (Task * 7) % 13);
        for (int E = 0; E < (Task * 5) % 11; ++E)
          L.add(Value::ofInt(E));
        for (int E = 0; E < Task % 3; ++E)
          (void)L.contains(Value::ofInt(E));
        if (Task % 4 == 0 && L.size() != 0)
          (void)L.removeAt(0);
        L.retire();
      }
    });
    RT.profiler().flushEpoch();
    EXPECT_EQ(RT.profiler().contexts().size(), 1u);
    return foldedStats(*RT.profiler().contexts().front());
  };
  FoldedStats Reference = Run(1, /*Descending=*/false);
  EXPECT_EQ(Reference.Allocations, 240u);
  EXPECT_EQ(Reference.Folded, 240u);
  FoldedStats OutOfOrder = Run(4, /*Descending=*/true);
  EXPECT_EQ(OutOfOrder.Allocations, Reference.Allocations);
  EXPECT_EQ(OutOfOrder.Folded, Reference.Folded);
  EXPECT_EQ(OutOfOrder.Moments, Reference.Moments);
}

/// Today's reference for the flush order: gather every buffer, then
/// stable-sort the concatenation on (Task, Seq).
std::vector<uint32_t>
stableSortOrder(const std::vector<std::vector<PendingProfileEvent>> &Bufs) {
  std::vector<PendingProfileEvent> All;
  for (const std::vector<PendingProfileEvent> &B : Bufs)
    All.insert(All.end(), B.begin(), B.end());
  std::stable_sort(
      All.begin(), All.end(),
      [](const PendingProfileEvent &A, const PendingProfileEvent &B) {
        return A.Task != B.Task ? A.Task < B.Task : A.Seq < B.Seq;
      });
  std::vector<uint32_t> Order;
  for (const PendingProfileEvent &E : All)
    Order.push_back(E.InitialCapacity);
  return Order;
}

TEST(ConcurrentMutator, BufferMergeMatchesStableSortOfConcatenation) {
  // Seeded random buffers: task ids from a small range so keys tie across
  // buffers, Seq non-decreasing within a buffer (so keys can tie inside
  // one too), and about one buffer in four shuffled. Each event carries
  // its creation index in InitialCapacity; the merge must visit them in
  // exactly the order the stable sort of the concatenation gives.
  SplitMix64 Rng(0x3E26E);
  for (int Round = 0; Round < 400; ++Round) {
    std::vector<std::vector<PendingProfileEvent>> Bufs(1 + Rng.nextBelow(9));
    uint32_t Tag = 0;
    for (std::vector<PendingProfileEvent> &B : Bufs) {
      uint64_t Task = Rng.nextBelow(4), Seq = Rng.nextBelow(3);
      size_t N = Rng.nextBelow(301);
      for (size_t I = 0; I < N; ++I) {
        PendingProfileEvent E;
        E.Task = Task;
        E.Seq = Seq;
        E.InitialCapacity = Tag++;
        B.push_back(E);
        if (Rng.nextBelow(4) == 0)
          Task += Rng.nextBelow(2);
        Seq += Rng.nextBelow(2);
      }
      if (Rng.nextBelow(4) == 0)
        for (size_t I = B.size(); I > 1; --I)
          std::swap(B[I - 1], B[Rng.nextBelow(I)]);
    }
    std::vector<uint32_t> Want = stableSortOrder(Bufs);

    std::vector<std::vector<PendingProfileEvent> *> Ptrs;
    for (std::vector<PendingProfileEvent> &B : Bufs)
      Ptrs.push_back(&B);
    std::vector<uint32_t> Got;
    mergePendingEvents(Ptrs, [&Got](const PendingProfileEvent &E) {
      Got.push_back(E.InitialCapacity);
    });
    ASSERT_EQ(Got, Want) << "round " << Round << ", " << Bufs.size()
                         << " buffers";
  }
}

TEST(ConcurrentMutator, PlanLookupsAgreeAcrossThreads) {
  // Every mutator reads the installed plan on every allocation, with no
  // lock: planned allocations must all get the planned backing, unplanned
  // ones the default, and the report must match a 1-thread run.
  auto Run = [](unsigned Threads) {
    RuntimeConfig Config;
    CollectionRuntime RT(Config);
    RT.profiler().enableConcurrentMutators();
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
  CollectionRuntime RT(Config);
  RT.profiler().enableConcurrentMutators();
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
  CollectionRuntime RT(Config);
  RT.profiler().enableConcurrentMutators();

  // Several threads race to initiate stop-the-world cycles while the
  // rest keep mutating; initiators must serialise, and waiting out an
  // in-flight request must not deadlock.
  onMutators(RT, 4, [&](unsigned Tid) {
    FrameId Site = RT.site("cm.collect:" + std::to_string(Tid));
    for (int I = 0; I < 40; ++I) {
      List L = RT.newArrayList(Site, 2);
      L.add(Value::ofInt(I));
      if (static_cast<unsigned>(I) % 8 == Tid % 8)
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
  Config.GcThreads = 2;
  Config.GcSampleEveryBytes = 96 * 1024;
  CollectionRuntime RT(Config);
  RT.profiler().enableConcurrentMutators();

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
  CollectionRuntime RT(Config);
  RT.profiler().enableConcurrentMutators();
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
