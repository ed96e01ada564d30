//===--- micro_gc_throughput.cpp - GC hot-path micro benchmark -*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times the three GC/profiler hot paths this repository optimises:
///
///  1. full mark+sweep cycles at 1/2/4/8 collector threads, large ones
///     and frequent small ones (where the persistent worker pool's
///     per-cycle wake cost shows), on a heap a registered mutator thread
///     built, so 2/4/8 threads time the pool; one row per table times a
///     heap with no registered mutator, which collects on the calling
///     thread (GcCycles.h);
///  2. sweep-heavy cycles (most of the heap garbage each cycle) where the
///     parallel sweep partitions the slot walk;
///  3. `contextForAllocation` throughput with and without the stack-
///     fingerprint fast-path cache.
///
/// Each table's rows are timed over several rounds that alternate the row
/// order; a row reports its median with the min and max beside it, and a
/// ratio is the median of the per-round ratios.
/// Prints the usual tables; `--json <path>` writes the measurements as
/// JSON (the bench/BENCH_gc.json perf trajectory).
///
//===----------------------------------------------------------------------===//

#include "collections/CollectionRuntime.h"
#include "collections/Handles.h"
#include "support/Format.h"
#include "support/SplitMix64.h"

#include "GcCycles.h"
#include "Harness.h"

#include <algorithm>
#include <cstdio>
#include <thread>

using namespace chameleon;

namespace {

constexpr int CyclesPerMeasurement = 9;

/// Rounds of every table. Single runs of this bench spread wider than the
/// differences between its rows and between builds, so each table reports
/// medians over rounds.
constexpr int Rounds = 9;

/// Median wall-clock milliseconds per forced GC cycle on a runtime holding
/// a large live set, built and mutated by a registered mutator thread or,
/// without \p Registered, by the calling thread; \p GarbageChurn
/// additionally allocates a garbage wave before every cycle so the sweep
/// has real work.
double cycleMillis(unsigned Threads, bool Registered, bool GarbageChurn,
                   uint64_t *LiveObjectsOut = nullptr) {
  RuntimeConfig Config;
  Config.Profiler.Enabled = false;
  Config.GcThreads = Threads;
  CollectionRuntime RT(Config);
  FrameId Site = RT.site("gc:1");

  std::vector<Map> Maps;
  std::vector<List> Lists;
  bench::collectCycles(
      RT, Registered, CyclesPerMeasurement, [&](uint32_t Cycle) {
        if (Cycle == 0) {
          for (int I = 0; I < 30000; ++I) {
            Map M = RT.newHashMap(Site, 4);
            for (int E = 0; E < 3; ++E)
              M.put(Value::ofInt(E), Value::ofInt(I));
            Maps.push_back(std::move(M));
            if (I % 8 == 0) {
              List L = RT.newLinkedList(Site);
              for (int E = 0; E < 10; ++E)
                L.add(Value::ofInt(E));
              Lists.push_back(std::move(L));
            }
          }
        }
        if (GarbageChurn) {
          // A dying wave: wrappers scoped to this cycle's mutation.
          std::vector<List> Wave;
          for (int I = 0; I < 8000; ++I) {
            List L = RT.newArrayList(Site, 4);
            L.add(Value::ofInt(I));
            Wave.push_back(std::move(L));
          }
        }
      });

  std::vector<double> Times;
  for (const GcCycleRecord &Rec : RT.heap().cycles())
    Times.push_back(static_cast<double>(Rec.DurationNanos) / 1e6);
  if (LiveObjectsOut)
    *LiveObjectsOut = RT.heap().cycles().back().LiveObjects;
  return bench::median(std::move(Times));
}

/// Mean microseconds per forced cycle on a *small* live heap collected at
/// high frequency — the profiled-run regime (a statistics-sampling cycle
/// every few hundred KiB of allocation), where the per-cycle fixed cost
/// (the pool wake) dominates the phase work itself.
double frequentCycleMicros(unsigned Threads, bool Registered) {
  RuntimeConfig Config;
  Config.Profiler.Enabled = false;
  Config.GcThreads = Threads;
  CollectionRuntime RT(Config);
  FrameId Site = RT.site("gc:2");

  constexpr uint32_t WarmupCycles = 5;
  constexpr uint32_t TimedCycles = 120;
  std::vector<Map> Maps;
  bench::collectCycles(RT, Registered, WarmupCycles + TimedCycles,
                       [&](uint32_t Cycle) {
                         if (Cycle != 0)
                           return;
                         for (int I = 0; I < 800; ++I) {
                           Map M = RT.newHashMap(Site, 4);
                           M.put(Value::ofInt(0), Value::ofInt(I));
                           Maps.push_back(std::move(M));
                         }
                       });

  uint64_t Nanos = 0;
  for (uint32_t I = WarmupCycles; I < WarmupCycles + TimedCycles; ++I)
    Nanos += RT.heap().cycles()[I].DurationNanos;
  return static_cast<double>(Nanos) / TimedCycles / 1e3;
}

/// Captures per second through `contextForAllocation` over a rotating set
/// of call stacks (repeated-site pattern, the common case).
double captureRate(bool FastPath, uint64_t *HitsOut = nullptr) {
  ProfilerConfig Config;
  Config.ContextFastPath = FastPath;
  SemanticProfiler P(Config);
  FrameId Site = P.internFrame("site:1");
  FrameId Type = P.internFrame("HashMap");
  FrameId Callers[8];
  for (int I = 0; I < 8; ++I)
    Callers[I] = P.internFrame("caller" + std::to_string(I));
  FrameId Outer = P.internFrame("outer");

  constexpr uint64_t Captures = 4000000;
  CallFrame Base(P, Outer);
  bench::Clock::time_point Start = bench::Clock::now();
  for (uint64_t I = 0; I < Captures; ++I) {
    CallFrame Caller(P, Callers[I & 7]);
    bench::keep(P.contextForAllocation(Site, Type));
  }
  double Seconds = bench::secondsSince(Start);
  if (HitsOut)
    *HitsOut = P.contextCacheHits();
  return static_cast<double>(Captures) / Seconds;
}

} // namespace

int main(int argc, char **argv) {
  bench::Harness H("micro_gc_throughput", argc, argv, {});
  std::printf("== micro: GC throughput (worker pool, parallel sweep, "
              "context fast path) ==\n\n");
  std::printf("host cores: %u, rounds: %d\n\n",
              std::thread::hardware_concurrency(), Rounds);
  H.metric("rounds", Rounds);

  // Rows: a registered mutator at 1/2/4/8 threads (the pool at 2-8), then
  // no registered mutator at the pool size offline-apps runs with. Row 0
  // is the 1-thread base of the "vs 1 thread" ratios.
  struct RowSpec {
    unsigned Threads;
    bool Registered;
  };
  const RowSpec Rows[] = {{1, true}, {2, true}, {4, true}, {8, true},
                          {4, false}};
  constexpr size_t NumRows = std::size(Rows);
  auto MutatorCell = [](bool Registered) {
    return bench::Cell(Registered ? "registered" : "none");
  };
  // A row's cells: its median over the rounds, then the min and max.
  auto Spread = [](std::vector<bench::Cell> &Cells,
                   const std::vector<double> &Samples) {
    auto [Min, Max] = std::minmax_element(Samples.begin(), Samples.end());
    Cells.insert(Cells.end(), {bench::median(Samples), *Min, *Max});
  };

  uint64_t LiveObjects = 0;
  std::vector<std::vector<double>> Cycle(NumRows), Churn(NumRows);
  bench::alternatingRounds(NumRows, Rounds, [&](size_t I) {
    Cycle[I].push_back(cycleMillis(Rows[I].Threads, Rows[I].Registered,
                                   /*GarbageChurn=*/false, &LiveObjects));
    Churn[I].push_back(cycleMillis(Rows[I].Threads, Rows[I].Registered,
                                   /*GarbageChurn=*/true));
  });
  bench::Table &Large = H.table("gc_cycles", {{"threads"},
                                              {"mutator"},
                                              {"cycle (ms)", {3}},
                                              {"min", {3}},
                                              {"max", {3}},
                                              {"vs 1 thread", {2, "x"}},
                                              {"churn (ms)", {3}},
                                              {"churn min", {3}},
                                              {"churn max", {3}}});
  for (size_t I = 0; I < NumRows; ++I) {
    std::vector<bench::Cell> Cells = {static_cast<double>(Rows[I].Threads),
                                      MutatorCell(Rows[I].Registered)};
    Spread(Cells, Cycle[I]);
    Cells.push_back(bench::medianRatio(Cycle[0], Cycle[I]));
    Spread(Cells, Churn[I]);
    Large.addRow(std::move(Cells));
  }
  H.metric("live_objects", static_cast<double>(LiveObjects));
  std::printf("%s\n", Large.render().c_str());

  std::vector<std::vector<double>> Frequent(NumRows);
  bench::alternatingRounds(NumRows, Rounds, [&](size_t I) {
    Frequent[I].push_back(
        frequentCycleMicros(Rows[I].Threads, Rows[I].Registered));
  });
  bench::Table &Small = H.table("frequent_cycles", {{"threads"},
                                                    {"mutator"},
                                                    {"cycle (us)", {1}},
                                                    {"min", {1}},
                                                    {"max", {1}},
                                                    {"vs 1 thread", {2, "x"}}});
  for (size_t I = 0; I < NumRows; ++I) {
    std::vector<bench::Cell> Cells = {static_cast<double>(Rows[I].Threads),
                                      MutatorCell(Rows[I].Registered)};
    Spread(Cells, Frequent[I]);
    Cells.push_back(bench::medianRatio(Frequent[0], Frequent[I]));
    Small.addRow(std::move(Cells));
  }
  std::printf("frequent small cycles (profiled-run regime):\n%s\n",
              Small.render().c_str());

  // Row 0 probes the registry (cache off), row 1 hits the cache.
  uint64_t Hits = 0;
  std::vector<std::vector<double>> Rate(2);
  bench::alternatingRounds(2, Rounds, [&](size_t I) {
    Rate[I].push_back(captureRate(/*FastPath=*/I == 1, I == 1 ? &Hits
                                                               : nullptr));
  });
  H.metric("context_cache_hits", static_cast<double>(Hits));
  bench::Table &Capture = H.table("context_capture",
                                  {{"context capture"},
                                   {"captures/s", {2, "M", 1e-6}},
                                   {"min", {2, "M", 1e-6}},
                                   {"max", {2, "M", 1e-6}},
                                   {"speedup", {2, "x"}}});
  const char *CaptureRows[] = {"registry probe (cache off)",
                               "fingerprint cache (cache on)"};
  for (size_t I = 0; I < 2; ++I) {
    std::vector<bench::Cell> Cells = {CaptureRows[I]};
    Spread(Cells, Rate[I]);
    Cells.push_back(bench::medianRatio(Rate[I], Rate[0]));
    Capture.addRow(std::move(Cells));
  }
  std::printf("%s\n", Capture.render().c_str());

  std::printf("Each time and rate is the median over the rounds (min and max "
              "beside it), with\nthe row order alternating between rounds; "
              "vs 1 thread and speedup are the\nmedians of the per-round "
              "ratios.\n\n");
  std::printf("shape: extra collector threads pay off only when a cycle's "
              "mark and sweep work\noutweighs the pool wake and phase "
              "barriers; on frequent small cycles they cost\nmore than they "
              "save. A heap with no registered mutator never wakes the "
              "pool:\nits calling thread built it and finds it in cache. The "
              "fingerprint cache removes\nthe per-capture ContextKey build "
              "and hash probe. Statistics are identical at\nevery thread "
              "count.\n");
  return H.finish();
}
