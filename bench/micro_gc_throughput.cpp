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
///     per-cycle wake cost shows);
///  2. sweep-heavy cycles (most of the heap garbage each cycle) where the
///     parallel sweep partitions the slot walk;
///  3. `contextForAllocation` throughput with and without the stack-
///     fingerprint fast-path cache.
///
/// Prints the usual tables; `--json <path>` writes the measurements as
/// JSON (the bench/BENCH_gc.json perf trajectory).
///
//===----------------------------------------------------------------------===//

#include "collections/CollectionRuntime.h"
#include "collections/Handles.h"
#include "support/Format.h"
#include "support/SplitMix64.h"

#include "Harness.h"

#include <cstdio>
#include <thread>

using namespace chameleon;

namespace {

constexpr int CyclesPerMeasurement = 9;

/// Median wall-clock milliseconds per forced GC cycle on a runtime holding
/// a large live set; \p GarbageChurn additionally allocates a garbage wave
/// before every cycle so the sweep has real work.
double cycleMillis(unsigned Threads, bool GarbageChurn,
                   uint64_t *LiveObjectsOut = nullptr) {
  RuntimeConfig Config;
  Config.Profiler.Enabled = false;
  Config.GcThreads = Threads;
  CollectionRuntime RT(Config);
  FrameId Site = RT.site("gc:1");

  std::vector<Map> Maps;
  std::vector<List> Lists;
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

  std::vector<double> Times(CyclesPerMeasurement);
  for (double &T : Times) {
    if (GarbageChurn) {
      // A dying wave: wrappers scoped to this iteration.
      std::vector<List> Wave;
      for (int I = 0; I < 8000; ++I) {
        List L = RT.newArrayList(Site, 4);
        L.add(Value::ofInt(I));
        Wave.push_back(std::move(L));
      }
    }
    const GcCycleRecord &Rec = RT.heap().collect(/*Forced=*/true);
    T = static_cast<double>(Rec.DurationNanos) / 1e6;
    if (LiveObjectsOut)
      *LiveObjectsOut = Rec.LiveObjects;
  }
  return bench::median(std::move(Times));
}

/// Mean microseconds per forced cycle on a *small* live heap collected at
/// high frequency — the profiled-run regime (a statistics-sampling cycle
/// every few hundred KiB of allocation), where the per-cycle fixed cost
/// (the pool wake) dominates the phase work itself.
double frequentCycleMicros(unsigned Threads) {
  RuntimeConfig Config;
  Config.Profiler.Enabled = false;
  Config.GcThreads = Threads;
  CollectionRuntime RT(Config);
  FrameId Site = RT.site("gc:2");

  std::vector<Map> Maps;
  for (int I = 0; I < 800; ++I) {
    Map M = RT.newHashMap(Site, 4);
    M.put(Value::ofInt(0), Value::ofInt(I));
    Maps.push_back(std::move(M));
  }

  constexpr int WarmupCycles = 5;
  constexpr int TimedCycles = 120;
  for (int I = 0; I < WarmupCycles; ++I)
    RT.heap().collect(/*Forced=*/true);
  uint64_t Nanos = 0;
  for (int I = 0; I < TimedCycles; ++I)
    Nanos += RT.heap().collect(/*Forced=*/true).DurationNanos;
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
  std::printf("host cores: %u\n\n", std::thread::hardware_concurrency());

  double Base = 0;
  uint64_t LiveObjects = 0;
  bench::Table &Large = H.table("gc_cycles", {{"threads"},
                                              {"cycle (ms)", {3}},
                                              {"vs 1 thread", {2, "x"}},
                                              {"churn (ms)", {3}}});
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    double Cycle = cycleMillis(Threads, /*GarbageChurn=*/false, &LiveObjects);
    double Churn = cycleMillis(Threads, /*GarbageChurn=*/true);
    if (Threads == 1)
      Base = Cycle;
    Large.addRow({static_cast<double>(Threads), Cycle, Base / Cycle, Churn});
  }
  H.metric("live_objects", static_cast<double>(LiveObjects));
  std::printf("%s\n", Large.render().c_str());

  bench::Table &Frequent = H.table(
      "frequent_cycles",
      {{"threads"}, {"cycle (us)", {1}}, {"vs 1 thread", {2, "x"}}});
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    double Cycle = frequentCycleMicros(Threads);
    if (Threads == 1)
      Base = Cycle;
    Frequent.addRow({static_cast<double>(Threads), Cycle, Base / Cycle});
  }
  std::printf("frequent small cycles (profiled-run regime):\n%s\n",
              Frequent.render().c_str());

  uint64_t Hits = 0;
  double FastRate = captureRate(/*FastPath=*/true, &Hits);
  double SlowRate = captureRate(/*FastPath=*/false);
  H.metric("context_cache_hits", static_cast<double>(Hits));
  bench::Table &Capture = H.table("context_capture",
                                  {{"context capture"},
                                   {"captures/s", {2, "M", 1e-6}},
                                   {"speedup", {2, "x"}}});
  Capture.addRow({"registry probe (cache off)", SlowRate, 1.0});
  Capture.addRow(
      {"fingerprint cache (cache on)", FastRate, FastRate / SlowRate});
  std::printf("%s\n", Capture.render().c_str());

  std::printf("shape: extra collector threads pay off only when a cycle's "
              "mark and sweep work\noutweighs the pool wake and phase "
              "barriers; on frequent small cycles they cost\nmore than they "
              "save. The fingerprint cache removes the per-capture "
              "ContextKey\nbuild and hash probe. Statistics are identical "
              "at every thread count.\n");
  return H.finish();
}
