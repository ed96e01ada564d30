//===--- ablation_gc_threads.cpp - §4.3.2 parallel marking -----*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation for the collector's parallel tracing phase (§4.3.2: "several
/// parallel collector threads perform the tracing phase ... the number of
/// parallel threads is the same as the number of cores"). Marking a large
/// live heap with 1/2/4/8 threads: the cycle statistics are identical by
/// construction (all sums commute); only the GC wall time changes. The
/// heap is built by a registered mutator thread and collected at an epoch
/// barrier, so 2/4/8 threads time the worker pool; one more row times a
/// heap with no registered mutator, which collects on the calling thread
/// at any thread count (GcCycles.h). Exits 1 when any row's statistics
/// differ from the 1-thread row's.
///
//===----------------------------------------------------------------------===//

#include "collections/CollectionRuntime.h"
#include "collections/Handles.h"
#include "support/Format.h"

#include "GcCycles.h"
#include "Harness.h"

#include <cstdio>
#include <thread>

using namespace chameleon;

namespace {

struct Outcome {
  uint64_t LiveObjects = 0;
  uint64_t LiveBytes = 0;
  uint64_t CollectionLive = 0;
  double MarkMillis = 0;
};

Outcome measure(unsigned Threads, bool Registered) {
  RuntimeConfig Config;
  Config.Profiler.Enabled = false;
  Config.GcThreads = Threads;
  CollectionRuntime RT(Config);
  FrameId Site = RT.site("gc:1");

  // A large live set: many small maps plus linked structure, built before
  // the first of three cycles.
  std::vector<Map> Maps;
  std::vector<List> Lists;
  bench::collectCycles(RT, Registered, /*Cycles=*/3, [&](uint32_t Cycle) {
    if (Cycle != 0)
      return;
    for (int I = 0; I < 40000; ++I) {
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
  });

  Outcome Result;
  std::vector<double> Millis;
  for (const GcCycleRecord &Rec : RT.heap().cycles()) {
    Result.LiveObjects = Rec.LiveObjects;
    Result.LiveBytes = Rec.LiveBytes;
    Result.CollectionLive = Rec.CollectionLiveBytes;
    Millis.push_back(static_cast<double>(Rec.DurationNanos) / 1e6);
  }
  Result.MarkMillis = bench::median(std::move(Millis));
  return Result;
}

} // namespace

int main() {
  unsigned Cores = std::thread::hardware_concurrency();
  std::printf("== ablation: parallel marking threads (§4.3.2) ==\n\n");
  std::printf("host cores: %u\n\n", Cores);

  Outcome Base = measure(1, /*Registered=*/true);
  TextTable Table({"threads", "mutator", "GC time (ms)", "speedup",
                   "live objects", "collection live"});
  unsigned BestThreads = 1;
  double BestSpeedup = 1.0;
  auto AddRow = [&](unsigned Threads, bool Registered, const Outcome &O) {
    Table.addRow({std::to_string(Threads),
                  Registered ? "registered" : "none",
                  formatDouble(O.MarkMillis, 2),
                  formatDouble(Base.MarkMillis / O.MarkMillis, 2) + "x",
                  std::to_string(O.LiveObjects),
                  formatBytes(O.CollectionLive)});
    if (O.LiveObjects != Base.LiveObjects
        || O.LiveBytes != Base.LiveBytes
        || O.CollectionLive != Base.CollectionLive) {
      std::printf("!! statistics diverged at %u threads (%s mutator)\n",
                  Threads, Registered ? "registered" : "no");
      return false;
    }
    return true;
  };
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    Outcome O = Threads == 1 ? Base : measure(Threads, /*Registered=*/true);
    if (Threads != 1 && Base.MarkMillis / O.MarkMillis > BestSpeedup) {
      BestSpeedup = Base.MarkMillis / O.MarkMillis;
      BestThreads = Threads;
    }
    if (!AddRow(Threads, /*Registered=*/true, O))
      return 1;
  }
  // The calling-thread path: the same heap built and collected by one
  // unregistered thread, at the pool size offline-apps runs with.
  Outcome Unregistered = measure(4, /*Registered=*/false);
  if (!AddRow(4, /*Registered=*/false, Unregistered))
    return 1;

  std::printf("%s\n", Table.render().c_str());
  std::printf("shape: identical statistics at every thread count — "
              "parallelism is orthogonal\nto every reported metric, as "
              "§4.3.2 notes.\n");
  if (BestThreads == 1)
    std::printf("threads did not help on this %u-core host: every thread "
                "count took longer\nthan 1 thread (%.2f ms).\n",
                Cores, Base.MarkMillis);
  else
    std::printf("threads helped on this %u-core host: %.2fx of 1 thread's "
                "GC time at %u threads.\n",
                Cores, BestSpeedup, BestThreads);
  std::printf("a heap with no registered mutator collects on the calling "
              "thread: %.2f ms,\n%.2fx of the registered 1-thread row.\n",
              Unregistered.MarkMillis,
              Base.MarkMillis / Unregistered.MarkMillis);
  return 0;
}
