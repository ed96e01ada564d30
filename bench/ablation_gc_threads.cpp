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
/// construction (all sums commute); only the GC wall time changes.
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

struct Outcome {
  uint64_t LiveObjects = 0;
  uint64_t LiveBytes = 0;
  uint64_t CollectionLive = 0;
  double MarkMillis = 0;
};

Outcome measure(unsigned Threads) {
  RuntimeConfig Config;
  Config.Profiler.Enabled = false;
  Config.GcThreads = Threads;
  CollectionRuntime RT(Config);
  FrameId Site = RT.site("gc:1");
  SplitMix64 Rng(11);

  // A large live set: many small maps plus linked structure.
  std::vector<Map> Maps;
  std::vector<List> Lists;
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

  Outcome Result;
  Result.MarkMillis = bench::medianOf(3, [&] {
    const GcCycleRecord &Rec = RT.heap().collect(/*Forced=*/true);
    Result.LiveObjects = Rec.LiveObjects;
    Result.LiveBytes = Rec.LiveBytes;
    Result.CollectionLive = Rec.CollectionLiveBytes;
    return static_cast<double>(Rec.DurationNanos) / 1e6;
  });
  return Result;
}

} // namespace

int main() {
  unsigned Cores = std::thread::hardware_concurrency();
  std::printf("== ablation: parallel marking threads (§4.3.2) ==\n\n");
  std::printf("host cores: %u\n\n", Cores);

  Outcome Base = measure(1);
  TextTable Table({"threads", "GC time (ms)", "speedup", "live objects",
                   "collection live"});
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    Outcome O = Threads == 1 ? Base : measure(Threads);
    Table.addRow({std::to_string(Threads),
                  formatDouble(O.MarkMillis, 2),
                  formatDouble(Base.MarkMillis / O.MarkMillis, 2) + "x",
                  std::to_string(O.LiveObjects),
                  formatBytes(O.CollectionLive)});
    if (O.LiveObjects != Base.LiveObjects
        || O.LiveBytes != Base.LiveBytes
        || O.CollectionLive != Base.CollectionLive) {
      std::printf("!! statistics diverged at %u threads\n", Threads);
      return 1;
    }
  }

  std::printf("%s\n", Table.render().c_str());
  std::printf("shape: identical statistics at every thread count — "
              "parallelism is orthogonal\nto every reported metric, as "
              "§4.3.2 notes. GC wall time improves with threads\non a "
              "multi-core host; on a single-core host (like cores=1 CI "
              "machines) expect\nparity to slight coordination "
              "overhead.\n");
  return 0;
}
