//===--- GcCycles.h - Forced GC cycles for the GC benches ------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives forced collections for the benches that time GC cycles
/// (`micro_gc_throughput`, `ablation_gc_threads`) in the two shapes a heap
/// can have. A heap collects on its worker pool only while mutator threads
/// are registered (GcHeap::setGcThreads), so:
///
///  - registered: one `MutatorScope` worker mutates the heap and parks at
///    an epoch barrier, where the coordinating thread collects
///    (`apps::runEpochs`, as the trace replays do); cycles at
///    GcThreads > 1 run on the pool;
///  - unregistered: the calling thread mutates and collects, and every
///    cycle runs on it at any GcThreads (the shape of a single-threaded
///    program such as the §5.2 offline loop).
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_BENCH_GCCYCLES_H
#define CHAMELEON_BENCH_GCCYCLES_H

#include "apps/ServerSim.h"

#include <cstdint>
#include <functional>

namespace chameleon::bench {

/// Runs \p Cycles forced collections on \p RT, each after `Mutate(Cycle)`
/// on the mutating thread. The cycles are the last \p Cycles entries of
/// `RT.heap().cycles()`.
inline void collectCycles(CollectionRuntime &RT, bool Registered,
                          uint32_t Cycles,
                          const std::function<void(uint32_t Cycle)> &Mutate) {
  if (Registered) {
    apps::runEpochs(
        RT, /*Threads=*/1, Cycles, "bench",
        [&](uint32_t, uint32_t Cycle) { Mutate(Cycle); }, nullptr);
    return;
  }
  for (uint32_t Cycle = 0; Cycle < Cycles; ++Cycle) {
    Mutate(Cycle);
    RT.heap().collect(/*Forced=*/true);
  }
}

} // namespace chameleon::bench

#endif // CHAMELEON_BENCH_GCCYCLES_H
