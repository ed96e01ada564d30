//===--- FleetFixtures.h - Profiles shared by the fleet tests --*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Inputs shared by the fleet tests: a hand-built profile that sets every
/// wire field (awkward doubles included), and the profile captured at the
/// last epoch barrier of a real workload-zoo trace replay.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_TESTS_FLEET_FLEETFIXTURES_H
#define CHAMELEON_TESTS_FLEET_FLEETFIXTURES_H

#include "apps/TraceWorkload.h"
#include "apps/WorkloadGen.h"
#include "fleet/FleetProfile.h"

#include <gtest/gtest.h>

#include <cmath>

namespace chameleon::fleet::fixtures {

/// A profile exercising every field: several contexts (in canonical order:
/// callers sort), metrics of all kinds, and awkward doubles.
inline ProcessProfile sampleProfile(uint64_t Epoch) {
  ProcessProfile P;
  P.Epoch = Epoch;
  P.Heap.CyclesSeen = 7;
  P.Heap.Live = TotalMax::fromParts(1000, 400, 7);
  P.Heap.CollLive = TotalMax::fromParts(600, 300, 7);
  P.Heap.CollUsed = TotalMax::fromParts(500, 250, 7);
  P.Heap.CollCore = TotalMax::fromParts(400, 200, 7);

  ContextProfile A;
  A.TypeName = "ArrayList";
  A.Frames = {"site.a:1", "caller.b"};
  A.Stats.Allocations = 42;
  A.Stats.Folded = 40;
  A.Stats.MigrationAborts = 1;
  A.Stats.MigrationCommits = 2;
  A.Stats.MaxSizeStat = RunningStat::fromMoments(40, 12.5, 3.75, 1.0, 64.0);
  A.Stats.OpStats[0] =
      RunningStat::fromMoments(10, 0.5, std::nan(""), -0.0, 1e300);
  A.Stats.Live = TotalMax::fromParts(4096, 512, 7);
  A.Stats.Used = TotalMax::fromParts(2048, 256, 7);
  A.Stats.Core = TotalMax::fromParts(1024, 128, 7);
  A.Stats.Objects = TotalMax::fromParts(64, 8, 7);

  ContextProfile B;
  B.TypeName = "HashMap";
  B.Frames = {"site.b:2"};
  B.Stats.Allocations = 7;
  B.Stats.FinalSizeStat = RunningStat::fromMoments(7, 3.0, 0.25, 2.0, 4.0);

  P.Contexts = {std::move(A), std::move(B)};

  obs::MetricSnapshot C;
  C.Name = "cham.fleet.test_counter";
  C.Kind = obs::MetricKind::Counter;
  C.Value = 123;
  obs::MetricSnapshot G;
  G.Name = "cham.fleet.test_gauge";
  G.Kind = obs::MetricKind::Gauge;
  G.GaugeValue = -5;
  obs::MetricSnapshot H;
  H.Name = "cham.fleet.test_hdr";
  H.Kind = obs::MetricKind::Hdr;
  H.HdrBuckets = {{5, 3}, {190, 2}, {222, 1}};
  H.Count = 6;
  H.Sum = 4015;
  H.MinValue = 5;
  H.MaxValue = 2000;
  P.Metrics = {C, G, H};
  return P;
}

/// Replays one workload-zoo trace (ci scale, seed 0x5CA1E) at \p Threads
/// mutator threads and returns the profile captured at the final epoch
/// barrier.
inline ProcessProfile replayAndCapture(const apps::WorkloadGenerator &G,
                                       uint32_t Threads) {
  apps::WorkloadGenConfig GC;
  apps::applyWorkloadScale(apps::WorkloadScale::Ci, GC);
  GC.Seed = 0x5CA1E;
  apps::Trace T = G.Generate(GC);

  ProcessProfile Last;
  apps::ReplayConfig RC;
  RC.MutatorThreads = Threads;
  RC.OnEpochBarrier = [&](uint32_t Epoch, CollectionRuntime &RT) {
    Last = captureProcessProfile(RT.profiler(), Epoch + 1);
  };
  CollectionRuntime RT(apps::traceReplayRuntimeConfig(RC));
  apps::ReplayResult R = apps::replayTrace(RT, T, RC);
  EXPECT_TRUE(R.Ok) << R.Error;
  return Last;
}

} // namespace chameleon::fleet::fixtures

#endif // CHAMELEON_TESTS_FLEET_FLEETFIXTURES_H
