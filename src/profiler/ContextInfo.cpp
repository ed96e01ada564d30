//===--- ContextInfo.cpp - Per-allocation-context statistics -------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profiler/ContextInfo.h"

using namespace chameleon;

void ContextInfo::recordDeath(ObjectContextInfo &Info) {
  if (Info.Folded)
    return;
  Info.Folded = true;
  foldSnapshot(Info);
}

void ContextInfo::foldSnapshot(const ObjectContextInfo &Info) {
  for (unsigned I = 0; I < NumOpKinds; ++I)
    Stats.OpStats[I].add(Info.Counts[I]);
  Stats.MaxSizeStat.add(Info.MaxSize);
  Stats.FinalSizeStat.add(Info.CurrentSize);
  ++Stats.Folded;
}

bool ContextInfo::accumulateCycle(uint64_t Cycle,
                                  const CollectionSizes &Sizes) {
  bool FirstTouch = CycleStamp != Cycle;
  if (FirstTouch) {
    CycleStamp = Cycle;
    CycleSizes = CollectionSizes();
    CycleObjects = 0;
  }
  CycleSizes += Sizes;
  ++CycleObjects;
  return FirstTouch;
}

void ContextInfo::finishCycle() {
  Stats.Live.observe(CycleSizes.Live);
  Stats.Used.observe(CycleSizes.Used);
  Stats.Core.observe(CycleSizes.Core);
  Stats.Objects.observe(CycleObjects);
  CycleSizes = CollectionSizes();
  CycleObjects = 0;
}

void ContextStats::merge(const ContextStats &O) {
  for (unsigned I = 0; I < NumOpKinds; ++I)
    OpStats[I].merge(O.OpStats[I]);
  MaxSizeStat.merge(O.MaxSizeStat);
  FinalSizeStat.merge(O.FinalSizeStat);
  InitialCapacityStat.merge(O.InitialCapacityStat);
  Allocations += O.Allocations;
  Folded += O.Folded;
  MigrationAborts += O.MigrationAborts;
  MigrationCommits += O.MigrationCommits;
  Live.merge(O.Live);
  Used.merge(O.Used);
  Core.merge(O.Core);
  Objects.merge(O.Objects);
}

double ContextInfo::avgAllOps() const {
  double Sum = 0;
  for (unsigned I = 0; I < NumOpKinds; ++I)
    if (countsTowardAllOps(static_cast<OpKind>(I)))
      Sum += Stats.OpStats[I].mean();
  return Sum;
}
