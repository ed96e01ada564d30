//===--- ContextInfo.h - Per-allocation-context statistics -----*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two statistics records of the paper's library architecture (§4.2):
///
/// * `ObjectContextInfo` — the small per-instance record a wrapper keeps
///   while its collection is alive: one counter per operation kind, the
///   maximal and current size, and the requested initial capacity.
/// * `ContextInfo` — the per-allocation-context aggregate into which
///   instance records are folded when their collection dies (at sweep time,
///   per §4.4), and into which the collection-aware GC folds the heap
///   measures of Table 1 at the end of every cycle.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_PROFILER_CONTEXTINFO_H
#define CHAMELEON_PROFILER_CONTEXTINFO_H

#include "profiler/OpKind.h"
#include "runtime/SemanticMap.h"
#include "support/Statistics.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace chameleon {

/// Interned identifier of a stack-frame / allocation-site label.
using FrameId = uint32_t;

/// Per-instance usage record, embedded in every profiled wrapper.
struct ObjectContextInfo {
  std::array<uint32_t, NumOpKinds> Counts{};
  /// Largest size the collection reached during its lifetime.
  uint32_t MaxSize = 0;
  /// Size right now (folded as the final size at death).
  uint32_t CurrentSize = 0;
  /// Capacity requested at construction (0 = implementation default).
  uint32_t InitialCapacity = 0;
  /// Set once folded into the ContextInfo, to make end-of-run harvesting
  /// idempotent with sweep-time folding.
  bool Folded = false;

  /// Counts one occurrence of \p Op.
  void count(OpKind Op) { ++Counts[opIndex(Op)]; }

  /// Records the collection's size after a mutation.
  void noteSize(uint32_t Size) {
    CurrentSize = Size;
    if (Size > MaxSize)
      MaxSize = Size;
  }

  /// Sum of all counters that are operations (see countsTowardAllOps).
  uint64_t allOps() const {
    uint64_t Sum = 0;
    for (unsigned I = 0; I < NumOpKinds; ++I)
      if (countsTowardAllOps(static_cast<OpKind>(I)))
        Sum += Counts[I];
    return Sum;
  }
};

/// A ContextInfo's complete statistical state, detached from its identity
/// (id / frames / type name). The fleet layer exports one of these per
/// context per process, ships it over the wire, and folds it back into an
/// aggregator-side ContextInfo with `ContextInfo::mergeStats`. RunningStat
/// merges are Welford/Chan — exact-valued but not bitwise commutative — so
/// the aggregator folds bundles in a canonical order (see
/// fleet/FleetProfile.h) to keep merged reports byte-identical.
struct ContextStatsBundle {
  std::array<RunningStat, NumOpKinds> OpStats;
  RunningStat MaxSizeStat;
  RunningStat FinalSizeStat;
  RunningStat InitialCapacityStat;
  uint64_t Allocations = 0;
  uint64_t Folded = 0;
  uint64_t MigrationAborts = 0;
  uint64_t MigrationCommits = 0;
  TotalMax Live;
  TotalMax Used;
  TotalMax Core;
  TotalMax Objects;
};

/// Aggregate statistics for one allocation context (paper Table 1).
///
/// Trace statistics are distributions over the *instances* allocated at the
/// context: each dead instance contributes its per-op counts and sizes as
/// one sample, which directly yields the Avg/Var rows of Table 1 and the
/// stability measure of Definition 3.1. Heap statistics are Total/Max pairs
/// over GC cycles, fed by the collector.
class ContextInfo {
public:
  ContextInfo(uint32_t Id, std::vector<FrameId> Frames, std::string TypeName,
              std::string Label)
      : Id(Id), Frames(std::move(Frames)), TypeName(std::move(TypeName)),
        Label(std::move(Label)) {}

  /// Dense id in allocation order (used for stable report labels).
  uint32_t id() const { return Id; }

  /// The partial allocation context: allocation site first, then callers
  /// outward, up to the configured depth.
  const std::vector<FrameId> &frames() const { return Frames; }

  /// The source-level collection type allocated here ("HashMap", ...).
  const std::string &typeName() const { return TypeName; }

  /// "Type:frame;frame" in the format of the paper's §2.1 report: the key
  /// of replacement plans, report rows and canonical context order. Built
  /// once, when the profiler creates the context.
  const std::string &label() const { return Label; }

  /// -- Recording ---------------------------------------------------------

  /// Notes one allocation with the requested initial capacity.
  void recordAllocation(uint32_t InitialCapacity) {
    ++Allocations;
    InitialCapacityStat.add(InitialCapacity);
  }

  /// Folds one finished instance record (at death or final harvest).
  void recordDeath(ObjectContextInfo &Info);

  /// Folds a snapshot of an instance record unconditionally — the replay
  /// half of the buffered death events of concurrent-mutator mode, whose
  /// originals were marked Folded when the snapshot was taken.
  void foldSnapshot(const ObjectContextInfo &Info);

  /// Renumbers the context (the profiler's canonical reordering at epoch
  /// flushes; see SemanticProfiler::flushEpoch).
  void setId(uint32_t NewId) { Id = NewId; }

  /// Accumulates this context's collection sizes for the current GC cycle.
  /// \p Cycle deduplicates scratch resets across wrappers of one cycle.
  /// \returns true when this was the context's first wrapper in the cycle.
  bool accumulateCycle(uint64_t Cycle, const CollectionSizes &Sizes);

  /// Folds the per-cycle scratch into the Total/Max aggregates. Called by
  /// the profiler at cycle end for every context touched in the cycle.
  void finishCycle();

  /// -- Trace metrics (Table 1, trace rows) --------------------------------

  const RunningStat &opStat(OpKind Op) const { return OpStats[opIndex(Op)]; }
  const RunningStat &maxSizeStat() const { return MaxSizeStat; }
  const RunningStat &finalSizeStat() const { return FinalSizeStat; }
  const RunningStat &initialCapacityStat() const {
    return InitialCapacityStat;
  }

  /// Total number of instances allocated / folded at this context.
  uint64_t allocations() const { return Allocations; }
  uint64_t foldedInstances() const { return Folded; }

  /// Average per-instance count of every op summed — the `#allOps` metric.
  double avgAllOps() const;

  /// Total operations of \p Op across all folded instances.
  double totalOps(OpKind Op) const { return OpStats[opIndex(Op)].sum(); }

  /// -- Heap metrics (Table 1, heap rows) ----------------------------------

  const TotalMax &liveData() const { return Live; }
  const TotalMax &usedData() const { return Used; }
  const TotalMax &coreData() const { return Core; }
  const TotalMax &liveObjects() const { return Objects; }

  /// The rule-engine space-saving potential: totLive - totUsed (§3.3).
  uint64_t savingPotential() const {
    return Live.total() >= Used.total() ? Live.total() - Used.total() : 0;
  }

  /// -- Live-migration accounting (online mode) -----------------------------

  /// Aborted / committed transactional migrations of instances allocated at
  /// this context. Atomic: bumped by whichever mutator thread ran the
  /// migration, read by the online selector's backoff logic.
  void noteMigrationAbort() {
    MigrationAbortCount.fetch_add(1, std::memory_order_relaxed);
  }
  void noteMigrationCommit() {
    MigrationCommitCount.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t migrationAborts() const {
    return MigrationAbortCount.load(std::memory_order_relaxed);
  }
  uint64_t migrationCommits() const {
    return MigrationCommitCount.load(std::memory_order_relaxed);
  }

  /// -- Fleet export / restore ----------------------------------------------

  /// Snapshots the full statistical state (quiescent world; the per-cycle
  /// scratch is not part of the state and must be folded first).
  ContextStatsBundle exportStats() const;

  /// Folds an exported bundle into this context. Callers that need
  /// byte-identical merged output must fold bundles in a canonical order
  /// (RunningStat::merge is not bitwise commutative).
  void mergeStats(const ContextStatsBundle &B);

private:
  uint32_t Id;
  std::vector<FrameId> Frames;
  std::string TypeName;
  std::string Label;

  std::array<RunningStat, NumOpKinds> OpStats;
  RunningStat MaxSizeStat;
  RunningStat FinalSizeStat;
  RunningStat InitialCapacityStat;
  uint64_t Allocations = 0;
  uint64_t Folded = 0;
  std::atomic<uint64_t> MigrationAbortCount{0};
  std::atomic<uint64_t> MigrationCommitCount{0};

  TotalMax Live;
  TotalMax Used;
  TotalMax Core;
  TotalMax Objects;

  // Scratch for the cycle currently being marked.
  CollectionSizes CycleSizes;
  uint64_t CycleObjects = 0;
  uint64_t CycleStamp = 0;
};

} // namespace chameleon

#endif // CHAMELEON_PROFILER_CONTEXTINFO_H
