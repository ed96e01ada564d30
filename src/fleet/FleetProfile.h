//===--- FleetProfile.h - Cross-process profile model ----------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet data model (DESIGN.md §15): what one process exports per
/// epoch, how streams of those exports are keyed, and how the aggregator
/// folds them into one fleet-wide profile.
///
/// A `ProcessProfile` is a *cumulative* snapshot of one process's profiler
/// at an epoch barrier — every later epoch supersedes every earlier one
/// from the same stream. That choice is what makes the pipeline robust:
/// shedding an intermediate epoch under queue pressure, replaying a WAL
/// tail twice after a reconnect, or receiving epochs out of order are all
/// harmless, because the aggregator only ever keeps the highest-numbered
/// epoch per stream.
///
/// A profile carries the profiler's own statistics records: one
/// `ContextStats` per context and one `HeapStats` per process
/// (profiler/ContextInfo.h). The wire encodes them field by field, and
/// every merge (fleet-wide, and into an aggregator-side profiler) is those
/// records' `merge`.
///
/// Merge determinism: RunningStat merges (Welford/Chan) are exact-valued
/// but not bitwise commutative, so `FleetState::mergedProfile` merges
/// context records in a canonical order — streams sorted by (AgentId,
/// RunSeed), contexts sorted by (TypeName, Frames) — and the merged bytes
/// are identical no matter in which order agents arrived or how many
/// mutator threads each process ran (per-process profiles are already
/// thread-count invariant after flushEpoch).
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_FLEET_FLEETPROFILE_H
#define CHAMELEON_FLEET_FLEETPROFILE_H

#include "obs/DecisionLog.h"
#include "obs/Metrics.h"
#include "profiler/ContextInfo.h"
#include "support/Wire.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace chameleon {
class SemanticProfiler;
}

namespace chameleon::fleet {

/// Decode bounds: reject lengths implied by corrupted input before
/// allocating. Generous multiples of anything a real run produces.
inline constexpr size_t MaxContextsPerProfile = 1u << 22;
inline constexpr size_t MaxFramesPerContext = 64;
inline constexpr size_t MaxLabelLen = 4096;
inline constexpr size_t MaxMetricsPerProfile = 1u << 16;
inline constexpr size_t MaxLedgerEvents = 1u << 20;
inline constexpr size_t MaxLedgerNames = 1u << 12;

/// One allocation context's identity + full statistical state, detached
/// from any profiler (frame ids are resolved to their label strings).
struct ContextProfile {
  std::string TypeName;
  /// Frame labels: allocation site first, then callers outward.
  std::vector<std::string> Frames;
  ContextStats Stats;

  /// Canonical identity ordering: (TypeName, Frames), lexicographic.
  bool identityLess(const ContextProfile &O) const {
    if (TypeName != O.TypeName)
      return TypeName < O.TypeName;
    return Frames < O.Frames;
  }
  bool sameIdentity(const ContextProfile &O) const {
    return TypeName == O.TypeName && Frames == O.Frames;
  }
};

/// One process's cumulative profile at an epoch barrier: the per-context
/// records plus the whole-heap aggregates the rule evaluator needs, plus
/// the telemetry bundle (the `cham.*` metric snapshot).
struct ProcessProfile {
  /// Commit sequence number, monotonic per stream, starting at 1.
  uint64_t Epoch = 0;
  HeapStats Heap;
  /// Contexts in canonical (label-sorted) order — capture after flushEpoch.
  std::vector<ContextProfile> Contexts;
  /// The process's metric snapshot at the same instant.
  std::vector<obs::MetricSnapshot> Metrics;
  /// The process's decision-provenance ledger (canonical export; empty
  /// when the ledger is disarmed). Rides the same epoch barrier, so the
  /// ledger tail and the profile describe the same instant.
  obs::DecisionExport Ledger;
};

/// Captures \p P's current state as a ProcessProfile. Call at a quiescent
/// point after flushEpoch (an epoch barrier): contexts are then in
/// canonical order and the result is byte-identical across mutator thread
/// counts. \p MetricsPrefix selects which metrics ride along ("" = none).
ProcessProfile captureProcessProfile(const SemanticProfiler &P,
                                     uint64_t Epoch,
                                     const std::string &MetricsPrefix = "");

/// Serializes \p P (deterministic bytes; doubles as bit patterns).
void encodeProcessProfile(std::string &Out, const ProcessProfile &P);

/// Bounds-checked decode. Returns false with a diagnostic in \p Err.
bool decodeProcessProfile(ByteReader &R, ProcessProfile &Out,
                          std::string &Err);

/// Identity of one profile stream: one agent process run.
struct StreamKey {
  std::string AgentId;
  uint64_t RunSeed = 0;

  bool operator<(const StreamKey &O) const {
    if (AgentId != O.AgentId)
      return AgentId < O.AgentId;
    return RunSeed < O.RunSeed;
  }
  bool operator==(const StreamKey &O) const {
    return AgentId == O.AgentId && RunSeed == O.RunSeed;
  }
};

/// The aggregator's in-memory state: the latest profile per stream plus
/// the per-stream durable mark (highest epoch included in a persisted
/// snapshot — what acks advertise and WAL compaction trusts).
class FleetState {
public:
  struct Stream {
    ProcessProfile Latest;
    uint64_t DurableEpoch = 0;
  };

  /// Folds one received update. Keeps the highest epoch per stream;
  /// returns false for a stale/duplicate epoch (already covered).
  bool fold(const StreamKey &Key, ProcessProfile Profile);

  /// Streams in canonical (sorted) order. Stable references.
  const std::map<StreamKey, Stream> &streams() const { return Streams; }

  /// Highest epoch seen / durable for \p Key (0 when unknown).
  uint64_t latestEpoch(const StreamKey &Key) const;
  uint64_t durableEpoch(const StreamKey &Key) const;

  /// Marks every stream's current latest epoch durable (after a
  /// successful snapshot persist).
  void markAllDurable();

  /// Restores a stream from a loaded snapshot (latest == durable: the
  /// snapshot is by definition persisted).
  void restore(const StreamKey &Key, ProcessProfile Profile);

  /// The canonical fleet-wide merge: streams folded in sorted key order,
  /// contexts emitted in sorted identity order, heap aggregates and
  /// metrics merged. Epoch = sum of stream epochs (a fleet "version").
  ProcessProfile mergedProfile() const;

  /// Rebuilds the merged profile into \p P: contexts interned + stats
  /// merged, heap statistics merged — after this, RuleEngine::evaluate
  /// over \p P is fleet-wide rule evaluation.
  void restoreInto(SemanticProfiler &P) const;

  bool empty() const { return Streams.empty(); }

private:
  std::map<StreamKey, Stream> Streams;
};

/// Merges same-name metric snapshots (name-sorted output): counters,
/// gauges, and HDR counts and buckets add; HDR min/max fold.
std::vector<obs::MetricSnapshot>
mergeMetricSnapshots(const std::vector<const std::vector<obs::MetricSnapshot> *> &Inputs);

/// Merges per-process decision ledgers into one fleet-wide ledger.
/// Context ids from different inputs are disjoint by construction, so each
/// input's contexts are renumbered onto a shared id space (inputs must be
/// supplied in canonical stream order — the caller's sorted-key iteration
/// — which is what makes the merged bytes independent of arrival order).
/// Rule/impl name tables are unioned with per-input index remapping, and
/// per-context Seq is reassigned after the canonical global sort.
obs::DecisionExport mergeDecisionExports(
    const std::vector<const obs::DecisionExport *> &Inputs);

} // namespace chameleon::fleet

#endif // CHAMELEON_FLEET_FLEETPROFILE_H
