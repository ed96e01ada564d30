//===--- DecisionLog.h - Decision-provenance ledger -------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision-provenance ledger (DESIGN.md §16): an append-only,
/// per-context record of *why* the adaptive loop did what it did. Every
/// rule-evaluation epoch appends the Table-1 metric inputs it saw, each
/// rule's outcome, the chosen impl, and the full migration lifecycle
/// (build/verify/publish/commit/abort/backoff/pin), all tied to the GC
/// cycle (epoch) in which they happened — so `chameleon-stats --why` can
/// reconstruct the complete decision timeline long after the migration
/// committed and the evidence vanished from the live profile.
///
/// Records are fixed-size PODs in a preallocated ring: appending never
/// allocates, and the ring is readable lock-free (the publication cursor
/// is released *after* the entry is fully written), which is what lets
/// the FlightRecorder dump the ledger tail from a fatal-signal handler.
/// Label/rule-name side tables are ordinary heap structures updated under
/// the mutex and are export-only — the signal path never touches them.
///
/// Like the TraceRecorder, the ledger is armed explicitly; disarmed
/// sites cost one relaxed atomic load.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_OBS_DECISIONLOG_H
#define CHAMELEON_OBS_DECISIONLOG_H

#include "support/Annotations.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace chameleon::obs {

/// What a ledger record describes. Numeric values are part of the fleet
/// wire format — append, never renumber.
enum class DecisionKind : uint8_t {
  EpochMark = 0,       ///< GC cycle boundary (global record, CtxId == ~0u).
  Snapshot = 1,        ///< Table-1 metric inputs read for an evaluation.
  RuleOutcome = 2,     ///< One rule's verdict during an evaluation epoch.
  Choice = 3,          ///< Impl chosen for a context (allocation/adaptor).
  MigrationStart = 4,  ///< migrateCollection entered (target in Impl).
  MigrationBuild = 5,  ///< Build phase completed.
  MigrationVerify = 6, ///< Verify phase completed.
  MigrationPublish = 7,///< Publish phase completed.
  MigrationCommit = 8, ///< Migration committed (new impl in Impl).
  MigrationAbort = 9,  ///< Migration aborted cleanly (old impl kept).
  Backoff = 10,        ///< Adaptor backoff after an abort (retry in Capacity).
  Pin = 11,            ///< Context pinned after repeated aborts.
};

/// \returns a stable lowercase name for \p K ("epoch", "rule", ...).
const char *decisionKindName(DecisionKind K);

/// Rule verdicts. The rule engine's RuleOutcome is an alias of this enum,
/// owned here because obs must not depend on rules. Numeric values are
/// part of the wire format — append, never renumber.
enum class DecisionOutcome : uint8_t {
  None = 0,             ///< the record carries no verdict
  Fired = 1,
  NeverFires = 2,       ///< retired: no producer, still decoded
  SrcTypeMismatch = 3,  ///< the rule's srcType does not match the context
  TooFewSamples = 4,    ///< below the engine's minimum folded instances
  ConditionFalse = 5,   ///< the condition evaluated to false
  MissingParam = 6,     ///< the rule references an unbound $-parameter
  Unstable = 7,         ///< suppressed by the Definition 3.1 gate
  GatedByPotential = 8, ///< retired: no producer, still decoded
};

/// \returns a stable lowercase name for \p O ("fired", "never_fires", ...).
const char *decisionOutcomeName(DecisionOutcome O);

/// One ledger record. POD on purpose: the ring is preallocated and the
/// flight recorder reads it from a signal handler. Field meaning varies
/// by kind (see DESIGN.md §16 for the per-kind schema):
///  - EpochMark: Allocations=live objects, TotLive=live bytes,
///    TotUsed=freed bytes, Capacity=objects freed this cycle.
///  - Snapshot: the Table-1 inputs (Allocations/Folded/TotLive/TotUsed/
///    TotCore/AvgOps/AvgMaxSize) as the evaluator saw them.
///  - RuleOutcome: Rule=rule index, Outcome, Impl/Capacity=the
///    replacement a fired rule suggested, DivGuard=division-guard hits.
///  - Choice/Migration*/Backoff/Pin: Impl=target impl (0xff = none),
///    Capacity=target capacity (Backoff: allocation count to retry at;
///    Pin/abort: abort count in Rule).
struct DecisionRecord {
  uint32_t CtxId = ~0u; ///< Profiler context id; ~0u = process-global.
  uint32_t Seq = 0;     ///< Per-context sequence number (assigned at export).
  uint64_t Epoch = 0;   ///< GC cycles seen when the record was appended.
  DecisionKind Kind = DecisionKind::EpochMark;
  DecisionOutcome Outcome = DecisionOutcome::None;
  uint8_t Impl = 0xff;  ///< collections ImplKind ordinal; 0xff = none.
  int16_t Rule = -1;    ///< Rule index into the rule-name table; -1 = n/a.
  uint16_t DivGuard = 0;///< Division-guard hits during the evaluation.
  uint32_t Capacity = 0;
  uint64_t Allocations = 0;
  uint64_t Folded = 0;
  uint64_t TotLive = 0;
  uint64_t TotUsed = 0;
  uint64_t TotCore = 0;
  double AvgOps = 0;
  double AvgMaxSize = 0;
};

/// The canonical exported form of the ledger: records in (CtxId, arrival)
/// order with per-context Seq assigned, plus the side tables needed to
/// render names. This is what the telemetry bundle serializes as
/// decisions.json and what the fleet wire format ships per process.
struct DecisionExport {
  std::vector<DecisionRecord> Events;
  /// (CtxId, label) pairs, id-sorted. Labels are noted by instrumentation
  /// sites after canonical renumbering, so ids match the profiler report.
  std::vector<std::pair<uint32_t, std::string>> ContextLabels;
  std::vector<std::string> RuleNames; ///< Index-aligned with Record.Rule.
  std::vector<std::string> ImplNames; ///< Index-aligned with Record.Impl.
  uint64_t Dropped = 0; ///< Records overwritten by ring wrap-around.

  bool operator==(const DecisionExport &O) const {
    auto Key = [](const DecisionRecord &R) {
      return std::tie(R.CtxId, R.Seq);
    };
    if (Events.size() != O.Events.size())
      return false;
    for (size_t I = 0; I < Events.size(); ++I)
      if (Key(Events[I]) != Key(O.Events[I]))
        return false;
    return ContextLabels == O.ContextLabels && RuleNames == O.RuleNames &&
           ImplNames == O.ImplNames && Dropped == O.Dropped;
  }
};

/// Process-global decision ledger. Armed explicitly (ServerSim --ledger,
/// tests, the soak harness); every instrumentation site guards on
/// enabled() with a single relaxed load.
class DecisionLog {
public:
  static DecisionLog &instance();

  /// Arms the ledger with a ring of \p Capacity records (preallocated
  /// here; append never allocates). Re-arming clears previous state.
  void arm(size_t Capacity = 16384);
  /// Disarms and releases the ring. Ledger contents are discarded.
  void disarm();
  /// True when armed. One relaxed load — the disarmed fast path.
  bool enabled() const { return Armed.load(std::memory_order_relaxed); }

  /// Appends \p R (Seq is ignored; assigned at export). When the ring is
  /// full the oldest record is overwritten and Dropped grows — the ledger
  /// keeps the newest history, flight-recorder style.
  void record(const DecisionRecord &R);

  /// The GC epoch instrumentation sites stamp on their records. Advanced
  /// by the GC cycle boundary (GcHeap) alongside its EpochMark record.
  uint64_t currentEpoch() const {
    return EpochCounter.load(std::memory_order_relaxed);
  }
  void setEpoch(uint64_t E) {
    EpochCounter.store(E, std::memory_order_relaxed);
  }

  /// Notes the canonical label for a context id (export-side rendering).
  void noteContextLabel(uint32_t CtxId, const std::string &Label);
  /// Notes the rule-name table (index-aligned with DecisionRecord::Rule).
  void noteRuleNames(const std::vector<std::string> &Names);
  /// Notes the impl-name table (index-aligned with DecisionRecord::Impl).
  void noteImplNames(const std::vector<std::string> &Names);

  /// Records overwritten so far (0 until the ring wraps).
  uint64_t dropped() const;

  /// Canonical export: records sorted by (CtxId, arrival order) with
  /// global records (CtxId == ~0u) first and per-context Seq assigned.
  /// Deterministic for deterministic record sequences.
  DecisionExport exportCanonical() const;

  /// Async-signal-safe tail read for the flight recorder: copies up to
  /// \p MaxN of the newest published records into \p Out (oldest first)
  /// without taking Mu. \returns the number copied. Records being
  /// appended concurrently are excluded by the publication cursor.
  size_t unsafeTailForCrash(DecisionRecord *Out, size_t MaxN) const;

  /// Async-signal-safe overwrite count (same semantics as dropped()).
  uint64_t unsafeDroppedForCrash() const;

private:
  DecisionLog() = default;

  // Rank sits between SpMu (40) and AllocMu (30): GC-boundary records are
  // appended while the world is stopped under SpMu, and appending may
  // touch the allocator (label table) below us.
  mutable std::mutex Mu CHAM_LOCK_RANK(35);
  std::atomic<bool> Armed{false};
  std::atomic<uint64_t> EpochCounter{0};
  std::vector<DecisionRecord> Ring; // fixed capacity once armed
  std::atomic<uint64_t> Written{0}; // published entries; release-stored
  std::map<uint32_t, std::string> Labels;
  std::vector<std::string> RuleNames;
  std::vector<std::string> ImplNames;
};

/// Renders \p E as the canonical decisions.json document. Byte-identical
/// for equal exports regardless of how they were produced.
std::string decisionsJson(const DecisionExport &E);

/// Parses a decisions.json document (as produced by decisionsJson or the
/// flight recorder). \returns false with \p Error set on malformed input.
bool decisionsFromJson(const std::string &Text, DecisionExport &Out,
                       std::string *Error);

/// Renders the human-readable decision timeline for `--why`. \p CtxFilter
/// selects contexts whose id (decimal) or label contains the filter;
/// empty renders every context. Epoch marks are interleaved as headers.
std::string renderDecisionTimeline(const DecisionExport &E,
                                   const std::string &CtxFilter);

} // namespace chameleon::obs

#endif // CHAMELEON_OBS_DECISIONLOG_H
