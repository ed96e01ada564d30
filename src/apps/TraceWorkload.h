//===--- TraceWorkload.h - Trace record & replay engine --------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Record and replay of collection workloads (DESIGN.md §14).
///
/// Recording: a `TraceCapture` armed on a ServerSim run (via
/// `ServerSimConfig::RecordTo`) collects the canonical per-task op stream
/// — allocations, operations, retires, epoch boundaries — into a `Trace`.
/// Disarmed, the hooks cost one null check per op.
///
/// Replay: `replayTrace` feeds a trace back through ServerSim's epoch
/// engine (`runEpochs`: epoch barriers with a deterministic flush + forced
/// GC), at any MutatorThreads count, with each epoch's sessions assigned
/// to the workers by load before the first epoch starts.
/// For a valid trace the profiling report is byte-identical to the
/// recording run's at every thread count. Optionally the replay runs
/// under the OnlineAdaptor (builtin rules, live migration with
/// backoff/pinning) and/or the chaos fault injector — the adversarial
/// harness the generated workloads in WorkloadGen.h are tuned for.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_APPS_TRACEWORKLOAD_H
#define CHAMELEON_APPS_TRACEWORKLOAD_H

#include "apps/TraceFormat.h"
#include "collections/Handles.h"
#include "core/OnlineAdaptor.h"

#include <functional>
#include <mutex>
#include <optional>

namespace chameleon::apps {

/// Emit-side helper: builds one task's op list. Cheap to construct; the
/// recording hooks in ServerSim only touch it when a capture is armed.
struct TaskTrace {
  TraceTask Task;

  void alloc(uint32_t Reg, AdtKind Adt, ImplKind Impl, uint32_t SiteIdx,
             uint32_t Capacity) {
    TraceOp Op;
    Op.Code = TraceOpCode::Alloc;
    Op.Target = Reg;
    Op.Adt = Adt;
    Op.Impl = Impl;
    Op.SiteIdx = SiteIdx;
    Op.Capacity = Capacity;
    Task.Ops.push_back(Op);
  }

  /// Operand-less op (Retire, ListRemoveFirst, Size, Clear).
  void op0(TraceOpCode Code, uint32_t Reg) {
    TraceOp Op;
    Op.Code = Code;
    Op.Target = Reg;
    Task.Ops.push_back(Op);
  }

  /// One-operand op (value or index in A).
  void op1(TraceOpCode Code, uint32_t Reg, int64_t A) {
    TraceOp Op;
    Op.Code = Code;
    Op.Target = Reg;
    Op.A = A;
    Task.Ops.push_back(Op);
  }

  /// Two-operand op (key/index in A, value in B).
  void op2(TraceOpCode Code, uint32_t Reg, int64_t A, int64_t B) {
    TraceOp Op;
    Op.Code = Code;
    Op.Target = Reg;
    Op.A = A;
    Op.B = B;
    Task.Ops.push_back(Op);
  }
};

/// Thread-safe collector for the task blocks of one recorded run. Workers
/// submit finished tasks tagged with their epoch; `finish()` sorts each
/// epoch into canonical task-id order and assembles the Trace, so the
/// serialized bytes are identical no matter how the recording run's
/// threads interleaved.
class TraceCapture {
public:
  /// Arms the capture: resets state and fixes the header (the epoch count
  /// sizes the epoch structure).
  void begin(TraceHeader Header);

  /// Submits the boot task. Thread-safe.
  void setBoot(TraceTask Task);

  /// Submits a worker's whole epoch batch under one lock acquisition, so
  /// the capture mutex stays uncontended. Thread-safe.
  void addTasks(uint32_t Epoch, std::vector<TraceTask> Tasks);

  /// Disarms and returns the assembled trace.
  Trace finish();

private:
  std::mutex Mu;
  bool Active = false;
  TraceHeader Header;
  std::optional<TraceTask> Boot;
  std::vector<std::vector<TraceTask>> Epochs;
};

/// Replay parameters.
struct ReplayConfig {
  /// Worker threads; the report is byte-identical at any count.
  uint32_t MutatorThreads = 4;
  /// Install the builtin rule engine behind an OnlineAdaptor (its fixed
  /// warm-up and backoff schedule) for the run, so the replayed workload
  /// drives live migrations (backoff/pinning included). Report
  /// byte-identity across thread counts is not guaranteed in this mode —
  /// migration timing depends on interleaving.
  bool OnlineAdapt = false;
  /// Arm the fault injector with a randomized plan for the run (forced
  /// GCs at allocation, failures inside migration transactions).
  bool Chaos = false;
  uint64_t ChaosSeed = 0xC4A05;
  /// Soft heap limit installed for a chaos run (0 = none).
  uint64_t ChaosSoftHeapLimitBytes = 0;
  /// When non-empty, arm the telemetry recorder and export the bundle
  /// into this directory at the end of the replay.
  std::string TelemetryOutDir;
  /// Called on the replay's main thread at every epoch barrier — after the
  /// deterministic flush (contexts renumbered into canonical order) and the
  /// forced collection, while the workers are still parked at the barrier.
  /// This is the quiescent point at which a fleet agent captures and
  /// commits the per-epoch profile (see fleet/Agent.h). Null costs one
  /// check per epoch.
  std::function<void(uint32_t Epoch, CollectionRuntime &RT)> OnEpochBarrier;
};

/// What a replay produces.
struct ReplayResult {
  /// False when the trace failed validation; Error carries the diagnostic
  /// and nothing was executed.
  bool Ok = false;
  std::string Error;
  /// Request tasks and total ops executed.
  uint64_t Tasks = 0;
  uint64_t Ops = 0;
  /// The deterministic profiling report (same shape as ServerSim's).
  std::string Report;
  /// OnlineAdapt/Chaos accounting (empty otherwise).
  std::string AdaptReport;
  /// OnlineAdapt mode: adaptor counters for assertions.
  uint64_t MigrationsRequested = 0;
  uint64_t MigrationsCommitted = 0;
  uint64_t MigrationsAborted = 0;
  uint64_t PinnedContexts = 0;
  /// Final backing census of the global registers (counts per ImplKind,
  /// ascending impl index; zero-count kinds omitted).
  std::vector<std::pair<ImplKind, uint32_t>> GlobalBackings;
};

/// One epoch's work split over the replay workers: entry t lists the
/// indices, into the epoch's task vector, of the tasks worker t runs, in
/// trace order.
using EpochPartition = std::vector<std::vector<uint32_t>>;

/// Splits one epoch's tasks over \p Workers by load, longest processing
/// time first (Graham, 1969): every session present in the epoch weighs
/// its tasks' op counts, and the heaviest session goes first, onto the
/// least-loaded worker (ties: the lower session id goes first, the lower
/// worker id takes it). A session runs on exactly one worker, so its op
/// order is the trace's; each worker runs its tasks in trace order, so
/// its profiler buffer stays in ascending task order whenever the trace
/// is. Pure function of the tasks: every replay of a trace at a given
/// worker count runs the same partition.
EpochPartition partitionEpochByLoad(const std::vector<TraceTask> &Tasks,
                                    uint32_t Workers);

/// The RuntimeConfig a replay runtime should be constructed with:
/// ServerSim's determinism config with an OnlineRevisePeriod of 8, low so
/// the generated workloads revise (and thus migrate) often. It is the same
/// for every \p Config.
RuntimeConfig traceReplayRuntimeConfig(const ReplayConfig &Config);

/// Replays \p T on \p RT. The trace is validated first (see
/// validateTrace); an invalid trace is rejected without executing
/// anything. \p RT must be freshly constructed — replay determinism
/// depends on starting from an empty frame table and heap.
ReplayResult replayTrace(CollectionRuntime &RT, const Trace &T,
                         const ReplayConfig &Config = ReplayConfig());

} // namespace chameleon::apps

#endif // CHAMELEON_APPS_TRACEWORKLOAD_H
