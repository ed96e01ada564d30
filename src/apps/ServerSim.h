//===--- ServerSim.h - Multi-threaded server workload ----------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A multi-threaded server simulacrum exercising the concurrent-mutator
/// support (DESIGN.md §9): N worker threads handle a deterministic stream
/// of requests against shared per-session state (an attribute map and a
/// bounded history list per session) while allocating, using, and retiring
/// request-scoped collections. Epochs end at a quiescent barrier where the
/// main thread flushes the per-thread profiling buffers and forces a GC.
///
/// The workload is *statically partitioned*: a session's requests are
/// handled by exactly one worker, in request order, and every request
/// carries a globally unique task id. Together with exact sampling and
/// the profiler's canonical context ordering this makes the profiling
/// report byte-identical for any MutatorThreads count — the property
/// ServerSimTest locks in.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_APPS_SERVERSIM_H
#define CHAMELEON_APPS_SERVERSIM_H

#include "collections/Handles.h"

#include <cstdint>
#include <functional>
#include <string>

namespace chameleon {
struct FaultPlan;
struct ProfilerDegradationStats;
} // namespace chameleon

namespace chameleon::apps {

class TraceCapture;

/// Server simulacrum parameters.
struct ServerSimConfig {
  uint64_t Seed = 0x5E21;
  /// Worker (mutator) threads handling requests.
  uint32_t MutatorThreads = 4;
  /// Epochs; each ends with a quiescent barrier and a forced GC.
  uint32_t Epochs = 3;
  /// Requests per epoch, spread over the sessions round-robin.
  uint32_t RequestsPerEpoch = 240;
  /// Long-lived sessions, each with an attribute map and history list.
  uint32_t Sessions = 16;
  /// History entries kept per session before the oldest is dropped.
  uint32_t HistoryBound = 32;

  /// Chaos mode: for the duration of the run, arm the fault injector with
  /// a randomized plan derived from ChaosSeed (forced GCs at allocation,
  /// injected failures inside live migrations), install the builtin rule
  /// engine behind an OnlineAdaptor so migrations actually happen, and set
  /// a soft heap limit so the degradation path exercises. The run must
  /// survive — aborted migrations roll back, shed events are counted —
  /// and the fault/migration/degradation accounting is returned in
  /// ServerSimResult::ChaosReport (kept out of Report, whose byte-identity
  /// across thread counts is only guaranteed with Chaos off).
  bool Chaos = false;
  /// Seed of the randomized fault plan; print it on failure to replay.
  uint64_t ChaosSeed = 0xC4A05;
  /// Soft heap limit installed for the run (0 = none). The default sits
  /// below the workload's natural live size, so emergency collections fail
  /// to clear it and the profiler's shed mode actually engages.
  uint64_t ChaosSoftHeapLimitBytes = 8 * 1024;

  /// When non-empty, arm the trace recorder for the run and write the
  /// telemetry bundle (trace.json / metrics.json / metrics.prom, DESIGN.md
  /// §11) into this directory at the end. Strictly observational: Report
  /// stays byte-identical to a run without it.
  std::string TelemetryOutDir;
  /// Print a one-line live telemetry ticker to stderr at every epoch
  /// barrier (arms the trace recorder like TelemetryOutDir does).
  bool TelemetryTicker = false;

  /// When non-null, record the run's canonical op stream into this capture
  /// (TraceWorkload.h). The recording is observational — Report stays
  /// byte-identical to an unrecorded run — and costs one null check per
  /// request when disarmed.
  TraceCapture *RecordTo = nullptr;

  /// Decision-ledger mode (DESIGN.md §16): arm the DecisionLog for the run
  /// and, at every epoch barrier (workers parked, per-thread buffers
  /// flushed, the epoch's GC taken), run a main-thread rule-evaluation
  /// pass over every context plus a deterministic migration flip of the
  /// session collections. All ledger-relevant work happens on the main
  /// thread against canonically-ordered post-flush state, so the exported
  /// ledger is byte-identical for any MutatorThreads count (with Chaos
  /// off). The ledger stays armed after the run so the telemetry bundle
  /// and fleet capture include it.
  bool DecisionLedger = false;

  /// When non-empty, install the crash-safe flight recorder at this path
  /// for the run and checkpoint it at every epoch barrier.
  std::string FlightRecorderPath;
};

/// What a run produces.
struct ServerSimResult {
  uint64_t TotalRequests = 0;
  /// Deterministic profiling report: the GC cycle records (without
  /// wall-clock durations) plus canonically-ordered context statistics.
  std::string Report;
  /// Chaos mode only: fault-injection, migration, and degradation
  /// accounting for the run (empty with Chaos off).
  std::string ChaosReport;
};

/// The RuntimeConfig under which the report's byte-identity across
/// MutatorThreads counts is guaranteed: exact sampling and GC only at the
/// epoch barriers. runServerSim switches the profiler into buffered
/// concurrent-mutator mode itself, before any profiled work.
RuntimeConfig serverSimRuntimeConfig();

/// Runs the server simulacrum on \p RT.
ServerSimResult runServerSim(CollectionRuntime &RT,
                             const ServerSimConfig &Config = ServerSimConfig());

/// Renders the deterministic profiling report (GC cycle records plus
/// canonically-ordered context statistics) for a finished run or replay.
/// Call after the final forced GC and harvestLiveStatistics().
std::string buildServerSimReport(CollectionRuntime &RT, uint32_t Sessions,
                                 uint32_t Epochs, uint64_t Requests);

/// The epoch engine of runServerSim and replayTrace (DESIGN.md §14.2).
/// Starts \p Threads workers, each registered through a MutatorScope, that
/// run `WorkerEpoch(Tid, Epoch)` for every epoch and then park in a
/// GcSafeRegion at the epoch barrier. With every worker parked, the main
/// thread flushes the per-thread profiling buffers, forces one collection,
/// calls `OnBarrier(Epoch, RT)` (when set) and releases the next epoch.
/// The barrier is traced as the span `<SpanCategory>/epoch_barrier`, and
/// each epoch's straggler wait — the sum over workers of the time from a
/// worker's arrival to the last arrival — is one sample of
/// cham.apps.barrier_idle_nanos.
void runEpochs(
    CollectionRuntime &RT, uint32_t Threads, uint32_t Epochs,
    const char *SpanCategory,
    const std::function<void(uint32_t Tid, uint32_t Epoch)> &WorkerEpoch,
    const std::function<void(uint32_t Epoch, CollectionRuntime &RT)>
        &OnBarrier);

/// The randomized fault plan of a chaos run or replay, derived entirely
/// from \p Seed so a failing run replays from its printed seed: forced GCs
/// at allocation instants, and injected failures inside migration
/// transactions and in the allocations a shadow build performs.
FaultPlan buildChaosPlan(uint64_t Seed);

/// The accounting lines a chaos run's ChaosReport and a chaos replay's
/// AdaptReport share: `faults:` (the fault injector's totals) and `events:`
/// (the profiler's noted / folded / dropped allocation and death events
/// in \p D).
void appendChaosFaults(std::string &Out);
void appendChaosEvents(std::string &Out, const ProfilerDegradationStats &D);

} // namespace chameleon::apps

#endif // CHAMELEON_APPS_SERVERSIM_H
