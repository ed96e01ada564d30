//===--- perfbench.cpp - The committed end-to-end benchmark ----*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One workload of the repository's benchmark per invocation (README.md
/// next to this file describes the workloads, metrics and layers):
///
///   perfbench --workload offline-apps|replay-zipf|replay-adapt
///             --seed N --seconds S --trace 0|1 [--record FILE]
///             [--plans DIR] [--write-plans]
///
/// The workload is set up several times (the median is `setup_s`), then
/// run in a closed loop of passes for S seconds, or longer while the host
/// steals CPU time (see `measure`). Every pass checks its outputs. With
/// --trace 0 the last stdout line carries the end-to-end
/// metrics; with --trace 1 untraced and traced passes alternate and the
/// last line carries the per-layer metrics measured by the traced ones.
/// Everything else (per-app rows, percentiles with their sample counts,
/// the base counts of every ratio) goes to the human-readable lines above
/// it and to the --record JSON file.
///
/// The benchmark only calls the library's public entry points. Per-layer
/// costs come from a forwarding HeapProfilerHooks that times each call
/// into the SemanticProfiler, from timers around the benchmark's own calls
/// (harvest, rule evaluation, plan building, epoch barriers), from public
/// accessors, and from deltas of the obs registry snapshot.
///
//===----------------------------------------------------------------------===//

#include "apps/AppSpec.h"
#include "apps/TraceWorkload.h"
#include "apps/WorkloadGen.h"
#include "core/OnlineAdaptor.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "support/Format.h"
#include "support/SplitMix64.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace chameleon;
using namespace chameleon::apps;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

uint64_t nanosSince(Clock::time_point Start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           Start)
          .count());
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

/// Nearest-rank quantile of \p Sorted (ascending, non-empty).
double quantileSorted(const std::vector<double> &Sorted, double Q) {
  size_t Rank = static_cast<size_t>(std::ceil(Q * Sorted.size()));
  return Sorted[std::min(Sorted.size(), std::max<size_t>(Rank, 1)) - 1];
}

/// The highest of p99.9/p99/p95/p90/p75/p50 that leaves at least ten
/// samples beyond it.
struct Tail {
  double Percentile = 0.0;
  double Value = 0.0;
  size_t Samples = 0;
};

Tail tailOf(std::vector<double> V) {
  Tail T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    double Beyond = static_cast<double>(V.size()) * (1.0 - P / 100.0);
    if (Beyond >= 10.0 || P == 50.0) {
      T.Percentile = P;
      T.Value = quantileSorted(V, P / 100.0);
      break;
    }
  }
  return T;
}

/// Shortest round-trip spelling of \p X (JSON has no NaN/Inf: those print
/// as 0).
std::string num(double X) {
  if (!std::isfinite(X))
    X = 0.0;
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), X);
  (void)Ec;
  return std::string(Buf, End);
}

std::string quoted(const std::string &S) {
  return "\"" + obs::json::escape(S) + "\"";
}

/// Output checks. Every check counts as attempted; a failed one is printed
/// to stderr and counted in `failed` (fail_ratio = failed / attempted).
struct Checks {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;

  void expect(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      return;
    ++Failed;
    if (Failures.size() < 32)
      Failures.push_back(What);
    std::fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
  }
};

/// -- obs registry deltas ---------------------------------------------------

using Snapshot = std::map<std::string, obs::MetricSnapshot>;

Snapshot takeSnapshot() {
  Snapshot S;
  for (obs::MetricSnapshot &M : obs::MetricsRegistry::instance().snapshot(
           "cham."))
    S.emplace(M.Name, std::move(M));
  return S;
}

uint64_t counterDelta(const Snapshot &Before, const Snapshot &After,
                      const char *Name) {
  auto A = After.find(Name);
  if (A == After.end())
    return 0;
  auto B = Before.find(Name);
  uint64_t Base = B == Before.end() ? 0 : B->second.Value;
  return A->second.Value >= Base ? A->second.Value - Base : 0;
}

/// Median, in microseconds, of the observations the process-wide HDR
/// histogram \p Name took between two snapshots (each at its bucket's
/// upper bound); \p Count receives their number.
double hdrDeltaP50Us(const Snapshot &Before, const Snapshot &After,
                     const char *Name, uint64_t *Count) {
  std::map<uint32_t, uint64_t> Buckets;
  auto A = After.find(Name);
  if (A != After.end())
    for (const auto &[Idx, N] : A->second.HdrBuckets)
      Buckets[Idx] += N;
  auto B = Before.find(Name);
  if (B != Before.end())
    for (const auto &[Idx, N] : B->second.HdrBuckets)
      Buckets[Idx] -= std::min(Buckets[Idx], N);
  std::vector<double> Samples;
  for (const auto &[Idx, N] : Buckets)
    Samples.insert(Samples.end(), N, obs::hdrBucketUpperBound(Idx) * 1e-3);
  *Count = Samples.size();
  return median(Samples);
}

/// -- Tracing ---------------------------------------------------------------

/// Forwards every collector callback to the SemanticProfiler and times it.
/// The heap calls hooks on the collecting thread only, with the world
/// stopped, so plain counters suffice.
class TimedHooks final : public HeapProfilerHooks {
public:
  explicit TimedHooks(HeapProfilerHooks &Inner) : Inner(Inner) {}

  void onLiveCollection(const HeapObject &Obj, const CollectionSizes &Sizes,
                        void *ContextTag) override {
    auto Start = Clock::now();
    Inner.onLiveCollection(Obj, Sizes, ContextTag);
    LiveNanos += nanosSince(Start);
    ++LiveCalls;
  }
  void onCollectionDeath(const HeapObject &Obj, void *ContextTag,
                         void *ObjectInfoTag) override {
    auto Start = Clock::now();
    Inner.onCollectionDeath(Obj, ContextTag, ObjectInfoTag);
    DeathNanos += nanosSince(Start);
    ++DeathCalls;
  }
  void onCycleEnd(const GcCycleRecord &Record) override {
    Inner.onCycleEnd(Record);
  }
  void onStopTheWorld() override {
    auto Start = Clock::now();
    Inner.onStopTheWorld();
    StwNanos += nanosSince(Start);
    ++StwCalls;
  }
  void onHeapPressure(uint64_t BytesInUse, uint64_t SoftLimitBytes) override {
    Inner.onHeapPressure(BytesInUse, SoftLimitBytes);
  }
  void onHeapPressureCleared() override { Inner.onHeapPressureCleared(); }

  uint64_t LiveNanos = 0, LiveCalls = 0;
  uint64_t DeathNanos = 0, DeathCalls = 0;
  uint64_t StwNanos = 0, StwCalls = 0;

private:
  HeapProfilerHooks &Inner;
};

/// The per-layer metrics, in output order. Every workload reports all of
/// them; a layer a workload does not exercise reads 0.
struct LayerMetricDef {
  const char *Name;
  const char *Unit;
};

constexpr LayerMetricDef LayerMetrics[] = {
    {"runtime.gc.cycles", "count"},
    {"runtime.gc.busy_s", "s"},
    {"runtime.gc.live_objects_p50", "objects"},
    {"runtime.gc.ns_per_live_object", "ns/object"},
    {"runtime.gc.pool_tasks", "count"},
    {"runtime.gc.safepoint_stall_p50_us", "us"},
    {"runtime.alloc.objects", "count"},
    {"runtime.alloc.cache_hit_ratio", "ratio"},
    {"runtime.alloc.central_contention", "count"},
    {"runtime.alloc.slot_cache_hit_ratio", "ratio"},
    {"runtime.alloc.locked_fallbacks", "count"},
    {"profiler.context_acquisitions", "count"},
    {"profiler.context_cache_hit_ratio", "ratio"},
    {"profiler.live_hook_s", "s"},
    {"profiler.death_hook_s", "s"},
    {"profiler.stw_flush_s", "s"},
    {"profiler.harvest_s", "s"},
    {"profiler.epoch_flushes", "count"},
    {"profiler.spilled_events", "count"},
    {"collections.ops", "count"},
    {"collections.mutator_ns_per_op", "ns/op"},
    {"collections.migration_attempts", "count"},
    {"collections.migration_commits", "count"},
    {"collections.migration_aborts", "count"},
    {"collections.migration_commit_ratio", "ratio"},
    {"collections.migrate_build_p50_us", "us"},
    {"collections.migrate_verify_p50_us", "us"},
    {"collections.migrate_publish_p50_us", "us"},
    {"rules.evaluate_s", "s"},
    {"rules.build_plan_s", "s"},
    {"rules.evaluations", "count"},
    {"rules.fired", "count"},
    {"rules.fire_ratio", "ratio"},
    {"core.online.evaluations", "count"},
    {"core.online.replacements", "count"},
    {"core.online.evaluations_per_kop", "1/kop"},
    {"core.online.migrations_requested", "count"},
    {"core.online.pinned_contexts", "count"},
    {"apps.epoch_ms_p50", "ms"},
    {"apps.barrier_gc_share", "ratio"},
    {"apps.trace_generate_s", "s"},
    {"apps.reference_replay_s", "s"},
    {"bench.trace_overhead", "ratio"},
};

/// Raw per-layer tallies of one traced pass; `layerValues` turns them
/// into the metrics above.
struct LayerTally {
  uint64_t GcCycles = 0, GcBusyNanos = 0, GcLiveObjects = 0;
  std::vector<double> LiveObjectsPerCycle;
  uint64_t AllocObjects = 0;
  uint64_t ContextAcquisitions = 0, ContextHits = 0, ContextMisses = 0;
  uint64_t LiveHookNanos = 0, DeathHookNanos = 0, StwNanos = 0;
  uint64_t LiveHookCalls = 0, DeathHookCalls = 0, StwCalls = 0;
  uint64_t HarvestNanos = 0, EvaluateNanos = 0, BuildPlanNanos = 0;
  uint64_t Ops = 0, MutatorNanos = 0;
  uint64_t MigrationAttempts = 0, MigrationCommits = 0, MigrationAborts = 0;
  uint64_t OnlineEvaluations = 0, OnlineReplacements = 0;
  uint64_t OnlineRequested = 0, OnlinePinned = 0, OnlineOps = 0;
  std::vector<double> EpochMs;
  uint64_t BarrierGcNanos = 0, ReplayNanos = 0;
  Snapshot Before, After;

  void addHooks(const TimedHooks &H) {
    LiveHookNanos += H.LiveNanos;
    DeathHookNanos += H.DeathNanos;
    StwNanos += H.StwNanos;
    LiveHookCalls += H.LiveCalls;
    DeathHookCalls += H.DeathCalls;
    StwCalls += H.StwCalls;
  }

  void addHeap(const GcHeap &Heap) {
    GcCycles += Heap.cycleCount();
    for (const GcCycleRecord &R : Heap.cycles()) {
      GcBusyNanos += R.DurationNanos;
      GcLiveObjects += R.LiveObjects;
      LiveObjectsPerCycle.push_back(static_cast<double>(R.LiveObjects));
    }
    AllocObjects += Heap.totalAllocatedObjects();
  }

  void addProfiler(const SemanticProfiler &P) {
    ContextAcquisitions += P.contextAcquisitions();
    ContextHits += P.contextCacheHits();
    ContextMisses += P.contextCacheMisses();
  }

  void addMigrations(const CollectionRuntime &RT) {
    MigrationAttempts += RT.migrationAttempts();
    MigrationCommits += RT.migrationCommits();
    MigrationAborts += RT.migrationAborts();
  }
};

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

/// One metric value with its base, for the human-readable listing.
struct LayerValue {
  double Value = 0.0;
  std::string Base;
};

std::map<std::string, LayerValue> layerValues(const LayerTally &T) {
  std::map<std::string, LayerValue> V;
  auto Put = [&](const char *Name, double X, std::string Base = {}) {
    V[Name] = {X, std::move(Base)};
  };
  auto Delta = [&](const char *Name) {
    return counterDelta(T.Before, T.After, Name);
  };
  auto Of = [](const char *What, uint64_t N) {
    return std::string(What) + "=" + std::to_string(N);
  };

  Put("runtime.gc.cycles", T.GcCycles);
  Put("runtime.gc.busy_s", T.GcBusyNanos * 1e-9, Of("cycles", T.GcCycles));
  Put("runtime.gc.live_objects_p50", median(T.LiveObjectsPerCycle),
      Of("cycles", T.GcCycles));
  Put("runtime.gc.ns_per_live_object", ratio(T.GcBusyNanos, T.GcLiveObjects),
      Of("live_objects_marked", T.GcLiveObjects));
  Put("runtime.gc.pool_tasks", Delta("cham.gc.pool_tasks"));
  uint64_t Stalls = 0;
  Put("runtime.gc.safepoint_stall_p50_us",
      hdrDeltaP50Us(T.Before, T.After, "cham.gc.safepoint_stall_hdr_nanos",
                    &Stalls),
      Of("stalls", Stalls));
  Put("runtime.alloc.objects", T.AllocObjects);
  uint64_t Hits = Delta("cham.alloc.cache_hits");
  uint64_t Misses = Delta("cham.alloc.cache_misses");
  Put("runtime.alloc.cache_hit_ratio", ratio(Hits, Hits + Misses),
      Of("hits", Hits) + " " + Of("misses", Misses));
  Put("runtime.alloc.central_contention",
      Delta("cham.alloc.central_contention"));
  uint64_t SlotHits = Delta("cham.alloc.slot_cache_hits");
  Put("runtime.alloc.slot_cache_hit_ratio", ratio(SlotHits, T.AllocObjects),
      Of("slot_cache_hits", SlotHits) + " " +
          Of("allocations", T.AllocObjects));
  Put("runtime.alloc.locked_fallbacks", Delta("cham.alloc.locked_fallbacks"));

  Put("profiler.context_acquisitions", T.ContextAcquisitions);
  Put("profiler.context_cache_hit_ratio",
      ratio(T.ContextHits, T.ContextHits + T.ContextMisses),
      Of("hits", T.ContextHits) + " " + Of("misses", T.ContextMisses));
  Put("profiler.live_hook_s", T.LiveHookNanos * 1e-9,
      Of("calls", T.LiveHookCalls));
  Put("profiler.death_hook_s", T.DeathHookNanos * 1e-9,
      Of("calls", T.DeathHookCalls));
  Put("profiler.stw_flush_s", T.StwNanos * 1e-9, Of("calls", T.StwCalls));
  Put("profiler.harvest_s", T.HarvestNanos * 1e-9);
  Put("profiler.epoch_flushes", Delta("cham.profiler.epoch_flushes"));
  Put("profiler.spilled_events", Delta("cham.profiler.spilled_events"));

  Put("collections.ops", T.Ops);
  Put("collections.mutator_ns_per_op", ratio(T.MutatorNanos, T.Ops),
      Of("ops", T.Ops));
  Put("collections.migration_attempts", T.MigrationAttempts);
  Put("collections.migration_commits", T.MigrationCommits);
  Put("collections.migration_aborts", T.MigrationAborts);
  Put("collections.migration_commit_ratio",
      ratio(T.MigrationCommits, T.MigrationAttempts),
      Of("attempts", T.MigrationAttempts));
  const char *Phases[][2] = {
      {"collections.migrate_build_p50_us",
       "cham.collections.migrate_build_nanos"},
      {"collections.migrate_verify_p50_us",
       "cham.collections.migrate_verify_nanos"},
      {"collections.migrate_publish_p50_us",
       "cham.collections.migrate_publish_nanos"}};
  for (const auto &P : Phases) {
    uint64_t N = 0;
    double P50 = hdrDeltaP50Us(T.Before, T.After, P[1], &N);
    Put(P[0], P50, Of("samples", N));
  }

  Put("rules.evaluate_s", T.EvaluateNanos * 1e-9);
  Put("rules.build_plan_s", T.BuildPlanNanos * 1e-9);
  uint64_t Evals = Delta("cham.rules.evaluations");
  uint64_t Fired = Delta("cham.rules.fired");
  Put("rules.evaluations", Evals);
  Put("rules.fired", Fired);
  Put("rules.fire_ratio", ratio(Fired, Evals), Of("evaluations", Evals));

  Put("core.online.evaluations", T.OnlineEvaluations);
  Put("core.online.replacements", T.OnlineReplacements);
  Put("core.online.evaluations_per_kop",
      ratio(T.OnlineEvaluations, T.OnlineOps / 1000.0),
      Of("ops", T.OnlineOps));
  Put("core.online.migrations_requested", T.OnlineRequested);
  Put("core.online.pinned_contexts", T.OnlinePinned);

  Put("apps.epoch_ms_p50", median(T.EpochMs),
      Of("epochs", T.EpochMs.size()));
  Put("apps.barrier_gc_share", ratio(T.BarrierGcNanos, T.ReplayNanos));
  return V;
}

/// Collection ops folded into a profiler's contexts (every instance is
/// folded once the run harvested its live collections).
uint64_t foldedOps(const SemanticProfiler &P) {
  double Sum = 0;
  for (const ContextInfo *Info : P.contexts())
    for (unsigned I = 0; I < NumOpKinds; ++I)
      if (countsTowardAllOps(static_cast<OpKind>(I)))
        Sum += Info->totalOps(static_cast<OpKind>(I));
  return static_cast<uint64_t>(Sum);
}

/// -- Options and results ---------------------------------------------------

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string RecordPath;
  std::string PlansDir = "perfbench/expected_plans";
  bool WritePlans = false;
};

/// The host's CPU time counters (/proc/stat, all CPUs), to tell how much
/// time the hypervisor stole from this machine while a pass ran. Reads
/// zero where /proc/stat is unavailable, which disables the filter below.
struct CpuTicks {
  uint64_t Steal = 0, Total = 0;

  static CpuTicks now() {
    CpuTicks T;
    std::ifstream In("/proc/stat");
    std::string Cpu;
    In >> Cpu;
    uint64_t V = 0;
    for (int Field = 0; Cpu == "cpu" && Field < 8 && In >> V; ++Field) {
      T.Total += V;
      if (Field == 7)
        T.Steal = V;
    }
    return T;
  }

  /// Share of the CPU time since \p Start that was stolen.
  double stealShareSince(const CpuTicks &Start) const {
    return Total > Start.Total
               ? static_cast<double>(Steal - Start.Steal) /
                     static_cast<double>(Total - Start.Total)
               : 0.0;
  }
};

/// A pass during which the hypervisor stole more than this share of the
/// machine's CPU time measures the host, not the program (on the
/// reference host quiet periods read under 1%, contended ones 3-16%).
constexpr double MaxStealShare = 0.02;

/// Everything one untraced pass measured.
///
/// A pass is a fixed sequence of segments (offline-apps: each app's four
/// runs; replays: each epoch up to and including its barrier GC, then the
/// tail), and collects at a fixed sequence of cycle positions (a
/// segment's n-th GC cycle).
struct PassSample {
  double Seconds = 0.0;
  double AllocBytes = 0.0, PeakLiveBytes = 0.0;
  double StealShare = 0.0;
  std::vector<std::pair<std::string, double>> Segments;
  std::vector<std::pair<std::string, double>> PausesMs;
  /// Workload-specific values (profile_s, ops, ...).
  std::map<std::string, double> Extra;
  /// Per-app rows (offline-apps): app -> field -> value.
  std::map<std::string, std::map<std::string, double>> Apps;

  /// Records one segment and the GC cycles it ran.
  void addSegment(const std::string &Key, double Secs,
                  const std::vector<GcCycleRecord> &Cycles) {
    Segments.emplace_back(Key, Secs);
    for (size_t I = 0; I < Cycles.size(); ++I)
      PausesMs.emplace_back(Key + "#" + std::to_string(I),
                            Cycles[I].DurationNanos * 1e-6);
  }
};

/// Everything one invocation measured.
///
/// The end-to-end metrics come from the measured passes: the quiet ones
/// (steal share at most MaxStealShare), or, when fewer than MinPasses
/// were quiet, the MinPasses least disturbed. `pass_s` is the sum over
/// segments of each segment's median across them, and `gc_pause_p50_ms`
/// the median over cycle positions of each position's median pause: the
/// time of a typical pass and the pause of a typical cycle, which a
/// one-off stall does not move. (A plain median over the pooled pauses of
/// a replay falls in the gap between its small early-epoch and large
/// late-epoch cycles.)
struct Results {
  static constexpr size_t MinPasses = 3;

  Checks Check;
  std::vector<double> SetupSeconds;
  std::vector<PassSample> Passes;
  /// Traced passes (trace mode only).
  std::vector<double> TracedPassSeconds;
  std::vector<std::map<std::string, LayerValue>> Layers;
  /// Set-up components reported as per-layer metrics (replays).
  double TraceGenerateSeconds = 0.0, ReferenceReplaySeconds = 0.0;

  std::vector<const PassSample *> measured() const {
    std::vector<const PassSample *> All, Quiet;
    for (const PassSample &P : Passes) {
      All.push_back(&P);
      if (P.StealShare <= MaxStealShare)
        Quiet.push_back(&P);
    }
    if (Quiet.size() >= MinPasses)
      return Quiet;
    std::stable_sort(All.begin(), All.end(),
                     [](const PassSample *A, const PassSample *B) {
                       return A->StealShare < B->StealShare;
                     });
    All.resize(std::min(All.size(), MinPasses));
    return All;
  }

  /// Medians across the measured passes of per-pass keyed values.
  template <typename KeyedFn>
  std::map<std::string, double> keyedMedians(KeyedFn &&Keyed) const {
    std::map<std::string, std::vector<double>> Samples;
    for (const PassSample *P : measured())
      for (const auto &[Key, Value] : Keyed(*P))
        Samples[Key].push_back(Value);
    std::map<std::string, double> Out;
    for (const auto &[Key, V] : Samples)
      Out[Key] = median(V);
    return Out;
  }

  double passSeconds() const {
    double Sum = 0;
    for (const auto &[Key, Median] :
         keyedMedians([](const PassSample &P) { return P.Segments; }))
      Sum += Median;
    return Sum;
  }

  double typicalPauseMs() const {
    std::vector<double> PerPosition;
    for (const auto &[Key, Median] :
         keyedMedians([](const PassSample &P) { return P.PausesMs; }))
      PerPosition.push_back(Median);
    return median(PerPosition);
  }

  /// Median across the measured passes of one per-pass value.
  double medianOf(double PassSample::*Field) const {
    std::vector<double> V;
    for (const PassSample *P : measured())
      V.push_back(P->*Field);
    return median(V);
  }

  std::vector<double> pausesMs() const {
    std::vector<double> V;
    for (const PassSample *P : measured())
      for (const auto &[Key, Ms] : P->PausesMs)
        V.push_back(Ms);
    return V;
  }
};

/// The pass loop: untraced passes (in trace mode each followed by a
/// traced one) for the time budget and at least MinPasses. A pass that
/// ran while the host was stealing CPU is kept but not measured; while
/// fewer than MinPasses were quiet, the loop goes on for up to
/// ExtraSeconds more, which outlasts most contended windows seen on the
/// reference host and keeps a run far below its time limit.
template <typename PassFn>
void measure(const Options &Opt, Results &R, PassFn &&Pass) {
  constexpr double ExtraSeconds = 30.0;
  auto Start = Clock::now();
  size_t Quiet = 0;
  for (;;) {
    double Elapsed = secondsSince(Start);
    bool Enough = R.Passes.size() >= Results::MinPasses &&
                  Elapsed >= Opt.Seconds;
    if (Enough && (Quiet >= Results::MinPasses ||
                   Elapsed >= Opt.Seconds + ExtraSeconds))
      break;
    PassSample Sample;
    CpuTicks Before = CpuTicks::now();
    Pass(&Sample);
    Sample.StealShare = CpuTicks::now().stealShareSince(Before);
    Quiet += Sample.StealShare <= MaxStealShare;
    R.Passes.push_back(std::move(Sample));
    if (Opt.Trace)
      Pass(nullptr);
  }
}

/// -- offline-apps ------------------------------------------------------------

constexpr uint64_t SampleBytes = 128 * 1024;
constexpr unsigned GcWorkers = 4;

struct PaperRow {
  const char *Name;
  const char *Fig7; // fixed runtime, % of original
  const char *Sec54; // online slowdown
};

constexpr PaperRow PaperRows[] = {
    {"bloat", "~95%", "noticeable"}, {"fop", "~98%", "noticeable"},
    {"findbugs", "~95%", "noticeable"}, {"pmd", "91.7%", "~6x"},
    {"soot", "89.0%", "noticeable"}, {"tvla", "38.8%", "~1.35x"}};

/// Stable text form of a replacement plan: one decision per line, sorted
/// by context label.
std::string renderPlan(const ReplacementPlan &Plan) {
  std::vector<std::string> Lines;
  for (const auto &[Label, D] : Plan.decisions())
    Lines.push_back(Label + "\t" + (D.Impl ? implKindName(*D.Impl) : "-") +
                    "\t" +
                    (D.Capacity ? std::to_string(*D.Capacity) : "-"));
  std::sort(Lines.begin(), Lines.end());
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

std::string planPath(const Options &Opt, const std::string &App) {
  return Opt.PlansDir + "/" + App + ".plan";
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

ChameleonConfig offlineConfig() {
  ChameleonConfig C;
  C.Runtime.GcThreads = GcWorkers;
  C.ProfileGcSampleBytes = SampleBytes;
  return C;
}

enum class RunKind { Original, Profile, Fixed, Online };

const char *runKindName(RunKind Kind) {
  switch (Kind) {
  case RunKind::Original:
    return "original";
  case RunKind::Profile:
    return "profile";
  case RunKind::Fixed:
    return "fixed_run";
  case RunKind::Online:
    return "online";
  }
  return "?";
}

/// An untraced run through the Chameleon facade.
RunResult facadeRun(Chameleon &Tool, const AppSpec &App, RunKind Kind,
                    const ReplacementPlan *Plan) {
  switch (Kind) {
  case RunKind::Original:
  case RunKind::Fixed:
    return Tool.run(App.Run, Plan, App.ProfileHeapLimit);
  case RunKind::Profile:
    return Tool.profile(App.Run, App.ProfileHeapLimit);
  case RunKind::Online:
    return Tool.profileOnline(App.Run, App.ProfileHeapLimit);
  }
  return RunResult();
}

/// A traced run driven on a CollectionRuntime of its own, configured the
/// way the Chameleon facade configures the same kind of run.
RunResult tracedRun(const AppSpec &App, RunKind Kind,
                    const ReplacementPlan *Plan, rules::RuleEngine &Engine,
                    LayerTally &T) {
  ChameleonConfig Tool = offlineConfig();
  RuntimeConfig C = Tool.Runtime;
  C.HeapLimitBytes = App.ProfileHeapLimit;
  if (Kind == RunKind::Profile || Kind == RunKind::Online) {
    C.GcSampleEveryBytes = Kind == RunKind::Online
                               ? Tool.ProfileGcSampleBytes * 4
                               : Tool.ProfileGcSampleBytes;
  } else {
    C.ObjectInfoSimBytes = 0;
    C.GcSampleEveryBytes = 0;
  }
  CollectionRuntime RT(C);
  if (Plan)
    RT.plan() = *Plan;
  std::optional<OnlineAdaptor> Adaptor;
  if (Kind == RunKind::Online) {
    Adaptor.emplace(Engine, RT.profiler());
    RT.setOnlineSelector(&*Adaptor);
  }
  TimedHooks Hooks(RT.profiler());
  RT.heap().setProfilerHooks(&Hooks);

  auto Start = Clock::now();
  App.Run(RT);
  RunResult Result;
  Result.Seconds = secondsSince(Start);
  auto HarvestStart = Clock::now();
  RT.harvestLiveStatistics();
  T.HarvestNanos += nanosSince(HarvestStart);
  if (Kind == RunKind::Profile) {
    auto EvalStart = Clock::now();
    std::vector<rules::Suggestion> Suggs = Engine.evaluate(RT.profiler());
    T.EvaluateNanos += nanosSince(EvalStart);
    auto PlanStart = Clock::now();
    Result.Plan = rules::RuleEngine::buildPlan(Suggs);
    T.BuildPlanNanos += nanosSince(PlanStart);
  }
  RT.heap().setProfilerHooks(&RT.profiler());

  Result.Completed = !RT.heap().outOfMemory();
  Result.TotalAllocatedBytes = RT.heap().totalAllocatedBytes();
  for (const GcCycleRecord &Rec : RT.heap().cycles())
    Result.GcNanos += Rec.DurationNanos;
  T.addHooks(Hooks);
  T.addHeap(RT.heap());
  T.addProfiler(RT.profiler());
  T.addMigrations(RT);
  if (Kind == RunKind::Profile) {
    uint64_t Ops = foldedOps(RT.profiler());
    T.Ops += Ops;
    uint64_t Wall = static_cast<uint64_t>(Result.Seconds * 1e9);
    T.MutatorNanos += Wall > Result.GcNanos ? Wall - Result.GcNanos : 0;
  }
  if (Adaptor) {
    T.OnlineEvaluations += Adaptor->evaluations();
    T.OnlineReplacements += Adaptor->replacements();
    T.OnlineRequested += Adaptor->migrationsRequested();
    T.OnlinePinned += Adaptor->pinnedContexts();
    T.OnlineOps += foldedOps(RT.profiler());
    RT.setOnlineSelector(nullptr);
  }
  return Result;
}

/// Max LiveBytes of a deterministic plan-applied run sampled every 128 KiB
/// (the Fig. 6 proxy), outside every timed measurement.
uint64_t peakLiveOfFixed(const AppSpec &App, const ReplacementPlan &Plan) {
  RuntimeConfig C = offlineConfig().Runtime;
  C.HeapLimitBytes = App.ProfileHeapLimit;
  C.ObjectInfoSimBytes = 0;
  C.GcSampleEveryBytes = SampleBytes;
  CollectionRuntime RT(C);
  RT.plan() = Plan;
  App.Run(RT);
  uint64_t Peak = 0;
  for (const GcCycleRecord &Rec : RT.heap().cycles())
    Peak = std::max(Peak, Rec.LiveBytes);
  return Peak;
}

int runOfflineApps(const Options &Opt, Results &R) {
  const std::vector<AppSpec> &Apps = allApps();
  std::map<std::string, std::string> Expected;
  std::map<std::string, uint64_t> OriginalAlloc, PeakLive;

  // Set-up: the expected plans, each app's original allocation volume and
  // its Fig. 6 proxy; the runs double as the warm-up.
  constexpr int SetupReps = 3;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    auto Start = Clock::now();
    Chameleon Tool(offlineConfig());
    for (const AppSpec &App : Apps) {
      RunResult Orig = Tool.run(App.Run, nullptr, App.ProfileHeapLimit);
      RunResult Prof = Tool.profile(App.Run, App.ProfileHeapLimit);
      std::string Plan = renderPlan(Prof.Plan);
      if (Opt.WritePlans) {
        std::ofstream(planPath(Opt, App.Name), std::ios::binary) << Plan;
        continue;
      }
      if (Rep == 0) {
        std::string Want;
        R.Check.expect(readFile(planPath(Opt, App.Name), Want),
                       "expected plan file " + planPath(Opt, App.Name));
        Expected[App.Name] = Want;
      }
      R.Check.expect(Orig.Completed && Prof.Completed,
                     App.Name + ": set-up runs complete without OOM");
      R.Check.expect(Plan == Expected[App.Name],
                     App.Name + ": set-up plan matches the expected plan");
      OriginalAlloc[App.Name] = Orig.TotalAllocatedBytes;
      PeakLive[App.Name] = peakLiveOfFixed(App, Prof.Plan);
    }
    R.SetupSeconds.push_back(secondsSince(Start));
    if (Opt.WritePlans) {
      std::printf("wrote %zu plans to %s\n", Apps.size(),
                  Opt.PlansDir.c_str());
      return 0;
    }
  }

  SplitMix64 Rng(Opt.Seed);
  std::vector<size_t> Order(Apps.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;

  Chameleon Tool(offlineConfig());
  // Untraced when Sample is set, traced otherwise.
  auto Pass = [&](PassSample *Sample) {
    bool Traced = !Sample;
    // The seed fixes the order the apps run in, pass by pass.
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
    LayerTally T;
    T.Before = takeSnapshot();
    double PassSeconds = 0;
    std::map<std::string, double> KindSeconds;
    uint64_t Alloc = 0, Peak = 0;
    for (size_t Idx : Order) {
      const AppSpec &App = Apps[Idx];
      std::map<RunKind, RunResult> Runs;
      for (RunKind Kind : {RunKind::Original, RunKind::Profile,
                           RunKind::Fixed, RunKind::Online}) {
        const ReplacementPlan *Plan =
            Kind == RunKind::Fixed ? &Runs[RunKind::Profile].Plan : nullptr;
        auto Start = Clock::now();
        RunResult Res = Traced ? tracedRun(App, Kind, Plan, Tool.engine(), T)
                               : facadeRun(Tool, App, Kind, Plan);
        double Seconds = secondsSince(Start);
        PassSeconds += Seconds;
        std::string Metric = std::string(runKindName(Kind)) + "_s";
        KindSeconds[Metric] += Seconds;
        if (Sample) {
          Sample->addSegment(App.Name + "/" + Metric, Seconds, Res.Cycles);
          Sample->Apps[App.Name][Metric] = Seconds;
        }
        Runs[Kind] = std::move(Res);
      }
      const RunResult &Fixed = Runs[RunKind::Fixed];
      bool AllCompleted = true;
      for (const auto &[Kind, Res] : Runs)
        AllCompleted &= Res.Completed;
      R.Check.expect(AllCompleted,
                     App.Name + ": every run completes without OOM");
      R.Check.expect(renderPlan(Runs[RunKind::Profile].Plan) ==
                         Expected[App.Name],
                     App.Name + ": plan matches the expected plan");
      R.Check.expect(Fixed.TotalAllocatedBytes <= OriginalAlloc[App.Name],
                     App.Name + ": fixed program allocates no more than the "
                                "original");
      Alloc += Fixed.TotalAllocatedBytes;
      Peak += PeakLive[App.Name];
      if (Traced)
        continue;
      auto &Row = Sample->Apps[App.Name];
      Row["alloc_bytes_before"] = OriginalAlloc[App.Name];
      Row["alloc_bytes_after"] = Fixed.TotalAllocatedBytes;
      Row["peak_live_bytes_after"] = PeakLive[App.Name];
    }
    if (Traced) {
      T.After = takeSnapshot();
      R.TracedPassSeconds.push_back(PassSeconds);
      R.Layers.push_back(layerValues(T));
      return;
    }
    Sample->Seconds = PassSeconds;
    Sample->AllocBytes = Alloc;
    Sample->PeakLiveBytes = Peak;
    for (const auto &[Metric, Seconds] : KindSeconds)
      Sample->Extra[Metric] = Seconds;
  };
  measure(Opt, R, Pass);
  return 0;
}

/// -- replay-zipf / replay-adapt ------------------------------------------------

int runReplay(const Options &Opt, Results &R, bool Adapt) {
  const char *Generator = Adapt ? "phase-shift" : "zipf";
  const WorkloadGenerator *Gen = findWorkloadGenerator(Generator);
  if (!Gen) {
    std::fprintf(stderr, "perfbench: generator %s missing\n", Generator);
    return 2;
  }
  WorkloadGenConfig GenConfig;
  applyWorkloadScale(WorkloadScale::Large, GenConfig);
  GenConfig.Seed = Opt.Seed;

  ReplayConfig Config;
  Config.MutatorThreads = 4;
  Config.OnlineAdapt = Adapt;
  RuntimeConfig RC = traceReplayRuntimeConfig(Config);
  RC.GcThreads = GcWorkers;

  // One replay on a fresh runtime; returns its wall seconds. A measured
  // untraced replay (Sample set) records only a timestamp per epoch
  // barrier, the segment boundaries of the pass; a traced one (Tally set)
  // feeds the per-layer tally.
  auto Replay = [&](const Trace &T, ReplayConfig C, ReplayResult &Out,
                    PassSample *Sample, LayerTally *Tally) {
    CollectionRuntime RT(RC);
    std::optional<TimedHooks> Hooks;
    if (Tally) {
      Hooks.emplace(RT.profiler());
      RT.heap().setProfilerHooks(&*Hooks);
    }
    std::vector<Clock::time_point> Marks;
    Marks.reserve(T.Header.Epochs + 2);
    C.OnEpochBarrier = [&](uint32_t Epoch, CollectionRuntime &) {
      Marks.push_back(Clock::now());
      // The adaptor lives inside replayTrace; read its counters from the
      // registry while it is still registered.
      if (Tally && Adapt && Epoch + 1 == T.Header.Epochs) {
        Snapshot S = takeSnapshot();
        Tally->OnlineEvaluations +=
            counterDelta({}, S, "cham.online.evaluations");
        Tally->OnlineReplacements +=
            counterDelta({}, S, "cham.online.replacements");
      }
    };
    Marks.push_back(Clock::now());
    Out = replayTrace(RT, T, C);
    Marks.push_back(Clock::now());
    double Seconds =
        std::chrono::duration<double>(Marks.back() - Marks.front()).count();
    if (Tally)
      RT.heap().setProfilerHooks(&RT.profiler());

    std::string HeapError;
    bool HeapOk = RT.heap().verifyHeap(&HeapError);
    R.Check.expect(Out.Ok, std::string(Generator) + ": replay ok " +
                               Out.Error);
    R.Check.expect(HeapOk, std::string(Generator) + ": verifyHeap " +
                               HeapError);
    if (Adapt) {
      R.Check.expect(Out.MigrationsRequested ==
                         Out.MigrationsCommitted + Out.MigrationsAborted,
                     "phase-shift: migrations requested = committed + "
                     "aborted");
      R.Check.expect(Out.MigrationsCommitted >= 2,
                     "phase-shift: at least 2 migrations committed");
      R.Check.expect(RT.usesAfterRetire() == 0 && RT.doubleRetires() == 0,
                     "phase-shift: no use after retire, no double retire");
    }
    const std::vector<GcCycleRecord> &Cycles = RT.heap().cycles();
    if (Sample) {
      // Segment I ends at barrier I (and holds its GC); the last one is
      // the tail after the final barrier.
      for (size_t I = 1; I < Marks.size(); ++I) {
        bool Tail = I + 1 == Marks.size();
        std::vector<GcCycleRecord> Cycle;
        if (!Tail && I - 1 < Cycles.size())
          Cycle.push_back(Cycles[I - 1]);
        Sample->addSegment(
            Tail ? "tail" : "epoch" + std::to_string(I - 1),
            std::chrono::duration<double>(Marks[I] - Marks[I - 1]).count(),
            Cycle);
      }
      uint64_t Peak = 0;
      for (const GcCycleRecord &Rec : Cycles)
        Peak = std::max(Peak, Rec.LiveBytes);
      Sample->Seconds = Seconds;
      Sample->AllocBytes = RT.heap().totalAllocatedBytes();
      Sample->PeakLiveBytes = Peak;
      Sample->Extra["ops"] = Out.Ops;
    }
    if (!Tally)
      return Seconds;
    for (size_t I = 1; I + 1 < Marks.size(); ++I)
      Tally->EpochMs.push_back(
          std::chrono::duration<double, std::milli>(Marks[I] - Marks[I - 1])
              .count());
    Tally->addHooks(*Hooks);
    Tally->addHeap(RT.heap());
    Tally->addProfiler(RT.profiler());
    Tally->addMigrations(RT);
    Tally->Ops += Out.Ops;
    uint64_t Wall = static_cast<uint64_t>(Seconds * 1e9);
    Tally->ReplayNanos += Wall;
    for (const GcCycleRecord &Rec : Cycles)
      if (Rec.Forced)
        Tally->BarrierGcNanos += Rec.DurationNanos;
    Tally->MutatorNanos +=
        Wall > Tally->GcBusyNanos ? Wall - Tally->GcBusyNanos : 0;
    Tally->OnlineRequested += Out.MigrationsRequested;
    Tally->OnlinePinned += Out.PinnedContexts;
    if (Adapt)
      Tally->OnlineOps += Out.Ops;
    return Seconds;
  };

  // Set-up: generate the trace, take the 1-thread reference report
  // (replay-zipf), and warm up with one measured-shape replay.
  Trace T;
  std::string Reference;
  constexpr int SetupReps = 2;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    auto Start = Clock::now();
    T = Gen->Generate(GenConfig);
    R.TraceGenerateSeconds = secondsSince(Start);
    if (!Adapt) {
      auto RefStart = Clock::now();
      ReplayConfig RefConfig = Config;
      RefConfig.MutatorThreads = 1;
      CollectionRuntime RT(RC);
      ReplayResult Ref = replayTrace(RT, T, RefConfig);
      R.ReferenceReplaySeconds = secondsSince(RefStart);
      R.Check.expect(Ref.Ok, "zipf: reference replay ok " + Ref.Error);
      Reference = Ref.Report;
    }
    ReplayResult Warm;
    Replay(T, Config, Warm, nullptr, nullptr);
    R.SetupSeconds.push_back(secondsSince(Start));
  }

  // Untraced when Sample is set, traced otherwise.
  auto Pass = [&](PassSample *Sample) {
    ReplayResult Out;
    LayerTally Tally;
    Tally.Before = takeSnapshot();
    double Seconds = Replay(T, Config, Out, Sample, Sample ? nullptr : &Tally);
    if (!Adapt)
      R.Check.expect(Out.Report == Reference,
                     "zipf: report byte-identical to the 1-thread reference");
    if (!Sample) {
      Tally.After = takeSnapshot();
      R.TracedPassSeconds.push_back(Seconds);
      R.Layers.push_back(layerValues(Tally));
    }
  };
  measure(Opt, R, Pass);
  return 0;
}

/// -- Output ----------------------------------------------------------------

struct EndToEnd {
  const char *Name;
  const char *Unit;
};

/// The gated metrics of BENCHMARK.json, reported by every workload.
constexpr EndToEnd EndToEndMetrics[] = {
    {"setup_s", "s"},          {"pass_s", "s"},
    {"gc_pause_p50_ms", "ms"}, {"alloc_bytes", "B"},
    {"peak_live_bytes", "B"},
};

double endToEndValue(const Results &R, const std::string &Name) {
  if (Name == "setup_s")
    return median(R.SetupSeconds);
  if (Name == "pass_s")
    return R.passSeconds();
  if (Name == "gc_pause_p50_ms")
    return R.typicalPauseMs();
  if (Name == "alloc_bytes")
    return R.medianOf(&PassSample::AllocBytes);
  return R.medianOf(&PassSample::PeakLiveBytes);
}

/// A reported, ungated metric (README.md "Workload-specific metrics").
struct Reported {
  std::string Name;
  double Value;
  std::string Unit;
  std::string Samples;
};

std::vector<Reported> reportedMetrics(const Results &R) {
  std::vector<Reported> Out;
  size_t Measured = R.measured().size();
  std::string Passes = std::to_string(Measured) + " passes";
  std::map<std::string, double> Extra = R.keyedMedians(
      [](const PassSample &P) { return P.Extra; });
  for (const auto &[Name, Value] : Extra)
    Out.push_back({Name, Value, Name == "ops" ? "op" : "s", Passes});
  if (Extra.count("ops"))
    Out.push_back({"ops_per_s", Extra["ops"] / R.passSeconds(), "op/s",
                   "ops / pass_s"});
  Tail T = tailOf(R.pausesMs());
  Out.push_back({"gc_pause_tail_ms", T.Value, "ms",
                 "p" + num(T.Percentile) + " of " + std::to_string(T.Samples) +
                     " cycles"});
  Out.push_back({"fail_ratio", ratio(R.Check.Failed, R.Check.Attempted), "1",
                 std::to_string(R.Check.Attempted) + " checks"});
  Out.push_back({"passes_disturbed", double(R.Passes.size() - Measured),
                 "count",
                 std::to_string(R.Passes.size()) + " passes, steal > " +
                     num(MaxStealShare * 100) + "%"});
  return Out;
}

/// Per-app medians across the measured passes: app -> field -> value.
std::map<std::string, std::map<std::string, double>>
appRows(const Results &R) {
  std::map<std::string, std::map<std::string, double>> Rows;
  for (const auto &[Key, Value] : R.keyedMedians([](const PassSample &P) {
         std::vector<std::pair<std::string, double>> Flat;
         for (const auto &[App, Fields] : P.Apps)
           for (const auto &[Field, V] : Fields)
             Flat.emplace_back(App + "\t" + Field, V);
         return Flat;
       })) {
    size_t Tab = Key.find('\t');
    Rows[Key.substr(0, Tab)][Key.substr(Tab + 1)] = Value;
  }
  return Rows;
}

std::string samplesJson(const std::vector<double> &V) {
  std::string Out = "[";
  for (size_t I = 0; I < V.size(); ++I)
    Out += (I ? ", " : "") + num(V[I]);
  return Out + "]";
}

void printHuman(const Options &Opt, const Results &R) {
  std::printf("perfbench %s seed=%llu seconds=%s trace=%d build=\"%s\"\n",
              Opt.Workload.c_str(),
              static_cast<unsigned long long>(Opt.Seed),
              num(Opt.Seconds).c_str(), Opt.Trace ? 1 : 0,
              PERFBENCH_BUILD_FLAGS);
  std::vector<const PassSample *> Measured = R.measured();
  std::string Passes = std::to_string(Measured.size()) + " passes";
  size_t Segments = Measured.empty() ? 0 : Measured[0]->Segments.size();
  size_t Positions = Measured.empty() ? 0 : Measured[0]->PausesMs.size();
  std::string Sizes[] = {
      std::to_string(R.SetupSeconds.size()) + " set-ups",
      std::to_string(Segments) + " segments x " + Passes,
      std::to_string(Positions) + " positions x " + Passes, Passes, Passes};
  TextTable E2E({"end-to-end metric (gated)", "value", "unit", "samples"});
  size_t I = 0;
  for (const EndToEnd &M : EndToEndMetrics)
    E2E.addRow({M.Name, num(endToEndValue(R, M.Name)), M.Unit, Sizes[I++]});
  std::printf("%s", E2E.render().c_str());
  TextTable Rep({"reported metric", "value", "unit", "samples"});
  for (const Reported &M : reportedMetrics(R))
    Rep.addRow({M.Name, num(M.Value), M.Unit, M.Samples});
  std::printf("%s", Rep.render().c_str());

  auto Rows = appRows(R);
  if (Rows.empty())
    return;
  TextTable Table({"app", "profile_s", "fixed_run_s", "online_s",
                   "original_s", "fixed/orig", "paper Fig.7", "online/orig",
                   "paper 5.4", "alloc before", "alloc after",
                   "peak live after"});
  for (const PaperRow &P : PaperRows) {
    std::map<std::string, double> &Row = Rows[P.Name];
    auto Bytes = [&](const char *F) {
      return std::to_string(static_cast<uint64_t>(Row[F]));
    };
    Table.addRow({P.Name, formatDouble(Row["profile_s"], 4),
                  formatDouble(Row["fixed_run_s"], 4),
                  formatDouble(Row["online_s"], 4),
                  formatDouble(Row["original_s"], 4),
                  formatPercent(Row["fixed_run_s"] / Row["original_s"]),
                  P.Fig7,
                  formatDouble(Row["online_s"] / Row["original_s"], 2) + "x",
                  P.Sec54, Bytes("alloc_bytes_before"),
                  Bytes("alloc_bytes_after"), Bytes("peak_live_bytes_after")});
  }
  std::printf("%s", Table.render().c_str());
}

/// The per-layer metrics: median over traced passes; the base shown is the
/// last traced pass's.
std::map<std::string, LayerValue> layerMedians(const Results &R) {
  std::map<std::string, LayerValue> Out;
  for (const LayerMetricDef &M : LayerMetrics) {
    std::vector<double> Samples;
    std::string Base;
    for (const auto &Pass : R.Layers) {
      auto It = Pass.find(M.Name);
      Samples.push_back(It == Pass.end() ? 0.0 : It->second.Value);
      if (It != Pass.end())
        Base = It->second.Base;
    }
    Out[M.Name] = {median(Samples), Base};
  }
  Out["apps.trace_generate_s"].Value = R.TraceGenerateSeconds;
  Out["apps.reference_replay_s"].Value = R.ReferenceReplaySeconds;
  std::vector<double> Untraced;
  for (const PassSample &P : R.Passes)
    Untraced.push_back(P.Seconds);
  double U = median(Untraced), T = median(R.TracedPassSeconds);
  Out["bench.trace_overhead"] = {
      ratio(T - U, U),
      "traced_pass_s=" + num(T) + " untraced_pass_s=" + num(U)};
  return Out;
}

void writeRecord(const Options &Opt, const Results &R,
                 const std::string &MetricsJson) {
  if (Opt.RecordPath.empty())
    return;
  std::string J = "{\n";
  J += "  \"workload\": " + quoted(Opt.Workload) + ",\n";
  J += "  \"seed\": " + std::to_string(Opt.Seed) + ",\n";
  J += "  \"seconds\": " + num(Opt.Seconds) + ",\n";
  J += "  \"trace\": " + std::string(Opt.Trace ? "1" : "0") + ",\n";
  J += "  \"preset\": " +
       quoted(Opt.Workload == "offline-apps" ? "allApps" : "large") + ",\n";
  J += "  \"build\": " + quoted(PERFBENCH_BUILD_FLAGS) + ",\n";
  J += "  \"checks\": {\"attempted\": " + std::to_string(R.Check.Attempted) +
       ", \"failed\": " + std::to_string(R.Check.Failed) +
       ", \"failures\": [";
  for (size_t I = 0; I < R.Check.Failures.size(); ++I)
    J += (I ? ", " : "") + quoted(R.Check.Failures[I]);
  J += "]},\n";
  J += "  \"metrics\": " + MetricsJson + ",\n";
  J += "  \"reported\": {";
  bool First = true;
  for (const Reported &M : reportedMetrics(R)) {
    J += std::string(First ? "" : ", ") + quoted(M.Name) +
         ": {\"value\": " + num(M.Value) + ", \"unit\": " + quoted(M.Unit) +
         ", \"samples\": " + quoted(M.Samples) + "}";
    First = false;
  }
  J += "},\n";
  J += "  \"setup_s\": " + samplesJson(R.SetupSeconds) + ",\n";
  J += "  \"traced_pass_s\": " + samplesJson(R.TracedPassSeconds) + ",\n";
  J += "  \"passes\": [";
  std::vector<const PassSample *> Measured = R.measured();
  for (size_t I = 0; I < R.Passes.size(); ++I) {
    const PassSample &P = R.Passes[I];
    bool Used = std::find(Measured.begin(), Measured.end(), &P) !=
                Measured.end();
    std::vector<double> Pauses;
    for (const auto &[Key, Ms] : P.PausesMs)
      Pauses.push_back(Ms);
    J += std::string(I ? ",\n" : "\n") + "    {\"seconds\": " +
         num(P.Seconds) + ", \"steal_share\": " + num(P.StealShare) +
         ", \"measured\": " + (Used ? "true" : "false") +
         ", \"alloc_bytes\": " + num(P.AllocBytes) +
         ", \"peak_live_bytes\": " + num(P.PeakLiveBytes);
    for (const auto &[Name, Value] : P.Extra)
      J += ", " + quoted(Name) + ": " + num(Value);
    J += ", \"gc_pause_ms\": " + samplesJson(Pauses) + "}";
  }
  J += "\n  ],\n";
  J += "  \"apps\": {";
  First = true;
  for (const auto &[App, Fields] : appRows(R)) {
    J += std::string(First ? "\n" : ",\n") + "    " + quoted(App) + ": {";
    First = false;
    for (const auto &[Field, Value] : Fields)
      J += quoted(Field) + ": " + num(Value) + ", ";
    for (const PaperRow &P : PaperRows)
      if (App == P.Name)
        J += "\"paper_fig7\": " + quoted(P.Fig7) +
             ", \"paper_sec54\": " + quoted(P.Sec54);
    J += "}";
  }
  J += First ? "},\n" : "\n  },\n";
  J += "  \"layers\": {";
  if (Opt.Trace) {
    First = true;
    for (const auto &[Name, V] : layerMedians(R)) {
      J += std::string(First ? "\n" : ",\n") + "    " + quoted(Name) +
           ": {\"value\": " + num(V.Value) + ", \"base\": " + quoted(V.Base) +
           "}";
      First = false;
    }
    J += "\n  ";
  }
  J += "}\n}\n";
  std::ofstream(Opt.RecordPath, std::ios::binary) << J;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload offline-apps|replay-zipf|"
               "replay-adapt --seed N --seconds S --trace 0|1 "
               "[--record FILE] [--plans DIR] [--write-plans]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options Opt;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--write-plans") {
      Opt.WritePlans = true;
      continue;
    }
    if (!(V = Next()))
      return usage();
    if (A == "--workload")
      Opt.Workload = V;
    else if (A == "--seed")
      Opt.Seed = std::strtoull(V, nullptr, 0);
    else if (A == "--seconds")
      Opt.Seconds = std::strtod(V, nullptr);
    else if (A == "--trace")
      Opt.Trace = std::strcmp(V, "0") != 0;
    else if (A == "--record")
      Opt.RecordPath = V;
    else if (A == "--plans")
      Opt.PlansDir = V;
    else
      return usage();
  }

  Results R;
  int Rc;
  if (Opt.Workload == "offline-apps")
    Rc = runOfflineApps(Opt, R);
  else if (Opt.Workload == "replay-zipf")
    Rc = runReplay(Opt, R, /*Adapt=*/false);
  else if (Opt.Workload == "replay-adapt")
    Rc = runReplay(Opt, R, /*Adapt=*/true);
  else
    return usage();
  if (Rc != 0 || Opt.WritePlans)
    return Rc;

  printHuman(Opt, R);
  std::string Metrics = "{";
  bool First = true;
  auto Emit = [&](const std::string &Name, double Value, const char *Unit) {
    Metrics += std::string(First ? "" : ", ") + quoted(Name) +
               ": {\"value\": " + num(Value) + ", \"unit\": " +
               quoted(Unit) + "}";
    First = false;
  };
  if (Opt.Trace) {
    std::map<std::string, LayerValue> Layers = layerMedians(R);
    TextTable Table({"per-layer metric", "median", "unit", "base"});
    for (const LayerMetricDef &M : LayerMetrics) {
      const LayerValue &V = Layers[M.Name];
      Table.addRow({M.Name, num(V.Value), M.Unit, V.Base});
      Emit(M.Name, V.Value, M.Unit);
    }
    std::printf("%s", Table.render().c_str());
  } else {
    for (const EndToEnd &M : EndToEndMetrics)
      Emit(M.Name, endToEndValue(R, M.Name), M.Unit);
  }
  Metrics += "}";
  writeRecord(Opt, R, Metrics);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              R.Check.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(R.Check.Attempted),
              static_cast<unsigned long long>(R.Check.Failed),
              Metrics.c_str());
  return R.Check.Failed == 0 ? 0 : 1;
}
