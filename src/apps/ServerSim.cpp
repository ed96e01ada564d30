//===--- ServerSim.cpp - Multi-threaded server workload -------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "apps/ServerSim.h"

#include "apps/TraceWorkload.h"
#include "core/OnlineAdaptor.h"
#include "obs/DecisionLog.h"
#include "obs/FlightRecorder.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "support/FaultInjector.h"
#include "support/Format.h"
#include "support/SplitMix64.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

using namespace chameleon;
using namespace chameleon::apps;

namespace {

/// Per epoch of runEpochs: the summed time the workers waited at the
/// barrier for the last one to arrive.
CHAM_METRIC_HDR(BarrierIdleNanos, "cham.apps.barrier_idle_nanos");

constexpr uint64_t Gamma = 0x9E3779B97F4A7C15ULL;

/// Indices into the recorded trace's frame table — the profiler intern
/// order of runServerSim's frames and sites. The replayer re-interns the
/// table in this order on a fresh runtime, which is what pins FrameIds
/// (and so context identities) to the recording run's values.
enum ServerSimFrame : uint32_t {
  FrameLogin = 0,
  FrameQuery = 1,
  FrameUpdate = 2,
  FrameScratchSite = 3,
  FrameResultsSite = 4,
  FrameAttrsSite = 5,
  FrameHistorySite = 6,
  FrameBoot = 7,
  NumServerSimFrames = 8,
};

const char *const ServerSimFrameLabels[NumServerSimFrames] = {
    "Server.handleLogin",
    "Server.handleQuery",
    "Server.handleUpdate",
    "server.LoginHandler.scratch:58",
    "server.QueryHandler.results:91",
    "server.Session.attrs:31",
    "server.Session.history:32",
    "Server.boot",
};

/// Immutable run state shared with the workers.
struct RunState {
  ServerSimConfig Config;
  uint32_t Threads = 1;
  FrameId HandlerFrames[3] = {};
  FrameId ScratchMapSite = 0;
  FrameId ResultListSite = 0;
  /// Wrapper refs of the per-session collections (rooted by the main
  /// thread's handles for the whole run, so the refs stay valid).
  std::vector<ObjectRef> SessionAttrs;
  std::vector<ObjectRef> SessionHistory;
  /// Armed trace capture, or null (the usual case — one null check per
  /// request).
  TraceCapture *Capture = nullptr;
};

/// One request. \p Task is globally unique across the whole run (epochs
/// included); \p Req is the per-epoch request number, which determines the
/// session and the handler kind so every epoch replays the same pattern.
/// When \p Rec is non-null, every collection op is appended to it as
/// executed — the handlers sequence explicitly (no op hidden inside an
/// argument list) so the recorded order IS the executed order.
void handleRequest(CollectionRuntime &RT, const RunState &S, uint64_t Task,
                   uint32_t Req, TaskTrace *Rec) {
  CHAM_TRACE_SPAN_ARG("server", "request", "task", Task);
  SemanticProfiler &Prof = RT.profiler();
  Prof.setCurrentTask(Task);
  SplitMix64 Rng(S.Config.Seed ^ (Gamma * Task));
  uint32_t Session = Req % S.Config.Sessions;
  CallFrame Handler(Prof, S.HandlerFrames[Req % 3]);

  Map Attrs = RT.adoptMap(S.SessionAttrs[Session]);
  List History = RT.adoptList(S.SessionHistory[Session]);
  const uint32_t AttrsReg = traceGlobalReg(2 * Session);
  const uint32_t HistoryReg = traceGlobalReg(2 * Session + 1);
  const uint32_t TempReg = traceTempReg(0);

  switch (Req % 3) {
  case 0: { // login: refresh attributes through a request-scoped scratch map
    Map Scratch = RT.newHashMap(S.ScratchMapSite, 8);
    if (Rec)
      Rec->alloc(TempReg, AdtKind::Map, ImplKind::HashMap, FrameScratchSite,
                 8);
    for (int I = 0; I < 6; ++I) {
      int64_t Key = static_cast<int64_t>(Rng.nextBelow(16));
      Scratch.put(Value::ofInt(Key), Value::ofInt(static_cast<int64_t>(Task)));
      if (Rec)
        Rec->op2(TraceOpCode::MapPut, TempReg, Key,
                 static_cast<int64_t>(Task));
    }
    Attrs.put(Value::ofInt(0), Value::ofInt(static_cast<int64_t>(Task)));
    if (Rec)
      Rec->op2(TraceOpCode::MapPut, AttrsReg, 0, static_cast<int64_t>(Task));
    int64_t Key = 1 + static_cast<int64_t>(Rng.nextBelow(7));
    uint32_t Sz = Scratch.size();
    Attrs.put(Value::ofInt(Key), Value::ofInt(static_cast<int64_t>(Sz)));
    if (Rec) {
      Rec->op0(TraceOpCode::Size, TempReg);
      Rec->op2(TraceOpCode::MapPut, AttrsReg, Key, static_cast<int64_t>(Sz));
    }
    Scratch.retire();
    if (Rec)
      Rec->op0(TraceOpCode::Retire, TempReg);
    break;
  }
  case 1: { // query: read-dominated, request-scoped result list
    List Results = RT.newArrayList(S.ResultListSite, 4);
    if (Rec)
      Rec->alloc(TempReg, AdtKind::List, ImplKind::ArrayList,
                 FrameResultsSite, 4);
    for (int I = 0; I < 12; ++I) {
      int64_t Key = static_cast<int64_t>(Rng.nextBelow(8));
      Value V = Attrs.get(Value::ofInt(Key));
      if (Rec)
        Rec->op1(TraceOpCode::MapGet, AttrsReg, Key);
      if (!V.isNull()) {
        Results.add(V);
        if (Rec)
          Rec->op1(TraceOpCode::ListAdd, TempReg, V.asInt());
      }
    }
    uint32_t E = History.size();
    if (Rec)
      Rec->op0(TraceOpCode::Size, HistoryReg);
    for (uint32_t I = 0; I < E && I < 4; ++I) {
      (void)History.get(E - 1 - I);
      if (Rec)
        Rec->op1(TraceOpCode::ListGet, HistoryReg,
                 static_cast<int64_t>(E - 1 - I));
    }
    Results.retire();
    if (Rec)
      Rec->op0(TraceOpCode::Retire, TempReg);
    break;
  }
  default: { // update: bounded history append
    History.add(Value::ofInt(static_cast<int64_t>(Task)));
    if (Rec)
      Rec->op1(TraceOpCode::ListAdd, HistoryReg, static_cast<int64_t>(Task));
    for (;;) {
      uint32_t Sz = History.size();
      if (Rec)
        Rec->op0(TraceOpCode::Size, HistoryReg);
      if (Sz <= S.Config.HistoryBound)
        break;
      (void)History.removeFirst();
      if (Rec)
        Rec->op0(TraceOpCode::ListRemoveFirst, HistoryReg);
    }
    uint32_t Sz = History.size();
    Attrs.put(Value::ofInt(2), Value::ofInt(static_cast<int64_t>(Sz)));
    if (Rec) {
      Rec->op0(TraceOpCode::Size, HistoryReg);
      Rec->op2(TraceOpCode::MapPut, AttrsReg, 2, static_cast<int64_t>(Sz));
    }
    break;
  }
  }
}

/// One worker's share of one epoch's requests: session s belongs to
/// worker s % Threads, and its requests run in request order. Sessions
/// are uniform by construction (request r goes to session r % Sessions),
/// so the modulus already balances the load; replay, whose sessions are
/// skewed, partitions by load instead (partitionEpochByLoad).
void serveEpoch(CollectionRuntime &RT, const RunState &S, uint32_t Tid,
                uint32_t Epoch) {
  // Recording batches the epoch's tasks locally and submits them in one
  // addTasks call, so the capture mutex never contends on the hot path.
  std::vector<TraceTask> Recorded;
  if (S.Capture)
    Recorded.reserve(S.Config.RequestsPerEpoch / S.Threads + 1);
  for (uint32_t Req = 0; Req < S.Config.RequestsPerEpoch; ++Req) {
    if ((Req % S.Config.Sessions) % S.Threads != Tid)
      continue;
    // Task 0 is the main thread's boot phase; request tasks start at 1.
    uint64_t Task =
        1 + static_cast<uint64_t>(Epoch) * S.Config.RequestsPerEpoch + Req;
    if (S.Capture) {
      TaskTrace Rec;
      Rec.Task.Id = Task;
      Rec.Task.Session = Req % S.Config.Sessions;
      Rec.Task.FrameIdx = Req % 3;
      // The widest request (query) emits ~34 ops; one up-front reserve
      // keeps the emit helpers reallocation-free.
      Rec.Task.Ops.reserve(40);
      handleRequest(RT, S, Task, Req, &Rec);
      Recorded.push_back(std::move(Rec.Task));
    } else {
      handleRequest(RT, S, Task, Req, nullptr);
    }
  }
  if (S.Capture)
    S.Capture->addTasks(Epoch, std::move(Recorded));
}

} // namespace

std::string chameleon::apps::buildServerSimReport(CollectionRuntime &RT,
                                                  uint32_t Sessions,
                                                  uint32_t Epochs,
                                                  uint64_t Requests) {
  SemanticProfiler &Prof = RT.profiler();
  std::string Out;
  appendf(Out, "ServerSim: sessions=%u epochs=%u requests=%llu\n", Sessions,
          Epochs, static_cast<unsigned long long>(Requests));
  Out += "gc cycles:\n";
  for (const GcCycleRecord &Rec : RT.heap().cycles())
    appendf(Out,
            "  cycle %llu forced=%d live=%llu objects=%llu collLive=%llu "
            "collUsed=%llu collCore=%llu collObjects=%llu freed=%llu "
            "freedObjects=%llu\n",
            static_cast<unsigned long long>(Rec.Cycle), Rec.Forced ? 1 : 0,
            static_cast<unsigned long long>(Rec.LiveBytes),
            static_cast<unsigned long long>(Rec.LiveObjects),
            static_cast<unsigned long long>(Rec.CollectionLiveBytes),
            static_cast<unsigned long long>(Rec.CollectionUsedBytes),
            static_cast<unsigned long long>(Rec.CollectionCoreBytes),
            static_cast<unsigned long long>(Rec.CollectionObjects),
            static_cast<unsigned long long>(Rec.FreedBytes),
            static_cast<unsigned long long>(Rec.FreedObjects));
  Out += "contexts:\n";
  for (const ContextInfo *Ctx : Prof.contexts())
    appendf(Out,
            "  %s: allocs=%llu folded=%llu allOps=%.6g maxSize=%.6g "
            "finalSize=%.6g initCap=%.6g totLive=%llu totUsed=%llu\n",
            Ctx->label().c_str(),
            static_cast<unsigned long long>(Ctx->allocations()),
            static_cast<unsigned long long>(Ctx->foldedInstances()),
            Ctx->avgAllOps(), Ctx->maxSizeStat().mean(),
            Ctx->finalSizeStat().mean(), Ctx->initialCapacityStat().mean(),
            static_cast<unsigned long long>(Ctx->liveData().total()),
            static_cast<unsigned long long>(Ctx->usedData().total()));
  return Out;
}

void chameleon::apps::runEpochs(
    CollectionRuntime &RT, uint32_t Threads, uint32_t Epochs,
    const char *SpanCategory,
    const std::function<void(uint32_t Tid, uint32_t Epoch)> &WorkerEpoch,
    const std::function<void(uint32_t Epoch, CollectionRuntime &RT)>
        &OnBarrier) {
  std::mutex Mu;
  std::condition_variable Cv;
  uint32_t Arrived = 0;
  uint64_t Generation = 0;
  // Each worker's arrival at the current barrier; Mu publishes them.
  std::vector<std::chrono::steady_clock::time_point> Arrivals(Threads);
  std::vector<std::thread> Workers;
  Workers.reserve(Threads);
  for (uint32_t Tid = 0; Tid < Threads; ++Tid)
    Workers.emplace_back([&, Tid] {
      MutatorScope Scope(RT);
      for (uint32_t Epoch = 0; Epoch < Epochs; ++Epoch) {
        WorkerEpoch(Tid, Epoch);
        Arrivals[Tid] = std::chrono::steady_clock::now();
        // Park inside a safe region, so the main thread can stop the
        // world, until it has flushed and collected for this epoch.
        GcSafeRegion Region(RT.heap());
        std::unique_lock<std::mutex> L(Mu);
        uint64_t Gen = Generation;
        ++Arrived;
        Cv.notify_all();
        Cv.wait(L, [&] { return Generation != Gen; });
      }
    });

  for (uint32_t Epoch = 0; Epoch < Epochs; ++Epoch) {
    {
      std::unique_lock<std::mutex> L(Mu);
      Cv.wait(L, [&] { return Arrived == Threads; });
    }
    auto Last = *std::max_element(Arrivals.begin(), Arrivals.end());
    std::chrono::nanoseconds Idle{0};
    for (const auto &Arrival : Arrivals)
      Idle += Last - Arrival;
    BarrierIdleNanos.observe(static_cast<uint64_t>(Idle.count()));
    // All workers are parked in safe regions: flush the per-thread event
    // buffers deterministically, then take the epoch's statistics cycle.
    CHAM_TRACE_SPAN_ARG(SpanCategory, "epoch_barrier", "epoch", Epoch);
    RT.flushMutatorStatistics();
    RT.heap().collect(/*Forced=*/true);
    if (OnBarrier)
      OnBarrier(Epoch, RT);
    {
      std::lock_guard<std::mutex> L(Mu);
      Arrived = 0;
      ++Generation;
      Cv.notify_all();
    }
  }
  for (std::thread &W : Workers)
    W.join();
}

void chameleon::apps::appendChaosFaults(std::string &Out) {
  FaultStats FS = FaultInjector::instance().stats();
  appendf(Out,
          "faults: hits=%llu thrown=%llu forcedGcs=%llu suppressed=%llu\n",
          static_cast<unsigned long long>(FS.Hits),
          static_cast<unsigned long long>(FS.AllocFailuresThrown),
          static_cast<unsigned long long>(FS.ForcedGcs),
          static_cast<unsigned long long>(FS.SuppressedFailures));
}

void chameleon::apps::appendChaosEvents(std::string &Out,
                                        const ProfilerDegradationStats &D) {
  appendf(Out,
          "events: notedAllocs=%llu foldedAllocs=%llu droppedAllocs=%llu "
          "notedDeaths=%llu foldedDeaths=%llu droppedDeaths=%llu\n",
          static_cast<unsigned long long>(D.NotedAllocs),
          static_cast<unsigned long long>(D.FoldedAllocs),
          static_cast<unsigned long long>(D.DroppedAllocs),
          static_cast<unsigned long long>(D.NotedDeaths),
          static_cast<unsigned long long>(D.FoldedDeaths),
          static_cast<unsigned long long>(D.DroppedDeaths));
}

FaultPlan chameleon::apps::buildChaosPlan(uint64_t Seed) {
  SplitMix64 Rng(Seed ^ Gamma);
  FaultPlan Plan;
  Plan.Seed = Seed;
  // Forced collections at adversarial allocation instants.
  Plan.Rules.push_back({"gc.alloc", FaultAction::ForceGc, /*NthHit=*/0,
                        0.0005 + 0.002 * Rng.nextDouble(), ~0ull});
  // Injected failures inside the migration transaction machinery itself.
  Plan.Rules.push_back({"migrate.*", FaultAction::FailAlloc, /*NthHit=*/0,
                        0.05 + 0.25 * Rng.nextDouble(), ~0ull});
  // ...and in the allocations a shadow build performs. Outside a migration
  // FailScope these matches are counted as suppressed, never thrown.
  Plan.Rules.push_back({"*.reserve", FaultAction::FailAlloc, /*NthHit=*/0,
                        0.01 + 0.05 * Rng.nextDouble(), ~0ull});
  return Plan;
}

namespace {

/// Scopes the chaos machinery to one run: arms the plan, installs the
/// online selector and the soft heap limit, and tears all three down (in
/// reverse) even when the run throws.
struct ChaosSession {
  CollectionRuntime &RT;

  ChaosSession(CollectionRuntime &RT, OnlineSelector &Selector,
               const ServerSimConfig &Config)
      : RT(RT) {
    RT.setOnlineSelector(&Selector);
    RT.heap().setSoftHeapLimit(Config.ChaosSoftHeapLimitBytes);
    FaultInjector::instance().arm(buildChaosPlan(Config.ChaosSeed));
  }

  ~ChaosSession() {
    FaultInjector::instance().disarm(); // stats survive for the report
    RT.heap().setSoftHeapLimit(0);
    RT.setOnlineSelector(nullptr);
  }
};

std::string buildChaosReport(CollectionRuntime &RT,
                             const OnlineAdaptor &Adaptor,
                             const ServerSimConfig &Config) {
  std::string Out;
  appendf(Out, "chaos: seed=0x%llx softLimit=%llu\n",
          static_cast<unsigned long long>(Config.ChaosSeed),
          static_cast<unsigned long long>(Config.ChaosSoftHeapLimitBytes));

  appendChaosFaults(Out);
  for (const FaultInjector::RuleReport &R :
       FaultInjector::instance().ruleReports())
    appendf(Out, "  rule %s: hits=%llu fires=%llu\n", R.SitePattern.c_str(),
            static_cast<unsigned long long>(R.Hits),
            static_cast<unsigned long long>(R.Fires));

  appendf(Out,
          "migrations: attempts=%llu commits=%llu aborts=%llu "
          "requested=%llu pinned=%llu\n",
          static_cast<unsigned long long>(RT.migrationAttempts()),
          static_cast<unsigned long long>(RT.migrationCommits()),
          static_cast<unsigned long long>(RT.migrationAborts()),
          static_cast<unsigned long long>(Adaptor.migrationsRequested()),
          static_cast<unsigned long long>(Adaptor.pinnedContexts()));
  appendf(Out, "retire: double=%llu useAfter=%llu\n",
          static_cast<unsigned long long>(RT.doubleRetires()),
          static_cast<unsigned long long>(RT.usesAfterRetire()));

  ProfilerDegradationStats D = RT.profiler().degradationStats();
  appendf(Out,
          "degradation: pressureEvents=%llu emergencyCollects=%llu "
          "shedMultiplier=%u shedSampledOut=%llu\n",
          static_cast<unsigned long long>(D.HeapPressureEvents),
          static_cast<unsigned long long>(RT.heap().emergencyCollects()),
          D.ShedMultiplier,
          static_cast<unsigned long long>(D.ShedSampledOut));
  appendChaosEvents(Out, D);
  return Out;
}

} // namespace

RuntimeConfig chameleon::apps::serverSimRuntimeConfig() {
  RuntimeConfig Config;
  Config.Profiler.SamplingPeriod = 1; // exact: no per-thread sampling drift
  Config.HeapLimitBytes = 0;          // GC only at the epoch barriers
  Config.GcSampleEveryBytes = 0;
  return Config;
}

/// The --ticker line: one stderr glance per epoch barrier at the run's
/// live telemetry. stderr only — never part of the deterministic report.
static void printTicker(CollectionRuntime &RT, uint32_t Epoch, uint32_t Epochs) {
  obs::TraceRecorder &Rec = obs::TraceRecorder::instance();
  std::fprintf(
      stderr,
      "[telemetry] epoch %u/%u gc=%llu migrations=%llu/%llu/%llu shed=%s "
      "events=%llu dropped=%llu\n",
      Epoch + 1, Epochs,
      static_cast<unsigned long long>(RT.heap().cycleCount()),
      static_cast<unsigned long long>(RT.migrationAttempts()),
      static_cast<unsigned long long>(RT.migrationCommits()),
      static_cast<unsigned long long>(RT.migrationAborts()),
      RT.profiler().degradationStats().ShedActive ? "on" : "off",
      static_cast<unsigned long long>(Rec.recordedEvents()),
      static_cast<unsigned long long>(Rec.droppedEvents()));
}

ServerSimResult chameleon::apps::runServerSim(CollectionRuntime &RT,
                                              const ServerSimConfig &Config) {
  SemanticProfiler &Prof = RT.profiler();
  // Telemetry capture is strictly read-only with respect to the simulated
  // run: it records what happens but feeds nothing back, so Report stays
  // byte-identical with it on or off (ServerSimTest pins this).
  const bool Telemetry =
      !Config.TelemetryOutDir.empty() || Config.TelemetryTicker;
  if (Telemetry)
    obs::TraceRecorder::instance().arm();
  // Buffer statistics from the first event (sticky; required before any
  // worker touches the heap).
  Prof.enableConcurrentMutators();

  // Chaos mode: builtin rules behind an online adaptor (so live migrations
  // happen and can be aborted), a soft heap limit (so the shed path runs),
  // and the randomized fault plan, all scoped to this run.
  std::optional<rules::RuleEngine> ChaosEngine;
  std::optional<OnlineAdaptor> ChaosAdaptor;
  std::optional<ChaosSession> Chaos;
  if (Config.Chaos) {
    ChaosEngine.emplace();
    ChaosEngine->addBuiltinRules();
    ChaosAdaptor.emplace(*ChaosEngine, Prof);
    Chaos.emplace(RT, *ChaosAdaptor, Config);
  }

  // Ledger mode: arm (re-arming clears any previous run's records) and
  // build the builtin rule set the barrier-time evaluation pass uses.
  std::optional<rules::RuleEngine> LedgerEngine;
  if (Config.DecisionLedger) {
    obs::DecisionLog::instance().arm();
    LedgerEngine.emplace();
    LedgerEngine->addBuiltinRules();
  }
  if (!Config.FlightRecorderPath.empty()) {
    std::string Error;
    if (!obs::FlightRecorder::instance().install(Config.FlightRecorderPath,
                                                 "cham.", &Error))
      std::fprintf(stderr, "[flight-recorder] install failed: %s\n",
                   Error.c_str());
  }

  RunState S;
  S.Config = Config;
  S.Threads = Config.MutatorThreads ? Config.MutatorThreads : 1;
  S.Capture = Config.RecordTo;
  S.HandlerFrames[0] = Prof.internFrame(ServerSimFrameLabels[FrameLogin]);
  S.HandlerFrames[1] = Prof.internFrame(ServerSimFrameLabels[FrameQuery]);
  S.HandlerFrames[2] = Prof.internFrame(ServerSimFrameLabels[FrameUpdate]);
  S.ScratchMapSite = RT.site(ServerSimFrameLabels[FrameScratchSite]);
  S.ResultListSite = RT.site(ServerSimFrameLabels[FrameResultsSite]);
  FrameId AttrsSite = RT.site(ServerSimFrameLabels[FrameAttrsSite]);
  FrameId HistorySite = RT.site(ServerSimFrameLabels[FrameHistorySite]);

  if (S.Capture) {
    TraceHeader Header;
    Header.Generator = "serversim";
    Header.Seed = Config.Seed;
    Header.Sessions = Config.Sessions;
    Header.Epochs = Config.Epochs;
    Header.Requests =
        static_cast<uint64_t>(Config.Epochs) * Config.RequestsPerEpoch;
    Header.HistoryBound = Config.HistoryBound;
    Header.Globals = 2 * Config.Sessions;
    Header.Frames.assign(ServerSimFrameLabels,
                         ServerSimFrameLabels + NumServerSimFrames);
    S.Capture->begin(std::move(Header));
  }

  // Boot phase (task 0): the long-lived per-session state, on the main
  // thread so wrapper slots are identical for every thread count.
  Prof.setCurrentTask(0);
  std::vector<Map> AttrHandles;
  std::vector<List> HistoryHandles;
  {
    CallFrame Boot(Prof, Prof.internFrame(ServerSimFrameLabels[FrameBoot]));
    TaskTrace BootRec;
    for (uint32_t I = 0; I < Config.Sessions; ++I) {
      AttrHandles.push_back(RT.newHashMap(AttrsSite, 8));
      HistoryHandles.push_back(
          RT.newArrayList(HistorySite, Config.HistoryBound));
      S.SessionAttrs.push_back(AttrHandles.back().wrapperRef());
      S.SessionHistory.push_back(HistoryHandles.back().wrapperRef());
      if (S.Capture) {
        BootRec.alloc(traceGlobalReg(2 * I), AdtKind::Map, ImplKind::HashMap,
                      FrameAttrsSite, 8);
        BootRec.alloc(traceGlobalReg(2 * I + 1), AdtKind::List,
                      ImplKind::ArrayList, FrameHistorySite,
                      Config.HistoryBound);
      }
    }
    if (S.Capture) {
      BootRec.Task.Id = 0;
      BootRec.Task.Session = TraceBootSession;
      BootRec.Task.FrameIdx = FrameBoot;
      S.Capture->setBoot(std::move(BootRec.Task));
    }
  }

  // Flips every session's backing through the transactional migration
  // path: even epochs to ArrayMap/LinkedList, odd ones back.
  auto FlipSessions = [&](uint32_t Epoch) {
    ImplKind MapTarget =
        (Epoch % 2 == 0) ? ImplKind::ArrayMap : ImplKind::HashMap;
    ImplKind ListTarget =
        (Epoch % 2 == 0) ? ImplKind::LinkedList : ImplKind::ArrayList;
    for (uint32_t I = 0; I < Config.Sessions; ++I) {
      (void)RT.migrateCollection(S.SessionAttrs[I], MapTarget);
      (void)RT.migrateCollection(S.SessionHistory[I], ListTarget);
    }
  };
  runEpochs(
      RT, S.Threads, Config.Epochs, "server",
      [&](uint32_t Tid, uint32_t Epoch) { serveEpoch(RT, S, Tid, Epoch); },
      [&](uint32_t Epoch, CollectionRuntime &) {
        // Chaos migration storm: while the workers are parked, flip the
        // sessions under the armed fault plan. Some attempts abort (and
        // must roll back — the workers' next epoch runs against the
        // surviving contents); the rest commit and flip back next epoch.
        if (Config.Chaos)
          FlipSessions(Epoch);
        if (Config.DecisionLedger) {
          // Ledger pass: rule evaluation over every context against the
          // just-folded (post-flush, canonically renumbered) profile, then
          // a deterministic flip of the sessions so the full lifecycle
          // (start/build/verify/publish/commit) appears in the ledger.
          // Main thread only, workers parked: the record order is a pure
          // function of the workload, never of thread scheduling.
          std::vector<rules::Suggestion> Suggs;
          for (const ContextInfo *Ctx : Prof.contexts())
            LedgerEngine->evaluateContext(*Ctx, Prof, Suggs);
          FlipSessions(Epoch);
        }
        if (!Config.FlightRecorderPath.empty())
          obs::FlightRecorder::instance().checkpoint();
        if (Config.TelemetryTicker)
          printTicker(RT, Epoch, Config.Epochs);
      });

  // Fold the still-live session collections and canonicalize the report.
  RT.harvestLiveStatistics();

  ServerSimResult Result;
  Result.TotalRequests =
      static_cast<uint64_t>(Config.Epochs) * Config.RequestsPerEpoch;
  if (Config.Chaos) {
    // Stop injecting before building reports; the counters survive disarm
    // (and the ChaosSession destructor's second disarm is a no-op).
    FaultInjector::instance().disarm();
    Result.ChaosReport = buildChaosReport(RT, *ChaosAdaptor, Config);
  }
  Result.Report = buildServerSimReport(
      RT, Config.Sessions, Config.Epochs,
      static_cast<uint64_t>(Config.Epochs) * Config.RequestsPerEpoch);
  if (Telemetry) {
    obs::TraceRecorder::instance().disarm();
    if (!Config.TelemetryOutDir.empty()) {
      std::string Error;
      if (!obs::Telemetry::writeTelemetryDir(Config.TelemetryOutDir, "cham.",
                                             &Error))
        std::fprintf(stderr, "[telemetry] export failed: %s\n",
                     Error.c_str());
    }
  }
  return Result;
}
