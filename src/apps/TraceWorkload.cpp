//===--- TraceWorkload.cpp - Trace record & replay engine -----------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "apps/TraceWorkload.h"

#include "apps/ServerSim.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "support/FaultInjector.h"
#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <numeric>
#include <unordered_map>

using namespace chameleon;
using namespace chameleon::apps;

// -- TraceCapture ----------------------------------------------------------

void TraceCapture::begin(TraceHeader H) {
  std::lock_guard<std::mutex> L(Mu);
  Active = true;
  Header = std::move(H);
  Boot.reset();
  Epochs.clear();
  Epochs.resize(Header.Epochs);
}

void TraceCapture::setBoot(TraceTask Task) {
  std::lock_guard<std::mutex> L(Mu);
  if (Active)
    Boot = std::move(Task);
}

void TraceCapture::addTasks(uint32_t Epoch, std::vector<TraceTask> Tasks) {
  std::lock_guard<std::mutex> L(Mu);
  if (!Active || Epoch >= Epochs.size())
    return;
  std::vector<TraceTask> &Dst = Epochs[Epoch];
  if (Dst.empty()) {
    Dst = std::move(Tasks);
    return;
  }
  Dst.reserve(Dst.size() + Tasks.size());
  for (TraceTask &T : Tasks)
    Dst.push_back(std::move(T));
}

Trace TraceCapture::finish() {
  std::lock_guard<std::mutex> L(Mu);
  Active = false;
  Trace T;
  T.Header = std::move(Header);
  T.Boot = std::move(Boot);
  // Canonical task-id order per epoch, independent of how the recording
  // run's worker threads interleaved their submissions.
  for (std::vector<TraceTask> &Epoch : Epochs)
    std::sort(Epoch.begin(), Epoch.end(),
              [](const TraceTask &A, const TraceTask &B) {
                return A.Id < B.Id;
              });
  T.Epochs = std::move(Epochs);
  Boot.reset();
  Epochs.clear();
  return T;
}

// -- Replay ----------------------------------------------------------------

namespace {

/// Run state shared with the workers. Globals are rooted by main-thread
/// handles for the whole run; after boot, workers only read this.
struct ReplayShared {
  const Trace &T;
  uint32_t Threads = 1;
  /// Per epoch, each worker's tasks (see partitionEpochByLoad).
  std::vector<EpochPartition> Partition;
  std::vector<FrameId> Frames;
  std::vector<ObjectRef> GlobalRefs;
  std::vector<AdtKind> GlobalAdts;
  std::vector<uint8_t> GlobalLive;
};

/// Uncounted size read, for the interpreter's index guards: goes straight
/// to the backing implementation so the guard itself never perturbs the
/// replayed op profile.
uint32_t rawSize(CollectionRuntime &RT, const CollectionHandleBase &H) {
  const CollectionObject &W =
      RT.heap().getAs<CollectionObject>(H.wrapperRef());
  return RT.heap().getAs<CollectionImplBase>(W.Impl).size();
}

/// One handle slot per global register and ADT, sized once per run or
/// worker. During boot the slots are the main thread's persistent roots;
/// on a worker they are lazy adoptions that must not outlive their task,
/// so executeTask lists every slot it adopts and the worker releases
/// exactly those, keeping a task's cost independent of the global count.
struct GlobalHandles {
  std::vector<List> GL;
  std::vector<Set> GS;
  std::vector<Map> GM;
  std::vector<uint32_t> Adopted;

  explicit GlobalHandles(uint32_t Globals)
      : GL(Globals), GS(Globals), GM(Globals) {}

  /// Drops the roots adopted since the last release.
  void releaseAdopted() {
    for (uint32_t Slot : Adopted) {
      GL[Slot] = List();
      GS[Slot] = Set();
      GM[Slot] = Map();
    }
    Adopted.clear();
  }
};

/// Executes one task's ops against \p G's global handle slots, adopting
/// the globals it touches that \p G does not hold yet. Returns the op
/// count executed.
uint64_t executeTask(CollectionRuntime &RT, ReplayShared &S,
                     const TraceTask &TT, GlobalHandles &G) {
  std::vector<List> &GL = G.GL;
  std::vector<Set> &GS = G.GS;
  std::vector<Map> &GM = G.GM;
  SemanticProfiler &Prof = RT.profiler();
  CHAM_TRACE_SPAN_ARG("replay", "task", "task", TT.Id);
  Prof.setCurrentTask(TT.Id);
  CallFrame Frame(Prof, S.Frames[TT.FrameIdx]);

  std::vector<List> TL;
  std::vector<Set> TS;
  std::vector<Map> TM;
  std::vector<AdtKind> TempAdt;

  auto adtOf = [&](const TraceOp &Op) {
    return traceRegIsTemp(Op.Target) ? TempAdt[traceRegSlot(Op.Target)]
                                     : S.GlobalAdts[traceRegSlot(Op.Target)];
  };
  auto listAt = [&](const TraceOp &Op) -> List & {
    uint32_t Slot = traceRegSlot(Op.Target);
    if (traceRegIsTemp(Op.Target))
      return TL[Slot];
    if (GL[Slot].isNull()) {
      GL[Slot] = RT.adoptList(S.GlobalRefs[Slot]);
      G.Adopted.push_back(Slot);
    }
    return GL[Slot];
  };
  auto setAt = [&](const TraceOp &Op) -> Set & {
    uint32_t Slot = traceRegSlot(Op.Target);
    if (traceRegIsTemp(Op.Target))
      return TS[Slot];
    if (GS[Slot].isNull()) {
      GS[Slot] = RT.adoptSet(S.GlobalRefs[Slot]);
      G.Adopted.push_back(Slot);
    }
    return GS[Slot];
  };
  auto mapAt = [&](const TraceOp &Op) -> Map & {
    uint32_t Slot = traceRegSlot(Op.Target);
    if (traceRegIsTemp(Op.Target))
      return TM[Slot];
    if (GM[Slot].isNull()) {
      GM[Slot] = RT.adoptMap(S.GlobalRefs[Slot]);
      G.Adopted.push_back(Slot);
    }
    return GM[Slot];
  };
  auto iv = [](int64_t V) { return Value::ofInt(V); };

  for (const TraceOp &Op : TT.Ops) {
    const uint32_t Slot = traceRegSlot(Op.Target);
    switch (Op.Code) {
    case TraceOpCode::Alloc: {
      FrameId Site = S.Frames[Op.SiteIdx];
      if (traceRegIsTemp(Op.Target)) {
        if (Slot >= TempAdt.size()) {
          TL.resize(Slot + 1);
          TS.resize(Slot + 1);
          TM.resize(Slot + 1);
          TempAdt.resize(Slot + 1, AdtKind::List);
        }
        TempAdt[Slot] = Op.Adt;
        switch (Op.Adt) {
        case AdtKind::List:
          TL[Slot] = RT.newListOf(Op.Impl, Site, Op.Capacity);
          break;
        case AdtKind::Set:
          TS[Slot] = RT.newSetOf(Op.Impl, Site, Op.Capacity);
          break;
        case AdtKind::Map:
          TM[Slot] = RT.newMapOf(Op.Impl, Site, Op.Capacity);
          break;
        }
      } else {
        // validateTrace guarantees this only happens during boot, so the
        // shared tables are still main-thread-private here.
        switch (Op.Adt) {
        case AdtKind::List:
          GL[Slot] = RT.newListOf(Op.Impl, Site, Op.Capacity);
          S.GlobalRefs[Slot] = GL[Slot].wrapperRef();
          break;
        case AdtKind::Set:
          GS[Slot] = RT.newSetOf(Op.Impl, Site, Op.Capacity);
          S.GlobalRefs[Slot] = GS[Slot].wrapperRef();
          break;
        case AdtKind::Map:
          GM[Slot] = RT.newMapOf(Op.Impl, Site, Op.Capacity);
          S.GlobalRefs[Slot] = GM[Slot].wrapperRef();
          break;
        }
        S.GlobalAdts[Slot] = Op.Adt;
        S.GlobalLive[Slot] = 1;
      }
      break;
    }
    case TraceOpCode::Retire:
      switch (TempAdt[Slot]) {
      case AdtKind::List:
        TL[Slot].retire();
        break;
      case AdtKind::Set:
        TS[Slot].retire();
        break;
      case AdtKind::Map:
        TM[Slot].retire();
        break;
      }
      break;
    case TraceOpCode::MapPut:
      mapAt(Op).put(iv(Op.A), iv(Op.B));
      break;
    case TraceOpCode::MapGet:
      (void)mapAt(Op).get(iv(Op.A));
      break;
    case TraceOpCode::MapContainsKey:
      (void)mapAt(Op).containsKey(iv(Op.A));
      break;
    case TraceOpCode::MapRemove:
      (void)mapAt(Op).remove(iv(Op.A));
      break;
    case TraceOpCode::ListAdd:
      listAt(Op).add(iv(Op.A));
      break;
    case TraceOpCode::ListAddAt: {
      List &L = listAt(Op);
      uint64_t N = rawSize(RT, L);
      L.add(static_cast<uint32_t>(static_cast<uint64_t>(Op.A) % (N + 1)),
            iv(Op.B));
      break;
    }
    case TraceOpCode::ListGet: {
      List &L = listAt(Op);
      uint64_t N = rawSize(RT, L);
      if (N)
        (void)L.get(static_cast<uint32_t>(static_cast<uint64_t>(Op.A) % N));
      break;
    }
    case TraceOpCode::ListSet: {
      List &L = listAt(Op);
      uint64_t N = rawSize(RT, L);
      if (N)
        (void)L.set(static_cast<uint32_t>(static_cast<uint64_t>(Op.A) % N),
                    iv(Op.B));
      break;
    }
    case TraceOpCode::ListRemoveAt: {
      List &L = listAt(Op);
      uint64_t N = rawSize(RT, L);
      if (N)
        (void)L.removeAt(
            static_cast<uint32_t>(static_cast<uint64_t>(Op.A) % N));
      break;
    }
    case TraceOpCode::ListRemoveFirst: {
      List &L = listAt(Op);
      if (rawSize(RT, L))
        (void)L.removeFirst();
      break;
    }
    case TraceOpCode::ListContains:
      (void)listAt(Op).contains(iv(Op.A));
      break;
    case TraceOpCode::SetAdd:
      (void)setAt(Op).add(iv(Op.A));
      break;
    case TraceOpCode::SetContains:
      (void)setAt(Op).contains(iv(Op.A));
      break;
    case TraceOpCode::SetRemove:
      (void)setAt(Op).remove(iv(Op.A));
      break;
    case TraceOpCode::Size:
      switch (adtOf(Op)) {
      case AdtKind::List:
        (void)listAt(Op).size();
        break;
      case AdtKind::Set:
        (void)setAt(Op).size();
        break;
      case AdtKind::Map:
        (void)mapAt(Op).size();
        break;
      }
      break;
    case TraceOpCode::Clear:
      switch (adtOf(Op)) {
      case AdtKind::List:
        listAt(Op).clear();
        break;
      case AdtKind::Set:
        setAt(Op).clear();
        break;
      case AdtKind::Map:
        mapAt(Op).clear();
        break;
      }
      break;
    }
  }
  return TT.Ops.size();
}

/// One worker's share of one epoch: the tasks partitionEpochByLoad gave
/// it, in trace order. \p G is the worker's adoption table, built on its
/// first epoch and kept for the whole run.
void replayEpoch(CollectionRuntime &RT, ReplayShared &S, uint32_t Tid,
                 uint32_t Epoch, std::optional<GlobalHandles> &G,
                 std::atomic<uint64_t> &OpsOut) {
  if (!G)
    G.emplace(static_cast<uint32_t>(S.GlobalRefs.size()));
  const std::vector<TraceTask> &Tasks = S.T.Epochs[Epoch];
  uint64_t Ops = 0;
  for (uint32_t I : S.Partition[Epoch][Tid]) {
    Ops += executeTask(RT, S, Tasks[I], *G);
    // Adoptions last one task, mirroring ServerSim's per-request
    // adoptMap/adoptList (adoption is uncounted, so this is free with
    // respect to the profile).
    G->releaseAdopted();
  }
  OpsOut.fetch_add(Ops, std::memory_order_relaxed);
}

std::string buildAdaptReport(CollectionRuntime &RT,
                             const OnlineAdaptor *Adaptor,
                             const ReplayConfig &Config,
                             const ReplayResult &Result) {
  std::string Out;
  appendf(Out, "adapt: revise=%u chaos=%d chaosSeed=0x%llx softLimit=%llu\n",
          RT.config().OnlineRevisePeriod, Config.Chaos ? 1 : 0,
          static_cast<unsigned long long>(Config.ChaosSeed),
          static_cast<unsigned long long>(Config.ChaosSoftHeapLimitBytes));
  if (Adaptor)
    appendf(Out,
            "online: evaluations=%llu replacements=%llu requested=%llu "
            "committed=%llu aborted=%llu pinned=%llu\n",
            static_cast<unsigned long long>(Adaptor->evaluations()),
            static_cast<unsigned long long>(Adaptor->replacements()),
            static_cast<unsigned long long>(Adaptor->migrationsRequested()),
            static_cast<unsigned long long>(Adaptor->migrationsCommitted()),
            static_cast<unsigned long long>(Adaptor->migrationsAborted()),
            static_cast<unsigned long long>(Adaptor->pinnedContexts()));
  appendf(Out, "migrations: attempts=%llu commits=%llu aborts=%llu\n",
          static_cast<unsigned long long>(RT.migrationAttempts()),
          static_cast<unsigned long long>(RT.migrationCommits()),
          static_cast<unsigned long long>(RT.migrationAborts()));
  Out += "globals:";
  for (const auto &[Impl, Count] : Result.GlobalBackings)
    appendf(Out, " %s=%u", implKindName(Impl), Count);
  Out += "\n";
  if (Config.Chaos) {
    appendChaosFaults(Out);
    appendChaosEvents(Out, RT.profiler().degradationStats());
  }
  return Out;
}

} // namespace

EpochPartition
chameleon::apps::partitionEpochByLoad(const std::vector<TraceTask> &Tasks,
                                      uint32_t Workers) {
  assert(Workers != 0 && "a partition needs a worker");
  struct SessionLoad {
    uint32_t Session;
    uint64_t Ops = 0;
    uint32_t Worker = 0;
  };
  std::vector<SessionLoad> Sessions;
  std::unordered_map<uint32_t, uint32_t> SlotOf;
  std::vector<uint32_t> TaskSlot(Tasks.size());
  for (size_t I = 0; I < Tasks.size(); ++I) {
    auto [It, New] = SlotOf.try_emplace(
        Tasks[I].Session, static_cast<uint32_t>(Sessions.size()));
    if (New)
      Sessions.push_back({Tasks[I].Session});
    Sessions[It->second].Ops += Tasks[I].Ops.size();
    TaskSlot[I] = It->second;
  }
  std::vector<uint32_t> Order(Sessions.size());
  std::iota(Order.begin(), Order.end(), 0u);
  std::sort(Order.begin(), Order.end(), [&Sessions](uint32_t A, uint32_t B) {
    return Sessions[A].Ops != Sessions[B].Ops
               ? Sessions[A].Ops > Sessions[B].Ops
               : Sessions[A].Session < Sessions[B].Session;
  });
  std::vector<uint64_t> Load(Workers, 0);
  for (uint32_t I : Order) {
    auto Least = std::min_element(Load.begin(), Load.end());
    *Least += Sessions[I].Ops;
    Sessions[I].Worker = static_cast<uint32_t>(Least - Load.begin());
  }
  EpochPartition P(Workers);
  for (size_t I = 0; I < Tasks.size(); ++I)
    P[Sessions[TaskSlot[I]].Worker].push_back(static_cast<uint32_t>(I));
  return P;
}

RuntimeConfig
chameleon::apps::traceReplayRuntimeConfig(const ReplayConfig &) {
  RuntimeConfig RC = serverSimRuntimeConfig();
  RC.OnlineRevisePeriod = 8;
  return RC;
}

ReplayResult chameleon::apps::replayTrace(CollectionRuntime &RT,
                                          const Trace &T,
                                          const ReplayConfig &Config) {
  ReplayResult Result;
  if (!validateTrace(T, &Result.Error))
    return Result;

  SemanticProfiler &Prof = RT.profiler();
  const bool Telemetry = !Config.TelemetryOutDir.empty();
  if (Telemetry)
    obs::TraceRecorder::instance().arm();
  Prof.enableConcurrentMutators();

  // Optional adversarial machinery, scoped to this replay.
  std::optional<rules::RuleEngine> Engine;
  std::optional<OnlineAdaptor> Adaptor;
  if (Config.OnlineAdapt) {
    Engine.emplace();
    Engine->addBuiltinRules();
    Adaptor.emplace(*Engine, Prof);
    RT.setOnlineSelector(&*Adaptor);
  }
  if (Config.Chaos) {
    RT.heap().setSoftHeapLimit(Config.ChaosSoftHeapLimitBytes);
    FaultInjector::instance().arm(buildChaosPlan(Config.ChaosSeed));
  }

  ReplayShared S{T, 1, {}, {}, {}, {}, {}};
  S.Threads = Config.MutatorThreads ? Config.MutatorThreads : 1;
  // Balance every epoch's sessions over the workers up front, so a skewed
  // epoch does not leave the other workers waiting at the barrier.
  S.Partition.reserve(T.Epochs.size());
  for (const std::vector<TraceTask> &Epoch : T.Epochs)
    S.Partition.push_back(partitionEpochByLoad(Epoch, S.Threads));
  // Intern the frame table in recorded order, on the main thread, before
  // anything else touches the profiler: this pins every FrameId — and so
  // every context identity — to the recording run's values.
  S.Frames.reserve(T.Header.Frames.size());
  for (const std::string &Label : T.Header.Frames)
    S.Frames.push_back(Prof.internFrame(Label));
  S.GlobalRefs.resize(T.Header.Globals);
  S.GlobalAdts.assign(T.Header.Globals, AdtKind::List);
  S.GlobalLive.assign(T.Header.Globals, 0);

  // Boot on the main thread; these handles root the global registers for
  // the whole run.
  GlobalHandles Boot(T.Header.Globals);
  uint64_t MainOps = 0;
  if (T.Boot)
    MainOps += executeTask(RT, S, *T.Boot, Boot);

  std::atomic<uint64_t> WorkerOps{0};
  std::vector<std::optional<GlobalHandles>> Adoptions(S.Threads);
  runEpochs(
      RT, S.Threads, T.Header.Epochs, "replay",
      [&](uint32_t Tid, uint32_t Epoch) {
        replayEpoch(RT, S, Tid, Epoch, Adoptions[Tid], WorkerOps);
      },
      Config.OnEpochBarrier);

  RT.harvestLiveStatistics();

  Result.Tasks = T.taskCount();
  Result.Ops = MainOps + WorkerOps.load(std::memory_order_relaxed);
  if (Config.Chaos)
    FaultInjector::instance().disarm(); // stats survive for the report
  if (Adaptor) {
    Result.MigrationsRequested = Adaptor->migrationsRequested();
    Result.MigrationsCommitted = Adaptor->migrationsCommitted();
    Result.MigrationsAborted = Adaptor->migrationsAborted();
    Result.PinnedContexts = Adaptor->pinnedContexts();
  }
  {
    std::vector<uint32_t> Census(NumImplKinds, 0);
    for (uint32_t Slot = 0; Slot < T.Header.Globals; ++Slot) {
      if (!S.GlobalLive[Slot])
        continue;
      const CollectionObject &W =
          RT.heap().getAs<CollectionObject>(S.GlobalRefs[Slot]);
      if (W.CustomId < 0)
        ++Census[implIndex(W.CurrentImpl)];
    }
    for (unsigned I = 0; I < NumImplKinds; ++I)
      if (Census[I])
        Result.GlobalBackings.emplace_back(static_cast<ImplKind>(I),
                                           Census[I]);
  }
  if (Config.OnlineAdapt || Config.Chaos)
    Result.AdaptReport =
        buildAdaptReport(RT, Adaptor ? &*Adaptor : nullptr, Config, Result);
  Result.Report = buildServerSimReport(RT, T.Header.Sessions,
                                       T.Header.Epochs, T.Header.Requests);

  // Teardown in reverse arming order.
  if (Config.Chaos)
    RT.heap().setSoftHeapLimit(0);
  if (Config.OnlineAdapt)
    RT.setOnlineSelector(nullptr);
  if (Telemetry) {
    obs::TraceRecorder::instance().disarm();
    std::string Error;
    if (!obs::Telemetry::writeTelemetryDir(Config.TelemetryOutDir, "cham.",
                                           &Error))
      std::fprintf(stderr, "[telemetry] export failed: %s\n", Error.c_str());
  }
  Result.Ok = true;
  return Result;
}
