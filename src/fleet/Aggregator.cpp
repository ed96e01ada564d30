//===--- Aggregator.cpp - Fleet profile aggregator ------------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fleet/Aggregator.h"

#include "obs/Metrics.h"
#include "obs/Telemetry.h"
#include "profiler/SemanticProfiler.h"
#include "rules/RuleEngine.h"
#include "support/FaultInjector.h"
#include "support/Format.h"

#include <sstream>

using namespace chameleon;
using namespace chameleon::fleet;

// Aggregator-side fleet metrics.
CHAM_METRIC_COUNTER(FleetUpdates, "cham.fleet.updates");
CHAM_METRIC_COUNTER(FleetDupEpochs, "cham.fleet.dup_epochs");
CHAM_METRIC_COUNTER(FleetAcksSent, "cham.fleet.acks_sent");
CHAM_METRIC_COUNTER(FleetBadFrames, "cham.fleet.bad_frames");
CHAM_METRIC_COUNTER(FleetSnapshotPersists, "cham.fleet.snapshot_persists");
CHAM_METRIC_COUNTER(FleetPersistFailures, "cham.fleet.persist_failures");
CHAM_METRIC_COUNTER(FleetSnapshotLoads, "cham.fleet.snapshot_loads");
CHAM_METRIC_COUNTER(FleetSnapshotQuarantines,
                    "cham.fleet.snapshot_quarantines");

FleetAggregator::FleetAggregator(FleetAggregatorConfig Config)
    : Cfg(std::move(Config)) {}

SnapshotLoadResult FleetAggregator::loadInitial() {
  std::lock_guard<std::mutex> L(Mu);
  if (Cfg.SnapshotPath.empty())
    return SnapshotLoadResult();
  FleetState Loaded;
  SnapshotLoadResult R =
      loadSnapshot(Cfg.SnapshotPath, Loaded, /*QuarantineOnError=*/true);
  if (R.ok()) {
    State = std::move(Loaded);
    ++S.SnapshotLoads;
    FleetSnapshotLoads.inc();
    return R;
  }
  // A file that simply does not exist yet is a clean start, not an error.
  if (R.Error == SnapshotError::Io && R.QuarantinePath.empty()) {
    SnapshotLoadResult Clean;
    return Clean;
  }
  if (!R.QuarantinePath.empty()) {
    ++S.SnapshotQuarantines;
    FleetSnapshotQuarantines.inc();
  }
  return R;
}

void FleetAggregator::attach(std::unique_ptr<Connection> C) {
  std::lock_guard<std::mutex> L(Mu);
  Session Sess;
  Sess.Conn = std::move(C);
  Sessions.push_back(std::move(Sess));
  ++S.SessionsAccepted;
}

bool FleetAggregator::sendFramed(Session &Sess, const std::string &Payload) {
  std::string Framed;
  frameMessage(Framed, Payload);
  return Sess.Conn->send(Framed);
}

bool FleetAggregator::handleMessage(Session &Sess, Message &M) {
  switch (M.Kind) {
  case MsgKind::Hello: {
    if (M.Hello.Version != WireVersion) {
      ++S.VersionSkews;
      // Reply with our version so the agent can diagnose, then drop.
      HelloAckMsg Ack;
      Ack.DurableEpoch = 0;
      sendFramed(Sess, encodeHelloAck(Ack));
      return false;
    }
    Sess.Key.AgentId = M.Hello.AgentId;
    Sess.Key.RunSeed = M.Hello.RunSeed;
    Sess.HaveHello = true;
    HelloAckMsg Ack;
    Ack.DurableEpoch = State.durableEpoch(Sess.Key);
    return sendFramed(Sess, encodeHelloAck(Ack));
  }
  case MsgKind::EpochUpdate: {
    if (!Sess.HaveHello)
      return false; // protocol violation: update before handshake
    uint64_t Epoch = M.EpochUpdate.Profile.Epoch;
    if (State.fold(Sess.Key, std::move(M.EpochUpdate.Profile))) {
      ++S.UpdatesApplied;
      FleetUpdates.inc();
      ++UpdatesSincePersist;
    } else {
      ++S.DupEpochs;
      FleetDupEpochs.inc();
    }
    if (Cfg.PersistEveryUpdates > 0 &&
        UpdatesSincePersist >= Cfg.PersistEveryUpdates) {
      std::string Err;
      persistLocked(Err); // failure counted; retried on the next trigger
    }
    AckMsg Ack;
    Ack.SeenEpoch = std::max(Epoch, State.latestEpoch(Sess.Key));
    Ack.DurableEpoch = State.durableEpoch(Sess.Key);
    if (!sendFramed(Sess, encodeAck(Ack)))
      return false;
    ++S.AcksSent;
    FleetAcksSent.inc();
    return true;
  }
  default:
    return false; // the aggregator never receives HelloAck/Ack
  }
}

void FleetAggregator::pump() {
  std::lock_guard<std::mutex> L(Mu);
  for (size_t I = 0; I < Sessions.size();) {
    Session &Sess = Sessions[I];
    bool Alive = Sess.Conn->receive(Sess.Buf);
    bool Poisoned = false;
    for (;;) {
      std::string Payload;
      FrameStatus FS = extractFrame(Sess.Buf, Sess.Pos, Payload);
      if (FS == FrameStatus::Incomplete)
        break;
      if (FS != FrameStatus::Ok) {
        ++S.BadFrames;
        FleetBadFrames.inc();
        Poisoned = true;
        break;
      }
      Message M;
      std::string Err;
      if (!decodeMessage(Payload, M, Err)) {
        ++S.BadFrames;
        FleetBadFrames.inc();
        Poisoned = true;
        break;
      }
      if (!handleMessage(Sess, M)) {
        Poisoned = true;
        break;
      }
    }
    if (Sess.Pos > 0) {
      Sess.Buf.erase(0, Sess.Pos);
      Sess.Pos = 0;
    }
    if (Poisoned || !Alive) {
      Sess.Conn->close();
      Sessions.erase(Sessions.begin() + static_cast<long>(I));
      ++S.SessionsClosed;
      continue;
    }
    ++I;
  }
}

bool FleetAggregator::persistLocked(std::string &Err) {
  if (!Cfg.SnapshotPath.empty()) {
    bool Ok = false;
    try {
      FaultInjector::FailScope Scope;
      Ok = saveSnapshot(Cfg.SnapshotPath, State, Err);
      if (!Ok && Err.empty())
        Err = "snapshot write failed";
    } catch (const InjectedFault &F) {
      Err = std::string("injected fault at ") + F.Site;
      Ok = false;
    }
    if (!Ok) {
      ++S.PersistFailures;
      FleetPersistFailures.inc();
      return false;
    }
  }
  State.markAllDurable();
  UpdatesSincePersist = 0;
  ++S.Persists;
  FleetSnapshotPersists.inc();
  return true;
}

bool FleetAggregator::persist(std::string &Err) {
  std::lock_guard<std::mutex> L(Mu);
  return persistLocked(Err);
}

FleetState FleetAggregator::stateCopy() const {
  std::lock_guard<std::mutex> L(Mu);
  return State;
}

ProcessProfile FleetAggregator::mergedProfile() const {
  // Copy under the lock, merge outside it: the merge allocates per
  // context and must not extend the aggregator's critical section.
  return stateCopy().mergedProfile();
}

std::string FleetAggregator::evaluateFleetRules(size_t *Suggestions) const {
  FleetState Copy = stateCopy();
  // Build the evaluation profiler UNLOCKED: SemanticProfiler takes its own
  // (unranked) registry locks during interning, which must never nest
  // inside the aggregator's ranked Mu.
  ProfilerConfig PC;
  PC.ContextDepth = 64; // interned contexts carry their full stored frames
  SemanticProfiler Profiler(PC);
  Copy.restoreInto(Profiler);
  rules::RuleEngine Engine;
  Engine.addBuiltinRules();
  std::vector<rules::Suggestion> Suggs = Engine.evaluate(Profiler);
  if (Suggestions)
    *Suggestions = Suggs.size();
  return rules::RuleEngine::renderReport(Suggs);
}

size_t FleetAggregator::sessionCount() const {
  std::lock_guard<std::mutex> L(Mu);
  return Sessions.size();
}

FleetAggregatorStats FleetAggregator::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  return S;
}

//===----------------------------------------------------------------------===//
// Report rendering
//===----------------------------------------------------------------------===//

static std::string fmtStat(const RunningStat &S) {
  if (S.count() == 0)
    return "-";
  std::ostringstream Os;
  Os.precision(2);
  Os << std::fixed << "n=" << S.count() << " avg=" << S.mean()
     << " max=" << S.max();
  return Os.str();
}

std::string fleet::renderProfileReport(const ProcessProfile &P) {
  std::ostringstream Os;
  Os << "Fleet profile: epoch-sum " << P.Epoch << ", " << P.Contexts.size()
     << " contexts, " << P.Heap.CyclesSeen << " GC cycles\n";
  Os << "heap: live total=" << P.Heap.Live.total()
     << " max=" << P.Heap.Live.max()
     << "; coll-used total=" << P.Heap.CollUsed.total()
     << " max=" << P.Heap.CollUsed.max()
     << "; coll-core total=" << P.Heap.CollCore.total()
     << " max=" << P.Heap.CollCore.max() << "\n";

  TextTable Table({"context", "type", "allocs", "max-size", "final-size",
                   "live-max", "migr c/a"});
  for (const ContextProfile &C : P.Contexts) {
    std::string Site = C.Frames.empty() ? "?" : C.Frames.front();
    if (C.Frames.size() > 1)
      Site += " <- " + C.Frames[1];
    const ContextStats &S = C.Stats;
    Table.addRow({Site, C.TypeName, std::to_string(S.Allocations),
                  fmtStat(S.MaxSizeStat), fmtStat(S.FinalSizeStat),
                  std::to_string(S.Live.max()),
                  std::to_string(S.MigrationCommits) + "/" +
                      std::to_string(S.MigrationAborts)});
  }
  Os << Table.render();

  if (!P.Metrics.empty()) {
    Os << "metrics:\n";
    for (const obs::MetricSnapshot &M : P.Metrics)
      Os << "  " << M.Name << " = " << obs::metricValueText(M) << "\n";
  }
  return Os.str();
}
