//===--- Agent.cpp - Fleet profiling agent -------------------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fleet/Agent.h"

#include "obs/Metrics.h"
#include "support/FaultInjector.h"
#include "support/Wire.h"

#include <algorithm>

using namespace chameleon;
using namespace chameleon::fleet;

// Agent-side fleet metrics (DESIGN.md §11 conventions; instances across
// agents in one process merge by name at snapshot time).
CHAM_METRIC_COUNTER(FleetConnects, "cham.fleet.connects");
CHAM_METRIC_COUNTER(FleetConnectRetries, "cham.fleet.connect_retries");
CHAM_METRIC_COUNTER(FleetDisconnects, "cham.fleet.disconnects");
CHAM_METRIC_COUNTER(FleetBackoffTicks, "cham.fleet.backoff_ticks");
CHAM_METRIC_COUNTER(FleetCommits, "cham.fleet.commits");
CHAM_METRIC_COUNTER(FleetCommitRetries, "cham.fleet.commit_retries");
CHAM_METRIC_COUNTER(FleetSentRecords, "cham.fleet.sent_records");
CHAM_METRIC_COUNTER(FleetSendFailures, "cham.fleet.send_failures");
CHAM_METRIC_COUNTER(FleetShedRecords, "cham.fleet.shed_records");
CHAM_METRIC_COUNTER(FleetReplayedRecords, "cham.fleet.replayed_records");
CHAM_METRIC_COUNTER(FleetWalCompactions, "cham.fleet.wal_compactions");
CHAM_METRIC_COUNTER(FleetVersionSkews, "cham.fleet.version_skews");

/// The reconnect-jitter seed of one stream: agents with different ids or
/// runs draw different jitter, so a fleet does not redial in lockstep.
static uint64_t jitterSeed(const FleetAgentConfig &Cfg) {
  return fnv1a(Cfg.AgentId) ^ Cfg.RunSeed;
}

FleetAgent::FleetAgent(FleetAgentConfig Config, Dialer &D)
    : Cfg(std::move(Config)), Dial(D), Jitter(jitterSeed(Cfg)) {
  if (!Cfg.WalPath.empty())
    Wal = std::make_unique<SpillWal>(Cfg.WalPath);
}

FleetAgent::~FleetAgent() {
  if (Conn)
    Conn->close();
}

bool FleetAgent::recover(std::string &Err) {
  std::lock_guard<std::mutex> L(Mu);
  if (!Wal)
    return true;
  SpillWal::LoadResult Loaded;
  if (!SpillWal::load(Wal->path(), Loaded, Err))
    return false;
  for (SpillWal::Record &Rec : Loaded.Records) {
    Record R;
    R.Epoch = Rec.Epoch;
    R.Payload = std::move(Rec.MessagePayload);
    R.InWal = true;
    R.Sent = false;
    LastEpoch = std::max(LastEpoch, R.Epoch);
    ++S.CommittedEpochs; // already durable in the WAL from the prior run
    Pending.push_back(std::move(R));
  }
  return true;
}

bool FleetAgent::walAppendGuarded(Record &R) {
  if (!Wal)
    return true;
  try {
    FaultInjector::FailScope Scope;
    CHAM_FAULT("fleet.agent.wal_append");
    std::string Err;
    return Wal->append(R.Epoch, R.Payload, Cfg.SyncWal, Err);
  } catch (const InjectedFault &) {
    return false;
  }
}

uint64_t FleetAgent::commitEpoch(ProcessProfile Profile) {
  std::lock_guard<std::mutex> L(Mu);
  Record R;
  R.Epoch = ++LastEpoch;
  Profile.Epoch = R.Epoch;
  EpochUpdateMsg M;
  M.Profile = std::move(Profile);
  R.Payload = encodeEpochUpdate(M);

  R.InWal = walAppendGuarded(R);
  if (R.InWal) {
    ++S.CommittedEpochs;
    FleetCommits.inc();
  }

  // AIMD shed mode: while the stride is raised, only every Nth epoch goes
  // on the wire. The decision lands on the *previous* newest record — it
  // only became an intermediate epoch now that a newer cumulative one
  // exists. The newest commit itself always stays eligible, so a drain
  // converges whenever connectivity returns, whatever the stride. The
  // skipped epochs are still committed (WAL) — a later cumulative epoch
  // supersedes them.
  R.ForSend = true;
  if (SendStride > 1 && !Pending.empty()) {
    Record &Prev = Pending.back();
    if (Prev.ForSend && !Prev.Sent && (Prev.Epoch % SendStride) != 0) {
      Prev.ForSend = false;
      ++S.ShedRecords;
      FleetShedRecords.inc();
    }
  }
  Pending.push_back(std::move(R));

  // Backpressure: bound the unsent backlog; shed oldest-first (counted),
  // keep the newest, and double the stride (capped).
  size_t Unsent = 0;
  for (const Record &P : Pending)
    if (P.ForSend && !P.Sent)
      ++Unsent;
  if (Unsent > Cfg.MaxQueue) {
    for (size_t I = 0; I + 1 < Pending.size() && Unsent > Cfg.MaxQueue; ++I) {
      Record &P = Pending[I];
      if (P.ForSend && !P.Sent) {
        P.ForSend = false;
        ++S.ShedRecords;
        FleetShedRecords.inc();
        --Unsent;
      }
    }
    SendStride = std::min(SendStride * 2, MaxSendStride);
    S.SendStride = SendStride;
  }
  return LastEpoch;
}

void FleetAgent::retryStagedAppends() {
  for (Record &R : Pending) {
    if (R.InWal)
      continue;
    ++S.CommitRetries;
    FleetCommitRetries.inc();
    R.InWal = walAppendGuarded(R);
    if (R.InWal) {
      ++S.CommittedEpochs;
      FleetCommits.inc();
    }
  }
}

void FleetAgent::maybeDial(uint64_t NowTick) {
  if (NowTick < NextDialTick) {
    ++S.BackoffTicksTotal;
    FleetBackoffTicks.inc();
    return;
  }
  bool Failed = false;
  try {
    FaultInjector::FailScope Scope;
    CHAM_FAULT("fleet.agent.connect");
    Conn = Dial.dial();
  } catch (const InjectedFault &) {
    Failed = true;
  }
  if (Failed || !Conn) {
    Conn.reset();
    ++S.ConnectFailures;
    FleetConnectRetries.inc();
    backOff(NowTick);
    return;
  }
  ++S.Connects;
  FleetConnects.inc();
  Backoff = 0;
  RecvBuf.clear();
  RecvPos = 0;
  AwaitingHelloAck = true;
  // Everything not yet durable goes out again on this connection; the
  // aggregator dedupes and re-acks.
  for (Record &R : Pending)
    R.Sent = false;

  HelloMsg Hello;
  Hello.AgentId = Cfg.AgentId;
  Hello.RunSeed = Cfg.RunSeed;
  std::string Framed;
  frameMessage(Framed, encodeHello(Hello));
  if (!Conn->send(Framed))
    dropConnection(NowTick);
}

void FleetAgent::onDurableAdvance(uint64_t Durable) {
  if (Durable <= S.DurableEpoch)
    return;
  S.DurableEpoch = Durable;
  while (!Pending.empty() && Pending.front().Epoch <= Durable &&
         Pending.front().InWal)
    Pending.pop_front();
  if (!Wal)
    return;
  try {
    FaultInjector::FailScope Scope;
    CHAM_FAULT("fleet.agent.wal_compact");
    std::string Err;
    if (Wal->compact(Durable, Err)) {
      ++S.WalCompactions;
      FleetWalCompactions.inc();
    }
  } catch (const InjectedFault &) {
    // Compaction is pure housekeeping: the WAL keeps a few extra records
    // until the next durable advance retries it.
  }
}

void FleetAgent::handleMessage(const Message &M) {
  switch (M.Kind) {
  case MsgKind::HelloAck:
    if (M.HelloAck.Version != WireVersion) {
      ++S.VersionSkews;
      FleetVersionSkews.inc();
      dropConnection(LastTick);
      return;
    }
    AwaitingHelloAck = false;
    onDurableAdvance(M.HelloAck.DurableEpoch);
    break;
  case MsgKind::Ack:
    if (M.Ack.SeenEpoch > S.AckedEpoch) {
      S.AckedEpoch = M.Ack.SeenEpoch;
      // Additive stride decrease on real progress.
      if (SendStride > 1) {
        --SendStride;
        S.SendStride = SendStride;
      }
    }
    onDurableAdvance(M.Ack.DurableEpoch);
    break;
  default:
    break; // agent never receives Hello/EpochUpdate; ignore
  }
}

void FleetAgent::drainIncoming(uint64_t NowTick) {
  bool Alive = Conn->receive(RecvBuf);
  for (;;) {
    std::string Payload;
    FrameStatus FS = extractFrame(RecvBuf, RecvPos, Payload);
    if (FS == FrameStatus::Incomplete)
      break;
    if (FS != FrameStatus::Ok) {
      dropConnection(NowTick);
      return;
    }
    Message M;
    std::string Err;
    if (!decodeMessage(Payload, M, Err)) {
      dropConnection(NowTick);
      return;
    }
    handleMessage(M);
    if (!Conn) // handleMessage may drop (version skew)
      return;
  }
  if (RecvPos > 0) {
    RecvBuf.erase(0, RecvPos);
    RecvPos = 0;
  }
  if (!Alive)
    dropConnection(NowTick);
}

void FleetAgent::sendPending() {
  for (Record &R : Pending) {
    if (!R.ForSend || R.Sent || !R.InWal || R.Epoch <= S.DurableEpoch)
      continue;
    bool Replay = S.Connects > 1 || R.Epoch <= S.AckedEpoch;
    std::string Framed;
    frameMessage(Framed, R.Payload);
    bool SendOk = false;
    try {
      FaultInjector::FailScope Scope;
      CHAM_FAULT("fleet.agent.send");
      SendOk = Conn->send(Framed);
    } catch (const InjectedFault &) {
      SendOk = false;
    }
    if (!SendOk) {
      ++S.SendFailures;
      FleetSendFailures.inc();
      dropConnection(LastTick);
      return;
    }
    R.Sent = true;
    ++S.SentRecords;
    FleetSentRecords.inc();
    if (Replay) {
      ++S.ReplayedRecords;
      FleetReplayedRecords.inc();
    }
  }
}

void FleetAgent::dropConnection(uint64_t NowTick) {
  if (Conn) {
    Conn->close();
    Conn.reset();
    ++S.Disconnects;
    FleetDisconnects.inc();
  }
  RecvBuf.clear();
  RecvPos = 0;
  AwaitingHelloAck = false;
  backOff(NowTick);
}

void FleetAgent::backOff(uint64_t NowTick) {
  Backoff = Backoff == 0 ? BackoffBaseTicks
                         : std::min(Backoff * 2, BackoffMaxTicks);
  NextDialTick = NowTick + Backoff + Jitter.nextBelow(Backoff / 2 + 1);
}

void FleetAgent::pump(uint64_t NowTick) {
  std::lock_guard<std::mutex> L(Mu);
  LastTick = NowTick;
  retryStagedAppends();
  if (!Conn)
    maybeDial(NowTick);
  if (!Conn)
    return;
  drainIncoming(NowTick);
  if (!Conn)
    return;
  sendPending();
}

bool FleetAgent::drained() const {
  std::lock_guard<std::mutex> L(Mu);
  return Pending.empty() && S.DurableEpoch >= LastEpoch;
}

uint64_t FleetAgent::lastEpoch() const {
  std::lock_guard<std::mutex> L(Mu);
  return LastEpoch;
}

FleetAgentStats FleetAgent::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  return S;
}
