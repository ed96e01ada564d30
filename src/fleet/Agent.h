//===--- Agent.h - Fleet profiling agent -----------------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The agent half of the fleet pipeline (DESIGN.md §15): commits per-epoch
/// process profiles durably and streams them to the aggregator, surviving
/// every failure the aggregator or the transport can produce.
///
/// Commit protocol — the WAL *is* the commit:
///   1. `commitEpoch` assigns the next epoch sequence number and appends
///      the encoded update to the spill WAL. Only a successful append
///      counts as committed; a failed append (injected fault, full disk)
///      is retried on every pump until it lands.
///   2. The committed record is queued for send. The send queue is
///      bounded: under backpressure the agent sheds *intermediate* epochs
///      (counted, oldest first) and backs off multiplicatively on its send
///      stride — AIMD, mirroring the profiler's shed mode. Shedding never
///      loses data: epochs are cumulative, and shed records stay in the
///      WAL until a *later* epoch is durable.
///   3. Acks carry the aggregator's durable epoch (persisted to a
///      snapshot). Only then does the agent drop queue entries and compact
///      the WAL up to that mark. An aggregator crash between receive and
///      persist therefore loses nothing: on reconnect the HelloAck's
///      durable epoch tells the agent exactly which WAL tail to replay.
///
/// The agent is a deterministic state machine driven by `pump(NowTick)` on
/// a logical clock — no internal threads, no wall time. Reconnect backoff
/// is exponential with jitter seeded by the stream key (AgentId, RunSeed),
/// so agents of one fleet spread their redials, and a given (key, fault
/// schedule) replays the exact same dial pattern. All fault sites
/// (`fleet.agent.*`) are armed FailScopes internally: an injected fault
/// converts to a counted, retried step failure, never an escape.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_FLEET_AGENT_H
#define CHAMELEON_FLEET_AGENT_H

#include "fleet/FleetProfile.h"
#include "fleet/SpillWal.h"
#include "fleet/Transport.h"
#include "fleet/WireFormat.h"
#include "support/Annotations.h"
#include "support/SplitMix64.h"

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

namespace chameleon::fleet {

struct FleetAgentConfig {
  std::string AgentId = "agent";
  uint64_t RunSeed = 0;
  /// Spill WAL path. Empty = in-memory only (tests that don't exercise
  /// durability); commitEpoch then always "commits".
  std::string WalPath;
  /// fsync every WAL append (the real durability point; tests skip it).
  bool SyncWal = false;
  /// Unsent-record bound before backpressure shedding kicks in.
  size_t MaxQueue = 16;
};

/// Ledger + liveness accounting. The chaos invariant is
///   CommittedEpochs == (epochs <= DurableEpoch) + (records in WAL)
/// which `FleetChaosTest` checks after every kill/restart round.
struct FleetAgentStats {
  uint64_t CommittedEpochs = 0;   ///< WAL append (or memory commit) succeeded
  uint64_t CommitRetries = 0;     ///< WAL appends that had to be retried
  uint64_t Connects = 0;
  uint64_t ConnectFailures = 0;
  uint64_t Disconnects = 0;
  uint64_t BackoffTicksTotal = 0; ///< ticks spent waiting between dials
  uint64_t SentRecords = 0;
  uint64_t SendFailures = 0;
  uint64_t ShedRecords = 0;       ///< counted backpressure sheds
  uint64_t ReplayedRecords = 0;   ///< WAL records re-sent after reconnect/restart
  uint64_t AckedEpoch = 0;        ///< highest SeenEpoch acked
  uint64_t DurableEpoch = 0;      ///< highest epoch durable at the aggregator
  uint64_t WalCompactions = 0;
  uint64_t VersionSkews = 0;
  uint64_t SendStride = 1;        ///< current AIMD stride (1 = every epoch)
};

class FleetAgent {
public:
  /// Reconnect backoff: base and cap, in pump ticks; doubled per
  /// consecutive failure (the OnlineAdaptor idiom), plus jitter in
  /// [0, backoff/2] drawn from a stream seeded by (AgentId, RunSeed).
  static constexpr uint64_t BackoffBaseTicks = 1;
  static constexpr uint64_t BackoffMaxTicks = 64;
  /// AIMD send-stride cap (shed mode sends every Nth epoch, N <= this).
  static constexpr uint64_t MaxSendStride = 8;

  FleetAgent(FleetAgentConfig Config, Dialer &D);
  ~FleetAgent();

  const FleetAgentConfig &config() const { return Cfg; }

  /// Reloads the WAL tail into the send queue (agent-process restart).
  /// Tolerates a torn tail. Returns false only on a real read error.
  bool recover(std::string &Err);

  /// Commits one profile: assigns the next epoch number (overwriting
  /// Profile.Epoch), appends to the WAL, queues for send. Returns the
  /// assigned epoch. Never blocks, never throws; a WAL failure leaves the
  /// record staged for retry (CommittedEpochs counts only landed appends).
  uint64_t commitEpoch(ProcessProfile Profile);

  /// Drives the state machine one step at logical time \p NowTick (ticks
  /// are whatever the caller counts — epochs, loop iterations): retries
  /// staged WAL appends, dials with backoff, drains acks, sends pending
  /// records, compacts the WAL past the durable mark.
  void pump(uint64_t NowTick);

  /// True when everything committed is durable at the aggregator and
  /// nothing is staged or pending.
  bool drained() const;

  /// Epochs committed so far (last assigned sequence number).
  uint64_t lastEpoch() const;

  FleetAgentStats stats() const;

private:
  struct Record {
    uint64_t Epoch = 0;
    std::string Payload; ///< encoded EpochUpdate message payload
    bool InWal = false;  ///< append landed (committed)
    bool ForSend = true; ///< false = shed (durability via a later epoch)
    bool Sent = false;   ///< sent on the *current* connection
  };

  bool walAppendGuarded(Record &R);
  void retryStagedAppends();
  void maybeDial(uint64_t NowTick);
  void drainIncoming(uint64_t NowTick);
  void handleMessage(const Message &M);
  void onDurableAdvance(uint64_t Durable);
  void sendPending();
  void dropConnection(uint64_t NowTick);
  /// Doubles the reconnect backoff (up to BackoffMaxTicks) and schedules
  /// the next dial after it plus a jitter draw.
  void backOff(uint64_t NowTick);

  FleetAgentConfig Cfg;
  Dialer &Dial;
  std::unique_ptr<SpillWal> Wal;
  SplitMix64 Jitter;

  /// Guards all mutable state below: commitEpoch runs on the workload's
  /// epoch-barrier thread while a tool's pump loop may run elsewhere.
  mutable std::mutex Mu CHAM_LOCK_RANK(55);

  std::unique_ptr<Connection> Conn;
  std::string RecvBuf;
  size_t RecvPos = 0;
  bool AwaitingHelloAck = false;

  uint64_t LastEpoch = 0;
  std::deque<Record> Pending;
  uint64_t Backoff = 0;
  uint64_t NextDialTick = 0;
  uint64_t LastTick = 0;
  uint64_t SendStride = 1;

  FleetAgentStats S;
};

} // namespace chameleon::fleet

#endif // CHAMELEON_FLEET_AGENT_H
