//===--- Aggregator.h - Fleet profile aggregator ---------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The aggregator half of the fleet pipeline (DESIGN.md §15): accepts
/// agent connections, folds their cumulative epoch updates into one
/// FleetState (highest epoch per stream wins — duplicates and replays are
/// counted, never double-merged), persists crash-safe snapshots, and
/// evaluates the rule engine fleet-wide over the merged profile.
///
/// The durable-epoch contract: an ack (or a reconnect HelloAck) only
/// advertises an epoch as durable after it has been written to a
/// *persisted* snapshot. Received-but-not-persisted state is advertised as
/// seen, not durable, so agents keep those epochs in their WALs — killing
/// the aggregator at any instant and restarting it from the last snapshot
/// loses nothing the agents cannot replay.
///
/// Single-threaded pump model like the agent: `pump()` drains every
/// attached connection; the embedding tool or test decides cadence. All
/// persist/load paths run their fault sites under armed FailScopes and
/// convert injected faults into counted, retried step failures.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_FLEET_AGGREGATOR_H
#define CHAMELEON_FLEET_AGGREGATOR_H

#include "fleet/FleetProfile.h"
#include "fleet/Snapshot.h"
#include "fleet/Transport.h"
#include "fleet/WireFormat.h"
#include "support/Annotations.h"

#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace chameleon::fleet {

struct FleetAggregatorConfig {
  /// Snapshot file. Empty = in-memory only (persist() is then a no-op
  /// that still advances the durable marks — test convenience). A corrupt
  /// snapshot is renamed aside on load (see Snapshot.h).
  std::string SnapshotPath;
  /// Auto-persist after this many applied updates (0 = manual persist()).
  uint32_t PersistEveryUpdates = 0;
};

struct FleetAggregatorStats {
  uint64_t SessionsAccepted = 0;
  uint64_t SessionsClosed = 0;
  uint64_t UpdatesApplied = 0;
  uint64_t DupEpochs = 0; ///< stale/duplicate epochs re-acked, not merged
  uint64_t AcksSent = 0;
  uint64_t BadFrames = 0; ///< poisoned connections dropped
  uint64_t VersionSkews = 0;
  uint64_t Persists = 0;
  uint64_t PersistFailures = 0;
  uint64_t SnapshotLoads = 0;
  uint64_t SnapshotQuarantines = 0;
};

class FleetAggregator {
public:
  explicit FleetAggregator(FleetAggregatorConfig Config = {});

  const FleetAggregatorConfig &config() const { return Cfg; }

  /// Loads the configured snapshot if one exists. A corrupt/skewed file is
  /// quarantined (per config) and the aggregator starts empty — never
  /// crashes, never half-merges. Returns the load diagnostics (None when
  /// the file loaded or simply did not exist yet).
  SnapshotLoadResult loadInitial();

  /// Takes ownership of one accepted connection.
  void attach(std::unique_ptr<Connection> C);

  /// Drains every session: handshakes, epoch updates, acks. Dead and
  /// poisoned sessions are dropped.
  void pump();

  /// Persists the current state (temp + atomic rename) and, on success,
  /// marks every stream's latest epoch durable. False + \p Err on failure
  /// (injected or real); state and durable marks are then unchanged.
  bool persist(std::string &Err);

  /// Copy of the current fleet state (streams + durable marks).
  FleetState stateCopy() const;

  /// The canonical fleet-wide merge (see FleetState::mergedProfile).
  ProcessProfile mergedProfile() const;

  /// Builtin-rule evaluation over the merged fleet profile, rendered in
  /// the §2.1 report format. \p Suggestions receives the raw count.
  std::string evaluateFleetRules(size_t *Suggestions = nullptr) const;

  size_t sessionCount() const;
  FleetAggregatorStats stats() const;

private:
  struct Session {
    std::unique_ptr<Connection> Conn;
    std::string Buf;
    size_t Pos = 0;
    bool HaveHello = false;
    StreamKey Key;
  };

  /// Processes one decoded message; returns false to poison the session.
  bool handleMessage(Session &Sess, Message &M);
  bool sendFramed(Session &Sess, const std::string &Payload);
  bool persistLocked(std::string &Err);

  FleetAggregatorConfig Cfg;

  mutable std::mutex Mu CHAM_LOCK_RANK(50);
  std::vector<Session> Sessions;
  FleetState State;
  uint32_t UpdatesSincePersist = 0;
  FleetAggregatorStats S;
};

/// Deterministic human-readable rendering of a (merged) profile: one row
/// per context plus the heap aggregates — the `chameleon-stats --fleet`
/// view, and the byte-identity witness in the chaos suite.
std::string renderProfileReport(const ProcessProfile &P);

} // namespace chameleon::fleet

#endif // CHAMELEON_FLEET_AGGREGATOR_H
