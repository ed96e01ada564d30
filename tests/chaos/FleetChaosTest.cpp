//===--- FleetChaosTest.cpp - Fleet pipeline chaos suite ------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Chaos for the agent→aggregator pipeline (`ctest -L chaos`): a seeded
/// fault storm over every fleet fault site (connect, send, WAL append,
/// WAL compact, snapshot write, snapshot rename) combined with random
/// aggregator kills/restarts mid-stream. The invariant under all of it is
/// the DESIGN.md §15 durability contract: once the storm ends, every
/// committed epoch converges to durable — the aggregator's per-stream
/// latest equals each agent's last committed epoch, the persisted snapshot
/// reloads byte-faithfully, and agent WALs stay structurally intact.
/// A corrupted snapshot on restart is quarantined (typed, never a crash)
/// and the fleet self-heals via the next cumulative commit.
///
/// The seed comes from CHAM_CHAOS_SEED (any strtoull base-0 form) and is
/// printed at the start of every test so a CI failure can be replayed.
///
//===----------------------------------------------------------------------===//

#include "fleet/Agent.h"
#include "fleet/Aggregator.h"
#include "fleet/Snapshot.h"
#include "fleet/SpillWal.h"
#include "fleet/Transport.h"
#include "support/FaultInjector.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace chameleon;
using namespace chameleon::fleet;

namespace {

namespace fs = std::filesystem;

uint64_t chaosSeed() {
  if (const char *Env = std::getenv("CHAM_CHAOS_SEED"))
    if (*Env != '\0')
      return std::strtoull(Env, nullptr, 0);
  return 0xC4A05;
}

#define CHAOS_TRACE(Seed)                                                      \
  std::fprintf(stderr, "[chaos] seed=0x%llx (replay: CHAM_CHAOS_SEED=0x%llx)\n", \
               static_cast<unsigned long long>(Seed),                          \
               static_cast<unsigned long long>(Seed));                         \
  SCOPED_TRACE(::testing::Message() << "chaos seed 0x" << std::hex << (Seed))

struct DisarmGuard {
  ~DisarmGuard() { FaultInjector::instance().disarm(); }
};

/// Probability rules over every fleet fault site. Connect fails often
/// (exercising backoff), persistence fails often (exercising durable-mark
/// withholding and WAL retention), the rest at a steady simmer.
FaultPlan fleetPlan(uint64_t Seed) {
  FaultPlan Plan;
  Plan.Seed = Seed;
  Plan.Rules.push_back(
      {"fleet.agent.connect", FaultAction::FailAlloc, 0, 0.25});
  Plan.Rules.push_back({"fleet.agent.send", FaultAction::FailAlloc, 0, 0.15});
  Plan.Rules.push_back(
      {"fleet.agent.wal_append", FaultAction::FailAlloc, 0, 0.15});
  Plan.Rules.push_back(
      {"fleet.agent.wal_compact", FaultAction::FailAlloc, 0, 0.2});
  Plan.Rules.push_back(
      {"fleet.snapshot.write", FaultAction::FailAlloc, 0, 0.25});
  Plan.Rules.push_back(
      {"fleet.snapshot.rename", FaultAction::FailAlloc, 0, 0.1});
  return Plan;
}

/// Cumulative per-epoch profile keyed by \p Salt so each agent's stream
/// has distinct contents.
ProcessProfile chaosProfile(uint64_t Salt, uint64_t Epoch) {
  ProcessProfile P;
  P.Epoch = Epoch;
  P.Heap.CyclesSeen = Epoch;
  P.Heap.Live = TotalMax::fromParts(Epoch * (100 + Salt), 100 + Salt, Epoch);
  ContextProfile C;
  C.TypeName = Salt % 2 ? "HashMap" : "ArrayList";
  C.Frames = {"site:" + std::to_string(Salt)};
  C.Stats.Allocations = Epoch * (10 + Salt);
  P.Contexts.push_back(std::move(C));
  return P;
}

struct TempDir {
  fs::path Path;
  explicit TempDir(const char *Name)
      : Path(fs::temp_directory_path() / Name) {
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~TempDir() { fs::remove_all(Path); }
};

FleetAggregatorConfig aggConfig(const std::string &SnapPath) {
  FleetAggregatorConfig C;
  C.SnapshotPath = SnapPath;
  C.PersistEveryUpdates = 1;
  return C;
}

/// Post-storm convergence: persist, bounce the server once so every agent
/// re-handshakes and learns the real durable mark, then pump to drained.
void drainAll(std::vector<std::unique_ptr<FleetAgent>> &Agents,
              FleetAggregator &Agg, InMemoryHub &Hub, uint64_t &Tick) {
  std::string Err;
  Agg.persist(Err);
  Hub.stopServer();
  for (auto &A : Agents)
    A->pump(Tick++); // observe the death
  Hub.startServer();
  for (int Round = 0; Round < 5000; ++Round) {
    bool AllDrained = true;
    for (auto &A : Agents) {
      A->pump(Tick++);
      AllDrained = AllDrained && A->drained();
    }
    for (auto &C : Hub.acceptAll())
      Agg.attach(std::move(C));
    Agg.pump();
    Agg.persist(Err);
    if (AllDrained)
      return;
  }
}

TEST(FleetChaosTest, StormThenEveryCommittedEpochConverges) {
  const uint64_t Seed = chaosSeed();
  CHAOS_TRACE(Seed);
  TempDir Dir("cham-fleet-chaos-storm");
  const std::string SnapPath = (Dir.Path / "fleet.snap").string();
  constexpr size_t NumAgents = 3;
  constexpr uint64_t EpochsPerAgent = 10;

  InMemoryHub Hub;
  auto Agg = std::make_unique<FleetAggregator>(aggConfig(SnapPath));
  EXPECT_TRUE(Agg->loadInitial().ok());

  std::vector<std::unique_ptr<FleetAgent>> Agents;
  for (size_t I = 0; I < NumAgents; ++I) {
    FleetAgentConfig AC;
    AC.AgentId = "chaos-" + std::to_string(I);
    AC.RunSeed = Seed;
    AC.WalPath = (Dir.Path / (AC.AgentId + ".wal")).string();
    AC.MaxQueue = 64; // no backpressure shedding: every epoch travels
    Agents.push_back(std::make_unique<FleetAgent>(AC, Hub));
    std::string Err;
    ASSERT_TRUE(Agents.back()->recover(Err)) << Err;
  }

  DisarmGuard Guard;
  FaultInjector::instance().arm(fleetPlan(Seed));

  SplitMix64 Rng(Seed * 0xDECAF + 1);
  std::vector<uint64_t> Committed(NumAgents, 0);
  uint64_t Tick = 0;
  int ServerDownRounds = 0;
  for (int Round = 0; Round < 300; ++Round) {
    for (size_t I = 0; I < NumAgents; ++I) {
      if (Committed[I] < EpochsPerAgent && Rng.nextBelow(3) == 0)
        Agents[I]->commitEpoch(chaosProfile(I, ++Committed[I]));
      Agents[I]->pump(Tick++);
    }
    if (Hub.serverUp()) {
      for (auto &C : Hub.acceptAll())
        Agg->attach(std::move(C));
      Agg->pump();
      if (Rng.nextBelow(40) == 0) {
        // Crash the aggregator mid-stream: no final persist, all state
        // below the last good snapshot is gone.
        Hub.stopServer();
        Agg.reset();
        ServerDownRounds = 1 + static_cast<int>(Rng.nextBelow(8));
      }
    } else if (--ServerDownRounds <= 0) {
      Agg = std::make_unique<FleetAggregator>(aggConfig(SnapPath));
      Agg->loadInitial(); // may be stale or missing; both are fine
      Hub.startServer();
    }
  }

  FaultInjector::instance().disarm();
  if (!Hub.serverUp()) {
    Agg = std::make_unique<FleetAggregator>(aggConfig(SnapPath));
    Agg->loadInitial();
    Hub.startServer();
  }
  // Finish the commit quota (normal operation now) and drain.
  for (size_t I = 0; I < NumAgents; ++I)
    while (Committed[I] < EpochsPerAgent)
      Agents[I]->commitEpoch(chaosProfile(I, ++Committed[I]));
  drainAll(Agents, *Agg, Hub, Tick);

  FleetState Final = Agg->stateCopy();
  for (size_t I = 0; I < NumAgents; ++I) {
    SCOPED_TRACE(::testing::Message() << "agent " << I);
    FleetAgentStats S = Agents[I]->stats();
    EXPECT_TRUE(Agents[I]->drained());
    EXPECT_EQ(Agents[I]->lastEpoch(), EpochsPerAgent);
    EXPECT_EQ(S.CommittedEpochs, EpochsPerAgent);
    EXPECT_EQ(S.DurableEpoch, EpochsPerAgent);
    StreamKey Key{"chaos-" + std::to_string(I), Seed};
    EXPECT_EQ(Final.latestEpoch(Key), EpochsPerAgent);
    // The merged view carries the cumulative (latest-epoch) contents.
    EXPECT_EQ(Final.streams().at(Key).Latest.Contexts[0].Stats.Allocations,
              EpochsPerAgent * (10 + I));

    // WAL ledger: structurally intact end to end — no torn frames, no
    // epoch outside the committed range (stale-but-compactable leftovers
    // below the durable mark are legal when compaction faults fired).
    SpillWal::LoadResult Wal;
    std::string Err;
    ASSERT_TRUE(SpillWal::load(
        (Dir.Path / ("chaos-" + std::to_string(I) + ".wal")).string(), Wal,
        Err))
        << Err;
    EXPECT_EQ(Wal.TornBytes, 0u);
    for (const SpillWal::Record &R : Wal.Records)
      EXPECT_LE(R.Epoch, EpochsPerAgent);
  }

  // The snapshot on disk reloads cleanly and matches the live state
  // byte for byte.
  FleetState Loaded;
  SnapshotLoadResult LR = loadSnapshot(SnapPath, Loaded, false);
  ASSERT_TRUE(LR.ok()) << LR.Message;
  EXPECT_EQ(encodeSnapshot(Loaded), encodeSnapshot(Final));
}

TEST(FleetChaosTest, AggregatorKillRestartLosesNoCommittedEpoch) {
  const uint64_t Seed = chaosSeed();
  CHAOS_TRACE(Seed);
  TempDir Dir("cham-fleet-chaos-kill");
  const std::string SnapPath = (Dir.Path / "fleet.snap").string();

  InMemoryHub Hub;
  FleetAgentConfig AC;
  AC.AgentId = "survivor";
  AC.RunSeed = Seed;
  AC.WalPath = (Dir.Path / "survivor.wal").string();
  std::vector<std::unique_ptr<FleetAgent>> Agents;
  Agents.push_back(std::make_unique<FleetAgent>(AC, Hub));
  FleetAgent &Agent = *Agents[0];
  std::string Err;
  ASSERT_TRUE(Agent.recover(Err)) << Err;

  uint64_t Tick = 0;
  {
    auto Agg = std::make_unique<FleetAggregator>(aggConfig(SnapPath));
    EXPECT_TRUE(Agg->loadInitial().ok());
    Agent.commitEpoch(chaosProfile(7, 1));
    Agent.commitEpoch(chaosProfile(7, 2));
    drainAll(Agents, *Agg, Hub, Tick);
    ASSERT_EQ(Agent.stats().DurableEpoch, 2u);
    // Kill without a goodbye: destructor runs, no extra persist call.
    Hub.stopServer();
  }

  // Two more commits while the aggregator is dead: WAL-only.
  Agent.commitEpoch(chaosProfile(7, 3));
  Agent.commitEpoch(chaosProfile(7, 4));
  for (int I = 0; I < 20; ++I)
    Agent.pump(Tick++);
  EXPECT_EQ(Agent.stats().DurableEpoch, 2u);
  SpillWal::LoadResult Wal;
  ASSERT_TRUE(SpillWal::load(AC.WalPath, Wal, Err)) << Err;
  EXPECT_GE(Wal.Records.size(), 2u) << "epochs 3 and 4 must be spilled";

  // Restart from the snapshot: epoch 2 is restored, 3..4 replay from the
  // agent's WAL-backed queue.
  FleetAggregator Agg(aggConfig(SnapPath));
  ASSERT_TRUE(Agg.loadInitial().ok());
  EXPECT_EQ(Agg.stateCopy().latestEpoch({"survivor", Seed}), 2u);
  Hub.startServer();
  drainAll(Agents, Agg, Hub, Tick);

  EXPECT_TRUE(Agent.drained());
  EXPECT_EQ(Agent.stats().DurableEpoch, 4u);
  EXPECT_EQ(Agg.stateCopy().latestEpoch({"survivor", Seed}), 4u);
  EXPECT_EQ(Agg.mergedProfile().Contexts[0].Stats.Allocations, 4u * 17);
}

TEST(FleetChaosTest, CorruptSnapshotQuarantinesThenSelfHeals) {
  const uint64_t Seed = chaosSeed();
  CHAOS_TRACE(Seed);
  TempDir Dir("cham-fleet-chaos-corrupt");
  const std::string SnapPath = (Dir.Path / "fleet.snap").string();

  InMemoryHub Hub;
  FleetAgentConfig AC;
  AC.AgentId = "healer";
  AC.RunSeed = Seed;
  AC.WalPath = (Dir.Path / "healer.wal").string();
  std::vector<std::unique_ptr<FleetAgent>> Agents;
  Agents.push_back(std::make_unique<FleetAgent>(AC, Hub));
  FleetAgent &Agent = *Agents[0];
  std::string Err;
  ASSERT_TRUE(Agent.recover(Err)) << Err;

  uint64_t Tick = 0;
  {
    FleetAggregator Agg(aggConfig(SnapPath));
    EXPECT_TRUE(Agg.loadInitial().ok());
    for (uint64_t E = 1; E <= 3; ++E)
      Agent.commitEpoch(chaosProfile(11, E));
    drainAll(Agents, Agg, Hub, Tick);
    ASSERT_EQ(Agent.stats().DurableEpoch, 3u);
    Hub.stopServer();
  }

  // A seeded bit flip somewhere in the snapshot body.
  std::string Bytes;
  {
    std::ifstream In(SnapPath, std::ios::binary);
    ASSERT_TRUE(In.good());
    std::ostringstream Ss;
    Ss << In.rdbuf();
    Bytes = Ss.str();
  }
  ASSERT_GT(Bytes.size(), 16u);
  SplitMix64 Rng(Seed + 3);
  Bytes[Rng.nextBelow(Bytes.size())] ^= 0x40;
  {
    std::ofstream OutF(SnapPath, std::ios::binary | std::ios::trunc);
    OutF.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }

  // Restart: the corrupt file is quarantined with a typed error — never a
  // crash, never partial state.
  FleetAggregator Agg(aggConfig(SnapPath));
  SnapshotLoadResult LR = Agg.loadInitial();
  ASSERT_FALSE(LR.ok());
  EXPECT_NE(LR.Error, SnapshotError::Io) << LR.Message;
  EXPECT_FALSE(LR.QuarantinePath.empty());
  EXPECT_TRUE(fs::exists(LR.QuarantinePath));
  EXPECT_FALSE(fs::exists(SnapPath));
  EXPECT_EQ(Agg.stats().SnapshotQuarantines, 1u);
  EXPECT_TRUE(Agg.stateCopy().empty());

  // Self-heal: epochs are cumulative, so one more commit restores the
  // stream's full state fleet-wide.
  Hub.startServer();
  Agent.commitEpoch(chaosProfile(11, 4));
  drainAll(Agents, Agg, Hub, Tick);

  EXPECT_TRUE(Agent.drained());
  EXPECT_EQ(Agg.stateCopy().latestEpoch({"healer", Seed}), 4u);
  EXPECT_EQ(Agg.mergedProfile().Contexts[0].Stats.Allocations, 4u * 21);
  FleetState Reloaded;
  SnapshotLoadResult RL = loadSnapshot(SnapPath, Reloaded, false);
  ASSERT_TRUE(RL.ok()) << RL.Message;
  EXPECT_EQ(Reloaded.latestEpoch({"healer", Seed}), 4u);
}

} // namespace
