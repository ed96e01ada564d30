//===--- FleetPipelineTest.cpp - Agent/aggregator pipeline -----*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end fleet pipeline over the deterministic InMemoryHub: the
/// commit/ack/durable protocol, exponential backoff with seeded jitter,
/// AIMD queue shedding, WAL replay across agent restarts, and the two
/// acceptance byte-identity properties — the merged fleet profile does not
/// depend on agent arrival order, nor on each process's mutator thread
/// count (1/2/8, via real workload-zoo trace replays).
///
//===----------------------------------------------------------------------===//

#include "FleetFixtures.h"

#include "apps/WorkloadGen.h"
#include "fleet/Agent.h"
#include "fleet/Aggregator.h"
#include "fleet/Snapshot.h"
#include "fleet/Transport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

using namespace chameleon;
using namespace chameleon::apps;
using namespace chameleon::fleet;
using fixtures::replayAndCapture;

namespace {

namespace fs = std::filesystem;

/// Minimal one-context profile; cumulative per \p Epoch (Allocations grows
/// with the epoch so later always supersedes earlier).
ProcessProfile tinyProfile(uint64_t Epoch) {
  ProcessProfile P;
  P.Epoch = Epoch;
  P.Heap.CyclesSeen = Epoch;
  P.Heap.Live = TotalMax::fromParts(100 * Epoch, 100, Epoch);
  ContextProfile C;
  C.TypeName = "ArrayList";
  C.Frames = {"site:1"};
  C.Stats.Allocations = 10 * Epoch;
  P.Contexts.push_back(std::move(C));
  return P;
}

/// In-memory aggregator that persists (= advances the durable marks) on
/// every applied update, so the very next ack already advertises the
/// fresh durable epoch and agents can drain without a reconnect.
FleetAggregatorConfig persistEveryUpdate() {
  FleetAggregatorConfig C;
  C.PersistEveryUpdates = 1;
  return C;
}

/// Runs both sides until the agent drains or \p MaxTicks elapse; returns
/// the tick budget left (0 = did not drain).
uint64_t pumpUntilDrained(FleetAgent &Agent, FleetAggregator &Agg,
                          InMemoryHub &Hub, uint64_t &Tick,
                          uint64_t MaxTicks = 1000) {
  while (MaxTicks > 0 && !Agent.drained()) {
    Agent.pump(Tick++);
    for (auto &C : Hub.acceptAll())
      Agg.attach(std::move(C));
    Agg.pump();
    // Acks land on the agent's next pump; persist every round so durable
    // marks advance (in-memory aggregator: persist is mark-only).
    std::string Err;
    Agg.persist(Err);
    --MaxTicks;
  }
  return MaxTicks;
}

TEST(FleetPipelineTest, CommitsFlowToDurable) {
  InMemoryHub Hub;
  FleetAggregator Agg(persistEveryUpdate());
  FleetAgentConfig AC;
  AC.AgentId = "a0";
  AC.RunSeed = 1;
  FleetAgent Agent(AC, Hub);

  for (uint64_t E = 1; E <= 5; ++E)
    EXPECT_EQ(Agent.commitEpoch(tinyProfile(E)), E);

  uint64_t Tick = 0;
  ASSERT_GT(pumpUntilDrained(Agent, Agg, Hub, Tick), 0u);

  FleetAgentStats S = Agent.stats();
  EXPECT_EQ(S.CommittedEpochs, 5u);
  EXPECT_EQ(S.DurableEpoch, 5u);
  EXPECT_EQ(S.Connects, 1u);
  EXPECT_EQ(Agg.stateCopy().latestEpoch({"a0", 1}), 5u);
  ProcessProfile Merged = Agg.mergedProfile();
  EXPECT_EQ(Merged.Epoch, 5u);
  ASSERT_EQ(Merged.Contexts.size(), 1u);
  EXPECT_EQ(Merged.Contexts[0].Stats.Allocations, 50u); // cumulative epoch 5 only
}

TEST(FleetPipelineTest, BackoffIsExponentialAndSeedDeterministic) {
  InMemoryHub Hub;
  Hub.stopServer(); // nothing listening: every dial fails

  auto runSchedule = [&](const std::string &AgentId, uint64_t RunSeed) {
    FleetAgentConfig AC;
    AC.AgentId = AgentId;
    AC.RunSeed = RunSeed;
    FleetAgent Agent(AC, Hub);
    Agent.commitEpoch(tinyProfile(1)); // give it a reason to dial
    std::vector<uint64_t> FailTicks;
    uint64_t PrevFailures = 0;
    for (uint64_t T = 0; T < 200; ++T) {
      Agent.pump(T);
      uint64_t F = Agent.stats().ConnectFailures;
      if (F != PrevFailures) {
        FailTicks.push_back(T);
        PrevFailures = F;
      }
    }
    return FailTicks;
  };

  std::vector<uint64_t> A = runSchedule("a0", 1);
  std::vector<uint64_t> B = runSchedule("a0", 1);
  std::vector<uint64_t> C = runSchedule("a0", 2);
  std::vector<uint64_t> D = runSchedule("a1", 1);
  EXPECT_EQ(A, B) << "same stream must replay the same dial schedule";
  EXPECT_NE(A, C) << "different runs must draw different jitter";
  EXPECT_NE(A, D) << "different agents must draw different jitter";

  // Gaps grow (geometrically, up to cap + jitter): the last gap must be
  // several times the first, and attempts must be far sparser than ticks.
  ASSERT_GE(A.size(), 4u);
  uint64_t FirstGap = A[1] - A[0];
  uint64_t LastGap = A[A.size() - 1] - A[A.size() - 2];
  EXPECT_GE(LastGap, FirstGap * 2);
  EXPECT_LE(A.size(), 40u); // 200 ticks of retry-every-tick would be ~200
}

TEST(FleetPipelineTest, ReconnectsAfterServerRestartAndReplays) {
  InMemoryHub Hub;
  FleetAggregator Agg(persistEveryUpdate());
  FleetAgentConfig AC;
  AC.AgentId = "a0";
  AC.RunSeed = 9;
  FleetAgent Agent(AC, Hub);

  Agent.commitEpoch(tinyProfile(1));
  uint64_t Tick = 0;
  ASSERT_GT(pumpUntilDrained(Agent, Agg, Hub, Tick), 0u);

  // Kill the server mid-stream; the agent sees death and backs off.
  Hub.stopServer();
  Agent.commitEpoch(tinyProfile(2));
  for (uint64_t End = Tick + 50; Tick < End; ++Tick)
    Agent.pump(Tick);
  EXPECT_FALSE(Agent.drained());
  EXPECT_GE(Agent.stats().Disconnects, 1u);

  Hub.startServer();
  ASSERT_GT(pumpUntilDrained(Agent, Agg, Hub, Tick, 2000), 0u);
  FleetAgentStats S = Agent.stats();
  EXPECT_GE(S.Connects, 2u);
  EXPECT_EQ(S.DurableEpoch, 2u);
  EXPECT_GE(S.ReplayedRecords, 1u) << "epoch 2 re-sent on the new connection";
  EXPECT_EQ(Agg.stateCopy().latestEpoch({"a0", 9}), 2u);
}

TEST(FleetPipelineTest, BackpressureShedsCountedAndLosslessly) {
  InMemoryHub Hub;
  Hub.stopServer(); // queue can only grow
  FleetAgentConfig AC;
  AC.AgentId = "a0";
  AC.MaxQueue = 4;
  FleetAgent Agent(AC, Hub);

  for (uint64_t E = 1; E <= 64; ++E) {
    Agent.commitEpoch(tinyProfile(E));
    Agent.pump(E);
  }
  FleetAgentStats S = Agent.stats();
  EXPECT_EQ(S.CommittedEpochs, 64u);
  EXPECT_GT(S.ShedRecords, 0u) << "queue bound must shed";
  EXPECT_GT(S.SendStride, 1u) << "AIMD stride must have backed off";

  // Shedding loses nothing: once the server returns, the cumulative
  // latest epoch still becomes durable.
  Hub.startServer();
  FleetAggregator Agg(persistEveryUpdate());
  uint64_t Tick = 1000;
  ASSERT_GT(pumpUntilDrained(Agent, Agg, Hub, Tick, 4000), 0u);
  EXPECT_EQ(Agent.stats().DurableEpoch, 64u);
  EXPECT_EQ(Agg.mergedProfile().Contexts[0].Stats.Allocations, 640u);
}

TEST(FleetPipelineTest, WalReplaysAcrossAgentRestart) {
  fs::path Dir = fs::temp_directory_path() / "cham-fleet-walreplay";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  std::string WalPath = (Dir / "agent.wal").string();

  InMemoryHub Hub;
  Hub.stopServer(); // aggregator never up in the first life

  FleetAgentConfig AC;
  AC.AgentId = "a0";
  AC.RunSeed = 3;
  AC.WalPath = WalPath;
  {
    FleetAgent Agent(AC, Hub);
    std::string Err;
    ASSERT_TRUE(Agent.recover(Err)) << Err;
    for (uint64_t E = 1; E <= 6; ++E) {
      Agent.commitEpoch(tinyProfile(E));
      Agent.pump(E);
    }
    EXPECT_EQ(Agent.stats().CommittedEpochs, 6u);
    EXPECT_EQ(Agent.stats().DurableEpoch, 0u);
  } // agent process "crashes" — only the WAL survives

  Hub.startServer();
  FleetAggregator Agg(persistEveryUpdate());
  FleetAgent Agent(AC, Hub);
  std::string Err;
  ASSERT_TRUE(Agent.recover(Err)) << Err;
  EXPECT_EQ(Agent.lastEpoch(), 6u) << "WAL must restore the epoch sequence";

  uint64_t Tick = 0;
  ASSERT_GT(pumpUntilDrained(Agent, Agg, Hub, Tick, 2000), 0u);
  EXPECT_EQ(Agent.stats().DurableEpoch, 6u);
  EXPECT_GT(Agent.stats().SentRecords, 0u);
  EXPECT_EQ(Agg.stateCopy().latestEpoch({"a0", 3}), 6u);

  // Post-drain the WAL is compacted to (at most) the durable tail.
  SpillWal::LoadResult Left;
  ASSERT_TRUE(SpillWal::load(WalPath, Left, Err)) << Err;
  EXPECT_TRUE(Left.Records.empty());
  fs::remove_all(Dir);
}

TEST(FleetPipelineTest, VersionSkewDropsCleanly) {
  // An aggregator that answers Hello with a wrong-version HelloAck: the
  // agent must count the skew and drop, not wedge.
  InMemoryHub Hub;
  FleetAgentConfig AC;
  FleetAgent Agent(AC, Hub);
  Agent.commitEpoch(tinyProfile(1));
  Agent.pump(0); // dials + sends Hello
  auto Conns = Hub.acceptAll();
  ASSERT_EQ(Conns.size(), 1u);
  HelloAckMsg Bad;
  Bad.Version = WireVersion + 1;
  std::string Framed;
  frameMessage(Framed, encodeHelloAck(Bad));
  ASSERT_TRUE(Conns[0]->send(Framed));
  Agent.pump(1);
  EXPECT_EQ(Agent.stats().VersionSkews, 1u);
  EXPECT_GE(Agent.stats().Disconnects, 1u);
}

//===----------------------------------------------------------------------===//
// Acceptance byte-identity: arrival order x mutator threads
//===----------------------------------------------------------------------===//

TEST(FleetPipelineTest, MergedProfileByteIdenticalAcrossThreadCounts) {
  const WorkloadGenerator *G = findWorkloadGenerator("zipf");
  ASSERT_NE(G, nullptr);
  std::string Baseline;
  for (uint32_t Threads : {1u, 2u, 8u}) {
    ProcessProfile P = replayAndCapture(*G, Threads);
    ASSERT_GT(P.Contexts.size(), 0u);
    std::string Enc;
    encodeProcessProfile(Enc, P);
    if (Baseline.empty())
      Baseline = Enc;
    else
      EXPECT_EQ(Enc, Baseline)
          << "profile diverged at " << Threads << " threads";
  }
}

TEST(FleetPipelineTest, MergedProfileByteIdenticalAcrossArrivalOrder) {
  // Three distinct real profiles (different generators/seeds), committed
  // by three agents; every arrival order must persist identical bytes.
  std::vector<ProcessProfile> Profiles;
  for (const char *Name : {"phase-shift", "zipf", "burst"}) {
    const WorkloadGenerator *G = findWorkloadGenerator(Name);
    ASSERT_NE(G, nullptr);
    Profiles.push_back(replayAndCapture(*G, 2));
  }

  std::string Baseline;
  int Order[] = {0, 1, 2};
  do {
    InMemoryHub Hub;
    FleetAggregator Agg(persistEveryUpdate());
    std::vector<std::unique_ptr<FleetAgent>> Agents;
    for (int I : Order) {
      FleetAgentConfig AC;
      AC.AgentId = "agent-" + std::to_string(I);
      AC.RunSeed = static_cast<uint64_t>(I);
      auto Agent = std::make_unique<FleetAgent>(AC, Hub);
      Agent->commitEpoch(Profiles[static_cast<size_t>(I)]);
      Agents.push_back(std::move(Agent));
    }
    // Interleave pumps in arrival order until everyone drains.
    uint64_t Tick = 0;
    for (int Round = 0; Round < 200; ++Round) {
      bool AllDrained = true;
      for (auto &Agent : Agents) {
        Agent->pump(Tick++);
        AllDrained = AllDrained && Agent->drained();
      }
      for (auto &C : Hub.acceptAll())
        Agg.attach(std::move(C));
      Agg.pump();
      std::string Err;
      Agg.persist(Err);
      if (AllDrained)
        break;
    }
    for (auto &Agent : Agents)
      EXPECT_TRUE(Agent->drained());

    std::string Enc = encodeSnapshot(Agg.stateCopy());
    if (Baseline.empty())
      Baseline = Enc;
    else
      EXPECT_EQ(Enc, Baseline) << "snapshot diverged for arrival order "
                               << Order[0] << Order[1] << Order[2];
  } while (std::next_permutation(std::begin(Order), std::end(Order)));
}

TEST(FleetPipelineTest, FleetRuleEvaluationRunsOnMergedState) {
  const WorkloadGenerator *G = findWorkloadGenerator("phase-shift");
  ASSERT_NE(G, nullptr);
  ProcessProfile P = replayAndCapture(*G, 1);

  InMemoryHub Hub;
  FleetAggregator Agg(persistEveryUpdate());
  FleetAgentConfig AC;
  AC.AgentId = "a0";
  FleetAgent Agent(AC, Hub);
  Agent.commitEpoch(std::move(P));
  uint64_t Tick = 0;
  ASSERT_GT(pumpUntilDrained(Agent, Agg, Hub, Tick), 0u);

  size_t N = 0;
  std::string Report = Agg.evaluateFleetRules(&N);
  // Deterministic: evaluating twice renders the identical report.
  size_t N2 = 0;
  EXPECT_EQ(Agg.evaluateFleetRules(&N2), Report);
  EXPECT_EQ(N, N2);
  // And the human rendering of the merged profile is stable too.
  EXPECT_EQ(renderProfileReport(Agg.mergedProfile()),
            renderProfileReport(Agg.mergedProfile()));
}

} // namespace
