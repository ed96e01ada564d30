//===--- TraceReplayTest.cpp - Record/replay differential tests -----------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The record/replay determinism contract (DESIGN.md §14), proven end to
/// end: a recorded ServerSim run replays to a byte-identical profiling
/// report at MutatorThreads 1, 2, and 8 — including through a file
/// round-trip — recording itself does not perturb the recorded run, and
/// the recorded bytes do not depend on the recording run's thread count.
/// A generated zipf trace with tens of thousands of global registers holds
/// the same contract at the scale where a task touches a tiny fraction of
/// the globals.
///
//===----------------------------------------------------------------------===//

#include "apps/ServerSim.h"
#include "apps/TraceFormat.h"
#include "apps/TraceWorkload.h"
#include "apps/WorkloadGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>

using namespace chameleon;
using namespace chameleon::apps;

namespace {

ServerSimConfig smallSimConfig() {
  ServerSimConfig Config;
  Config.Sessions = 8;
  Config.Epochs = 3;
  Config.RequestsPerEpoch = 96;
  Config.HistoryBound = 16;
  return Config;
}

/// Records one ServerSim run; returns the trace and the live report.
Trace recordServerSim(std::string &ReportOut) {
  TraceCapture Capture;
  ServerSimConfig Config = smallSimConfig();
  Config.RecordTo = &Capture;
  CollectionRuntime RT(serverSimRuntimeConfig());
  ServerSimResult Result = runServerSim(RT, Config);
  ReportOut = Result.Report;
  return Capture.finish();
}

std::string replayWithThreads(const Trace &T, uint32_t Threads) {
  ReplayConfig Config;
  Config.MutatorThreads = Threads;
  CollectionRuntime RT(traceReplayRuntimeConfig(Config));
  ReplayResult R = replayTrace(RT, T, Config);
  EXPECT_TRUE(R.Ok) << R.Error;
  return R.Report;
}

TEST(TraceReplay, RecordingDoesNotChangeTheRun) {
  std::string Recorded;
  Trace T = recordServerSim(Recorded);
  CollectionRuntime RT(serverSimRuntimeConfig());
  ServerSimResult Plain = runServerSim(RT, smallSimConfig());
  EXPECT_EQ(Plain.Report, Recorded);
  EXPECT_EQ(T.taskCount(), 3u * 96u);
  ASSERT_TRUE(T.Boot.has_value());
  EXPECT_EQ(T.Boot->Ops.size(), 2u * 8u);
}

TEST(TraceReplay, RecordingIsByteIdenticalAtAnyThreadCount) {
  // Workers submit their recorded tasks in whatever order they finish;
  // TraceCapture::finish must sort them back into one canonical trace.
  std::string First;
  for (uint32_t Threads : {1u, 4u, 8u}) {
    TraceCapture Capture;
    ServerSimConfig Config = smallSimConfig();
    Config.MutatorThreads = Threads;
    Config.RecordTo = &Capture;
    CollectionRuntime RT(serverSimRuntimeConfig());
    runServerSim(RT, Config);
    std::string Bytes = writeTrace(Capture.finish());
    if (Threads == 1)
      First = Bytes;
    else
      EXPECT_EQ(Bytes, First) << "MutatorThreads=" << Threads;
  }
  EXPECT_FALSE(First.empty());
}

TEST(TraceReplay, ByteIdenticalReportAtAnyThreadCount) {
  std::string Recorded;
  Trace T = recordServerSim(Recorded);
  ASSERT_TRUE(validateTrace(T));
  for (uint32_t Threads : {1u, 2u, 8u}) {
    std::string Replayed = replayWithThreads(T, Threads);
    EXPECT_EQ(Replayed, Recorded) << "MutatorThreads=" << Threads;
  }
}

TEST(TraceReplay, SurvivesAFileRoundTrip) {
  std::string Recorded;
  Trace T = recordServerSim(Recorded);
  std::string Path = testing::TempDir() + "/chamtrace_serversim.trace";
  std::string Error;
  ASSERT_TRUE(writeTraceFile(Path, T, &Error)) << Error;
  Trace Back;
  ASSERT_TRUE(readTraceFile(Path, Back, &Error)) << Error;
  std::remove(Path.c_str());
  EXPECT_EQ(Back.Header.Generator, "serversim");
  EXPECT_EQ(replayWithThreads(Back, 2), Recorded);
}

TEST(TraceReplay, ManyGlobalsReplayIsByteIdentical) {
  WorkloadGenConfig Config;
  Config.Sessions = 1u << 14;
  Config.Epochs = 2;
  Config.RequestsPerEpoch = 512;
  Trace T = generateZipfTrace(Config);
  ASSERT_EQ(T.Header.Globals, 1u << 15);
  ASSERT_TRUE(validateTrace(T));

  const std::string OneThread = replayWithThreads(T, 1);
  EXPECT_FALSE(OneThread.empty());
  EXPECT_EQ(replayWithThreads(T, 4), OneThread);
}

/// The heaviest worker's op count over the mean, for one epoch split.
double loadImbalance(const std::vector<TraceTask> &Tasks,
                     const EpochPartition &P) {
  uint64_t Max = 0, Total = 0;
  for (const std::vector<uint32_t> &Worker : P) {
    uint64_t Load = 0;
    for (uint32_t I : Worker)
      Load += Tasks[I].Ops.size();
    Max = std::max(Max, Load);
    Total += Load;
  }
  return static_cast<double>(Max) * static_cast<double>(P.size())
         / static_cast<double>(Total);
}

TEST(TraceReplay, LoadPartitionKeepsSessionsWholeAndBalancesZipf) {
  WorkloadGenConfig Config;
  applyWorkloadScale(WorkloadScale::Large, Config);
  Config.Epochs = 3;
  Trace T = generateZipfTrace(Config);
  for (const std::vector<TraceTask> &Tasks : T.Epochs) {
    // One worker runs the whole epoch in trace order.
    EpochPartition One = partitionEpochByLoad(Tasks, 1);
    ASSERT_EQ(One.size(), 1u);
    ASSERT_EQ(One[0].size(), Tasks.size());
    for (uint32_t I = 0; I < One[0].size(); ++I)
      ASSERT_EQ(One[0][I], I);

    EpochPartition Four = partitionEpochByLoad(Tasks, 4);
    ASSERT_EQ(Four.size(), 4u);
    std::map<uint32_t, size_t> WorkerOfSession;
    size_t Assigned = 0;
    for (size_t W = 0; W < Four.size(); ++W) {
      for (size_t K = 0; K < Four[W].size(); ++K) {
        const TraceTask &Task = Tasks[Four[W][K]];
        if (K != 0) {
          ASSERT_LT(Tasks[Four[W][K - 1]].Id, Task.Id)
              << "worker " << W << " runs its tasks out of id order";
        }
        auto [It, New] = WorkerOfSession.emplace(Task.Session, W);
        ASSERT_EQ(It->second, W)
            << "session " << Task.Session << " split across workers";
      }
      Assigned += Four[W].size();
    }
    EXPECT_EQ(Assigned, Tasks.size());

    // Zipf(1.1) is skewed enough that the static s % 4 split is not
    // balanced; the load split must be within 5% of the mean.
    EpochPartition Modulo(4);
    for (uint32_t I = 0; I < Tasks.size(); ++I)
      Modulo[Tasks[I].Session % 4].push_back(I);
    EXPECT_GT(loadImbalance(Tasks, Modulo), 1.2);
    EXPECT_LE(loadImbalance(Tasks, Four), 1.05);
  }
}

TEST(TraceReplay, ReplayRejectsInvalidTraces) {
  std::string Recorded;
  Trace T = recordServerSim(Recorded);
  T.Epochs[0][0].FrameIdx = 1000; // out of range
  ReplayConfig Config;
  CollectionRuntime RT(traceReplayRuntimeConfig(Config));
  ReplayResult R = replayTrace(RT, T, Config);
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_TRUE(R.Report.empty());
}

} // namespace
