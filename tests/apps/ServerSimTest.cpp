//===--- ServerSimTest.cpp - Thread-count invariance tests ----------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The determinism contract of the concurrent-mutator pipeline (DESIGN.md
/// §9), proven end to end: the multi-threaded server workload produces a
/// byte-identical profiling report — GC cycle records and per-context
/// statistics — no matter how many mutator threads handled the requests.
///
//===----------------------------------------------------------------------===//

#include "apps/ServerSim.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace chameleon;
using namespace chameleon::apps;
using chameleon::testing::metricValue;

namespace {

ServerSimResult runWithThreads(uint32_t Threads) {
  CollectionRuntime RT(serverSimRuntimeConfig());
  ServerSimConfig Config;
  Config.MutatorThreads = Threads;
  return runServerSim(RT, Config);
}

TEST(ServerSim, MutatorThreadsInvariance) {
  ServerSimResult One = runWithThreads(1);
  ASSERT_FALSE(One.Report.empty());
  EXPECT_EQ(One.TotalRequests, 720u);
  // The report must mention both halves: cycles and contexts.
  EXPECT_NE(One.Report.find("gc cycles:"), std::string::npos);
  EXPECT_NE(One.Report.find("contexts:"), std::string::npos);

  ServerSimResult Two = runWithThreads(2);
  ServerSimResult Eight = runWithThreads(8);
  EXPECT_EQ(One.Report, Two.Report)
      << "2-thread report diverged from the single-threaded baseline";
  EXPECT_EQ(One.Report, Eight.Report)
      << "8-thread report diverged from the single-threaded baseline";
}

std::string slurp(const std::string &Path) {
  std::string Out;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Out;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  std::fclose(F);
  return Out;
}

/// Telemetry is strictly read-only: exporting a bundle must not perturb
/// the simulation, so the report stays byte-identical to a plain run —
/// and the trace ring must be sized so a tier-1 workload never overflows
/// it (cham.obs.trace_dropped stays zero; a dropped event would make the
/// exported timeline depend on scheduling).
TEST(ServerSim, TelemetryDoesNotChangeTheReport) {
  ServerSimResult Plain = runWithThreads(4);
  ASSERT_FALSE(Plain.Report.empty());

  const uint64_t Dropped0 = metricValue("cham.obs.trace_dropped");
  CollectionRuntime RT(serverSimRuntimeConfig());
  ServerSimConfig Config;
  Config.MutatorThreads = 4;
  Config.TelemetryOutDir = ::testing::TempDir() + "serversim-telemetry";
  ServerSimResult Traced = runServerSim(RT, Config);

  EXPECT_EQ(Plain.Report, Traced.Report)
      << "telemetry export perturbed the simulation";
  EXPECT_FALSE(obs::TraceRecorder::enabled())
      << "runServerSim must disarm the recorder before returning";
  EXPECT_EQ(metricValue("cham.obs.trace_dropped") - Dropped0, 0u)
      << "trace ring overflowed during a tier-1 workload";
}

/// The exported bundle is complete and well-formed: valid JSON with GC
/// phase spans and request spans on the timeline (chaos mode adds the
/// migration/degradation events — covered by the chameleon-stats smoke
/// tests over a chaos bundle).
TEST(ServerSim, TelemetryBundleHasExpectedTimeline) {
  CollectionRuntime RT(serverSimRuntimeConfig());
  ServerSimConfig Config;
  Config.TelemetryOutDir = ::testing::TempDir() + "serversim-bundle";
  runServerSim(RT, Config);

  std::string Trace = slurp(Config.TelemetryOutDir + "/trace.json");
  ASSERT_FALSE(Trace.empty()) << "trace.json was not written";
  obs::json::Value Doc;
  std::string Error;
  ASSERT_TRUE(obs::json::parse(Trace, Doc, &Error)) << Error;
  const obs::json::Value *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);

  bool SawGcCycle = false, SawMark = false, SawSweep = false;
  bool SawRequest = false, SawBarrier = false;
  for (const obs::json::Value &Ev : Events->array()) {
    const std::string Cat = Ev.strOr("cat", "");
    const std::string Name = Ev.strOr("name", "");
    SawGcCycle |= Cat == "gc" && Name == "cycle";
    SawMark |= Cat == "gc" && Name == "mark";
    SawSweep |= Cat == "gc" && Name == "sweep";
    SawRequest |= Cat == "server" && Name == "request";
    SawBarrier |= Cat == "server" && Name == "epoch_barrier";
  }
  EXPECT_TRUE(SawGcCycle);
  EXPECT_TRUE(SawMark);
  EXPECT_TRUE(SawSweep);
  EXPECT_TRUE(SawRequest);
  EXPECT_TRUE(SawBarrier);

  std::string Metrics = slurp(Config.TelemetryOutDir + "/metrics.json");
  ASSERT_TRUE(obs::json::parse(Metrics, Doc, &Error)) << Error;
  bool SawGcCycles = false;
  for (const obs::json::Value &M : Doc.find("metrics")->array())
    SawGcCycles |= M.strOr("name", "") == "cham.gc.cycles" &&
                   M.numberOr("value", 0) > 0;
  EXPECT_TRUE(SawGcCycles) << "cham.gc.cycles missing or zero";

  std::string Prom = slurp(Config.TelemetryOutDir + "/metrics.prom");
  EXPECT_NE(Prom.find("# TYPE cham_gc_pause_hdr_nanos summary"),
            std::string::npos);
}

TEST(ServerSim, ReportReflectsWorkload) {
  ServerSimResult R = runWithThreads(4);
  // The request-scoped scratch/result contexts and the session state
  // contexts must all appear, with the boot allocations accounted.
  EXPECT_NE(R.Report.find("server.Session.attrs:31"), std::string::npos);
  EXPECT_NE(R.Report.find("server.Session.history:32"), std::string::npos);
  EXPECT_NE(R.Report.find("server.LoginHandler.scratch:58"),
            std::string::npos);
  EXPECT_NE(R.Report.find("server.QueryHandler.results:91"),
            std::string::npos);
  // One forced statistics cycle per epoch.
  EXPECT_NE(R.Report.find("cycle 3 forced=1"), std::string::npos);
}

} // namespace
