//===--- micro_trace_replay.cpp - Record overhead & replay rate -*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cost side of the trace record/replay engine (DESIGN.md §14).
/// Four measurements:
///
///  1. Per-hook cost of a disarmed recording hook: ServerSim's handlers
///     carry one `if (Rec)` null check per collection op. A tight loop
///     over that check minus the same loop without it, times the exact
///     hooks-per-request count read back from a recorded trace, divided
///     by the per-request time. This is the only cost normal runs ever
///     pay; the headline claim is that it stays under 2%.
///  2. Armed recording overhead: the same run with a TraceCapture armed
///     vs disarmed. Recording is a diagnostic mode — record once, replay
///     many — so this is reported as a trajectory number, not a budget.
///  3. Replay throughput: ops/s feeding the recorded trace back through
///     the mutator pool at 1 and 4 threads.
///  4. Serialization rates a soak loop pays (write/read MiB/s).
///
/// `--json <path>` writes the bench/BENCH_trace.json perf-trajectory
/// record; `--quick` shrinks the run for sanitizer CI.
///
//===----------------------------------------------------------------------===//

#include "apps/ServerSim.h"
#include "apps/TraceFormat.h"
#include "apps/TraceWorkload.h"
#include "support/Format.h"

#include "Harness.h"

#include <cstdio>

using namespace chameleon;
using namespace chameleon::apps;

namespace {

/// One mutator thread: the record-overhead pair must not be polluted by
/// scheduler churn when cores are scarce; replay throughput measures its
/// own thread counts explicitly.
ServerSimConfig benchSimConfig(bool Quick) {
  ServerSimConfig Config;
  Config.MutatorThreads = 1;
  Config.Sessions = 16;
  Config.Epochs = Quick ? 2 : 4;
  Config.RequestsPerEpoch = Quick ? 600 : 4800;
  return Config;
}

/// Nanoseconds one disarmed recording hook adds to a loop iteration: the
/// `if (Rec)` null check ServerSim's handlers execute per collection op.
/// The pointer is re-read through a volatile each iteration so the check
/// cannot be hoisted, matching the real hook (Rec is a live parameter).
double disarmedHookNs(uint64_t Iters) {
  TaskTrace *volatile RecSlot = nullptr;
  return bench::siteNs(Iters, [&] {
    TaskTrace *Rec = RecSlot;
    if (Rec)
      Rec->op0(TraceOpCode::Size, 0);
  });
}

/// Wall seconds of one ServerSim run, optionally recording.
double simSeconds(const ServerSimConfig &Base, TraceCapture *Capture) {
  ServerSimConfig Config = Base;
  Config.RecordTo = Capture;
  CollectionRuntime RT(serverSimRuntimeConfig());
  bench::Clock::time_point Start = bench::Clock::now();
  runServerSim(RT, Config);
  return bench::secondsSince(Start);
}

/// Median run time over \p Reps runs (recording when \p Record).
double medianSimSeconds(const ServerSimConfig &Base, bool Record, int Reps) {
  return bench::medianOf(Reps, [&] {
    TraceCapture Capture;
    double Seconds = simSeconds(Base, Record ? &Capture : nullptr);
    if (Record)
      Capture.finish();
    return Seconds;
  });
}

/// Replay ops/s at \p Threads (median over \p Reps).
double replayOpsPerSec(const Trace &T, uint32_t Threads, int Reps) {
  return bench::medianOf(Reps, [&] {
    ReplayConfig Config;
    Config.MutatorThreads = Threads;
    CollectionRuntime RT(traceReplayRuntimeConfig(Config));
    bench::Clock::time_point Start = bench::Clock::now();
    ReplayResult R = replayTrace(RT, T, Config);
    double Secs = bench::secondsSince(Start);
    if (!R.Ok) {
      std::fprintf(stderr, "replay failed: %s\n", R.Error.c_str());
      std::exit(1);
    }
    return static_cast<double>(R.Ops) / Secs;
  });
}

} // namespace

int main(int argc, char **argv) {
  bench::Harness H("micro_trace_replay", argc, argv, {{"--quick"}});
  const int Reps = H.quick() ? 3 : 5;
  const uint64_t HookIters = H.quick() ? 2'000'000 : 20'000'000;
  ServerSimConfig Base = benchSimConfig(H.quick());
  const uint64_t Requests =
      static_cast<uint64_t>(Base.Epochs) * Base.RequestsPerEpoch;

  std::printf("== micro: trace record overhead & replay throughput ==\n\n");

  // Warm-up run (first-touch allocator and page costs land here).
  (void)simSeconds(Base, nullptr);

  double HookNs = disarmedHookNs(HookIters);
  double Disarmed = medianSimSeconds(Base, /*Record=*/false, Reps);
  double Armed = medianSimSeconds(Base, /*Record=*/true, Reps);
  double ArmedOverheadPct = (Armed / Disarmed - 1.0) * 100.0;

  // One recorded trace supplies the exact hooks-per-request count and
  // feeds the replay and serialization measurements.
  TraceCapture Capture;
  (void)simSeconds(Base, &Capture);
  Trace T = Capture.finish();
  double HooksPerRequest =
      static_cast<double>(T.opCount()) / static_cast<double>(Requests);
  double RequestNs = Disarmed * 1e9 / static_cast<double>(Requests);
  double DisarmedOverheadPct = HookNs * HooksPerRequest / RequestNs * 100.0;

  bench::Table &RecordTable = H.table(
      "record_overhead",
      {{"recorder"}, {"run ms", {2}}, {"vs disarmed", {3, "x"}}});
  RecordTable.addRow({"disarmed", Disarmed * 1e3, 1.0});
  RecordTable.addRow({"armed (recording)", Armed * 1e3, Armed / Disarmed});
  std::printf("%s\n", RecordTable.render().c_str());

  std::printf("disarmed hook: %s ns x %s hooks/request over %s ns/request"
              " = %s%% overhead\n",
              H.metric("disarmed_hook_ns", HookNs, {3}).c_str(),
              H.metric("hooks_per_request", HooksPerRequest, {1}).c_str(),
              H.metric("request_ns", RequestNs).c_str(),
              H.metric("disarmed_overhead_pct", DisarmedOverheadPct, {3})
                  .c_str());
  std::printf("\nheadline: the recording hooks left compiled into ServerSim"
              " cost %s%%\nwhen disarmed (budget: <= 2%%) — recording costs"
              " nothing until a capture\nis armed. Armed recording adds"
              " %s%% and is paid once per recorded trace.\n",
              formatDouble(DisarmedOverheadPct, 3).c_str(),
              H.metric("record_overhead_pct", ArmedOverheadPct, {1}).c_str());
  if (DisarmedOverheadPct >= 2.0)
    std::printf("WARNING: disarmed overhead claim violated (%.3f%% >= 2%%)\n",
                DisarmedOverheadPct);

  double Replay1 = replayOpsPerSec(T, 1, Reps);
  double Replay4 = replayOpsPerSec(T, 4, Reps);

  bench::Clock::time_point Start = bench::Clock::now();
  std::string Bytes = writeTrace(T);
  double WriteSecs = bench::secondsSince(Start);
  Trace Back;
  Start = bench::Clock::now();
  if (!readTrace(Bytes, Back)) {
    std::fprintf(stderr, "re-read of the serialized trace failed\n");
    return 1;
  }
  double ReadSecs = bench::secondsSince(Start);
  double Mb = static_cast<double>(Bytes.size()) / (1024.0 * 1024.0);

  // Differently formatted values: each row is one metric.
  TextTable ReplayTable({"measurement", "value"});
  ReplayTable.addRow({"replay ops/s (1 thread)",
                      H.metric("replay_ops_per_s_1_thread", Replay1)});
  ReplayTable.addRow({"replay ops/s (4 threads)",
                      H.metric("replay_ops_per_s_4_threads", Replay4)});
  ReplayTable.addRow(
      {"trace size", H.metric("trace_mib", Mb, {2, " MiB"})});
  ReplayTable.addRow({"serialize", H.metric("serialize_mib_per_s",
                                            Mb / WriteSecs, {1, " MiB/s"})});
  ReplayTable.addRow({"deserialize", H.metric("deserialize_mib_per_s",
                                              Mb / ReadSecs, {1, " MiB/s"})});
  std::printf("\n%s\n", ReplayTable.render().c_str());
  return H.finish();
}
