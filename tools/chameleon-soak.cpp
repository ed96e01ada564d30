//===--- chameleon-soak.cpp - Trace-replay chaos soak harness --*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loops the adversarial workload zoo (WorkloadGen.h) through the trace
/// record/replay engine under the fault injector, checking hard invariants
/// on every pass:
///
///  - format: write -> read -> write is byte-identical;
///  - determinism: the replay report is byte-identical across mutator
///    thread counts, and a recorded ServerSim run replays byte-identically
///    to the live run's report;
///  - steady state: on steady-state workloads the heap returns to its
///    baseline at every epoch barrier;
///  - chaos accounting: under fault injection and online adaptation, no
///    migration accounting leaks (requested == committed + aborted,
///    attempts == commits + aborts), the profiler's degradation ledger
///    balances, and the heap verifies.
///
///   chameleon-soak --ci            # one fixed-seed pass, < 60 s
///   chameleon-soak --duration 300  # keep cycling passes for 5 minutes
///   chameleon-soak --gen zipf      # restrict to one generator
///
/// Exit status 0 = every invariant held on every pass.
///
//===----------------------------------------------------------------------===//

#include "apps/ServerSim.h"
#include "apps/TraceWorkload.h"
#include "apps/WorkloadGen.h"
#include "obs/FlightRecorder.h"
#include "runtime/GcCycle.h"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace chameleon;
using namespace chameleon::apps;

namespace {

bool Quiet = false;

void note(const char *Fmt, ...) {
  if (Quiet)
    return;
  va_list Args;
  va_start(Args, Fmt);
  std::vfprintf(stderr, Fmt, Args);
  va_end(Args);
  std::fputc('\n', stderr);
}

[[noreturn]] void fail(const char *Fmt, ...) {
  std::fputs("SOAK FAILURE: ", stderr);
  va_list Args;
  va_start(Args, Fmt);
  std::vfprintf(stderr, Fmt, Args);
  va_end(Args);
  std::fputc('\n', stderr);
  std::exit(1);
}

void printUsage(const char *Argv0) {
  std::printf("usage: %s [options]\n"
              "  --ci               one fixed-seed pass sized for CI\n"
              "  --duration SECS    keep cycling passes for SECS seconds\n"
              "  --seed N           base seed (decimal or 0x hex)\n"
              "  --gen NAME         restrict to one generator (see --list)\n"
              "  --scale NAME       size preset: ci, default, large, million\n"
              "  --list             list the workload zoo and exit\n"
              "  --telemetry-out D  export the chaos pass telemetry bundle\n"
              "  --quiet            only report failures\n"
              "  -h, --help         show this help\n",
              Argv0);
}

uint64_t parseU64(const char *Arg, const char *Flag) {
  char *End = nullptr;
  uint64_t V = std::strtoull(Arg, &End, 0);
  if (End == Arg || *End != '\0') {
    std::fprintf(stderr, "error: %s expects a number, got '%s'\n", Flag, Arg);
    std::exit(2);
  }
  return V;
}

/// Format + determinism + (plain-mode) steady-state checks for one
/// generated trace.
void checkPlainReplay(const WorkloadGenerator &G, const Trace &T,
                      const std::string &Bytes) {
  // write -> read -> write is the identity.
  Trace Back;
  std::string Error;
  if (!readTrace(Bytes, Back, &Error))
    fail("%s: serialized trace does not re-open: %s", G.Name, Error.c_str());
  if (writeTrace(Back) != Bytes)
    fail("%s: write->read->write is not byte-identical", G.Name);

  // Plain replay at 1 thread: on steady-state workloads the heap must
  // return to baseline at every epoch barrier.
  std::string BaseReport;
  {
    ReplayConfig RC;
    RC.MutatorThreads = 1;
    CollectionRuntime RT(traceReplayRuntimeConfig(RC));
    ReplayResult R = replayTrace(RT, T, RC);
    if (!R.Ok)
      fail("%s: plain replay rejected the trace: %s", G.Name,
           R.Error.c_str());
    BaseReport = R.Report;
    if (G.SteadyState) {
      uint64_t Baseline = 0;
      bool First = true;
      for (const GcCycleRecord &Rec : RT.heap().cycles()) {
        if (!Rec.Forced)
          continue;
        if (First) {
          Baseline = Rec.LiveBytes;
          First = false;
        } else if (Rec.LiveBytes != Baseline) {
          fail("%s: heap did not return to baseline: cycle %llu live=%llu "
               "baseline=%llu",
               G.Name, static_cast<unsigned long long>(Rec.Cycle),
               static_cast<unsigned long long>(Rec.LiveBytes),
               static_cast<unsigned long long>(Baseline));
        }
      }
    }
  }

  // The report must not depend on the thread count.
  for (uint32_t Threads : {3u, 4u}) {
    ReplayConfig RC;
    RC.MutatorThreads = Threads;
    CollectionRuntime RT(traceReplayRuntimeConfig(RC));
    ReplayResult R = replayTrace(RT, T, RC);
    if (!R.Ok)
      fail("%s: replay at %u threads rejected the trace: %s", G.Name,
           Threads, R.Error.c_str());
    if (R.Report != BaseReport)
      fail("%s: report diverged at %u threads", G.Name, Threads);
  }
}

/// Chaos + online-adaptation replay with the accounting invariants.
void checkChaosReplay(const WorkloadGenerator &G, const Trace &T,
                      uint64_t ChaosSeed, const std::string &TelemetryDir) {
  ReplayConfig RC;
  RC.MutatorThreads = 4;
  RC.OnlineAdapt = true;
  RC.Chaos = true;
  RC.ChaosSeed = ChaosSeed;
  RC.ChaosSoftHeapLimitBytes = 16 * 1024;
  RC.TelemetryOutDir = TelemetryDir;
  CollectionRuntime RT(traceReplayRuntimeConfig(RC));
  ReplayResult R = replayTrace(RT, T, RC);
  if (!R.Ok)
    fail("%s: chaos replay rejected the trace: %s", G.Name, R.Error.c_str());

  // No migration accounting leaks, at either layer.
  if (R.MigrationsRequested != R.MigrationsCommitted + R.MigrationsAborted)
    fail("%s: adaptor leak: requested=%llu committed=%llu aborted=%llu",
         G.Name, static_cast<unsigned long long>(R.MigrationsRequested),
         static_cast<unsigned long long>(R.MigrationsCommitted),
         static_cast<unsigned long long>(R.MigrationsAborted));
  if (RT.migrationAttempts() != RT.migrationCommits() + RT.migrationAborts())
    fail("%s: runtime leak: attempts=%llu commits=%llu aborts=%llu", G.Name,
         static_cast<unsigned long long>(RT.migrationAttempts()),
         static_cast<unsigned long long>(RT.migrationCommits()),
         static_cast<unsigned long long>(RT.migrationAborts()));

  // The profiler's degradation ledger balances (every noted event was
  // folded or deliberately dropped, none lost).
  ProfilerDegradationStats D = RT.profiler().degradationStats();
  if (D.NotedAllocs != D.FoldedAllocs + D.DroppedAllocs)
    fail("%s: alloc ledger: noted=%llu folded=%llu dropped=%llu", G.Name,
         static_cast<unsigned long long>(D.NotedAllocs),
         static_cast<unsigned long long>(D.FoldedAllocs),
         static_cast<unsigned long long>(D.DroppedAllocs));
  if (D.NotedDeaths != D.FoldedDeaths + D.DroppedDeaths)
    fail("%s: death ledger: noted=%llu folded=%llu dropped=%llu", G.Name,
         static_cast<unsigned long long>(D.NotedDeaths),
         static_cast<unsigned long long>(D.FoldedDeaths),
         static_cast<unsigned long long>(D.DroppedDeaths));

  std::string Error;
  if (!RT.heap().verifyHeap(&Error))
    fail("%s: heap verification: %s", G.Name, Error.c_str());
  if (RT.usesAfterRetire() != 0 || RT.doubleRetires() != 0)
    fail("%s: retire discipline: useAfter=%llu double=%llu", G.Name,
         static_cast<unsigned long long>(RT.usesAfterRetire()),
         static_cast<unsigned long long>(RT.doubleRetires()));

  note("  chaos[%s]: migrations %llu/%llu/%llu (req/commit/abort), "
       "pinned=%llu",
       G.Name, static_cast<unsigned long long>(R.MigrationsRequested),
       static_cast<unsigned long long>(R.MigrationsCommitted),
       static_cast<unsigned long long>(R.MigrationsAborted),
       static_cast<unsigned long long>(R.PinnedContexts));
}

/// Record a live ServerSim run and require the replay to reproduce its
/// report byte-for-byte at 1 and 4 threads.
void checkRecordedServerSim(uint64_t Seed) {
  TraceCapture Capture;
  ServerSimConfig Config;
  Config.Seed = Seed;
  Config.Sessions = 8;
  Config.Epochs = 2;
  Config.RequestsPerEpoch = 96;
  Config.HistoryBound = 16;
  Config.RecordTo = &Capture;
  std::string Live;
  {
    CollectionRuntime RT(serverSimRuntimeConfig());
    Live = runServerSim(RT, Config).Report;
  }
  Trace T = Capture.finish();
  for (uint32_t Threads : {1u, 4u}) {
    ReplayConfig RC;
    RC.MutatorThreads = Threads;
    CollectionRuntime RT(traceReplayRuntimeConfig(RC));
    ReplayResult R = replayTrace(RT, T, RC);
    if (!R.Ok)
      fail("serversim: replay rejected the recording: %s", R.Error.c_str());
    if (R.Report != Live)
      fail("serversim: replay report diverged from the live run at %u "
           "threads",
           Threads);
  }
  note("  serversim: record/replay byte-identical at 1 and 4 threads");
}

} // namespace

int main(int argc, char **argv) {
  bool Ci = false;
  uint64_t DurationSecs = 0;
  uint64_t Seed = 0x50AC;
  std::string Only;
  std::string TelemetryDir;
  bool HaveScale = false;
  WorkloadScale Scale = WorkloadScale::Default;

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    auto needValue = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s expects a value\n", Flag);
        std::exit(2);
      }
      return argv[++I];
    };
    if (std::strcmp(Arg, "--ci") == 0) {
      Ci = true;
    } else if (std::strcmp(Arg, "--duration") == 0) {
      DurationSecs = parseU64(needValue("--duration"), "--duration");
    } else if (std::strcmp(Arg, "--seed") == 0) {
      Seed = parseU64(needValue("--seed"), "--seed");
    } else if (std::strcmp(Arg, "--gen") == 0) {
      Only = needValue("--gen");
    } else if (std::strcmp(Arg, "--scale") == 0) {
      const char *Name = needValue("--scale");
      if (!parseWorkloadScale(Name, Scale)) {
        std::fprintf(stderr, "error: unknown scale '%s'\n", Name);
        return 2;
      }
      HaveScale = true;
    } else if (std::strcmp(Arg, "--list") == 0) {
      for (const WorkloadGenerator &G : workloadZoo())
        std::printf("%-12s %s%s\n", G.Name, G.Summary,
                    G.SteadyState ? " [steady-state]" : "");
      return 0;
    } else if (std::strcmp(Arg, "--telemetry-out") == 0) {
      TelemetryDir = needValue("--telemetry-out");
    } else if (std::strcmp(Arg, "--quiet") == 0) {
      Quiet = true;
    } else if (std::strcmp(Arg, "-h") == 0
               || std::strcmp(Arg, "--help") == 0) {
      printUsage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg);
      printUsage(argv[0]);
      return 2;
    }
  }
  if (!Only.empty() && !findWorkloadGenerator(Only)) {
    std::fprintf(stderr, "error: unknown generator '%s' (try --list)\n",
                 Only.c_str());
    return 2;
  }

  // Honor $CHAM_FLIGHT_RECORDER (the CI chaos/soak jobs set it): if a
  // pass dies on a fatal signal, the dump preserves the decision-ledger
  // tail and metric checkpoints as of the crash (DESIGN.md Â§16.3).
  chameleon::obs::FlightRecorder::instance().installFromEnv("cham.");

  const auto Start = std::chrono::steady_clock::now();
  auto elapsedSecs = [&] {
    return std::chrono::duration_cast<std::chrono::seconds>(
               std::chrono::steady_clock::now() - Start)
        .count();
  };

  uint64_t Pass = 0;
  do {
    WorkloadGenConfig Config;
    Config.Seed = Seed + Pass;
    if (HaveScale)
      applyWorkloadScale(Scale, Config);
    else if (Ci)
      applyWorkloadScale(WorkloadScale::Ci, Config);
    note("pass %llu (seed 0x%llx)", static_cast<unsigned long long>(Pass),
         static_cast<unsigned long long>(Config.Seed));
    for (const WorkloadGenerator &G : workloadZoo()) {
      if (!Only.empty() && Only != G.Name)
        continue;
      Trace T = G.Generate(Config);
      std::string Error;
      if (!validateTrace(T, &Error))
        fail("%s: generated trace failed validation: %s", G.Name,
             Error.c_str());
      std::string Bytes = writeTrace(T);
      checkPlainReplay(G, T, Bytes);
      checkChaosReplay(G, T, Config.Seed ^ (0x9E3779B97F4A7C15ULL * (Pass + 1)),
                       TelemetryDir);
      note("  ok[%s]: %llu tasks, %llu bytes", G.Name,
           static_cast<unsigned long long>(T.taskCount()),
           static_cast<unsigned long long>(Bytes.size()));
    }
    if (Only.empty())
      checkRecordedServerSim(Seed + Pass);
    ++Pass;
  } while (static_cast<uint64_t>(elapsedSecs()) < DurationSecs);

  std::printf("soak: %llu pass%s clean in %llds\n",
              static_cast<unsigned long long>(Pass), Pass == 1 ? "" : "es",
              static_cast<long long>(elapsedSecs()));
  return 0;
}
