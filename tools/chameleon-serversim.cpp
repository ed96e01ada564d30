//===--- chameleon-serversim.cpp - Server simulacrum driver ----*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver for the multi-threaded server simulacrum, including
/// its chaos mode (randomized fault injection against the transactional
/// online-replacement machinery and the heap-pressure degradation path):
///
///   chameleon-serversim                       # plain run, print report
///   chameleon-serversim --chaos               # chaos run, default seed
///   chameleon-serversim --chaos --seed 0xBEEF # replay a chaos schedule
///   chameleon-serversim --threads 8 --epochs 5 --requests 480
///   chameleon-serversim --record run.trace    # record the run as a trace
///   chameleon-serversim --replay run.trace    # replay it (any --threads)
///   chameleon-serversim --replay run.trace --adapt   # under the adaptor
///
/// A chaos run prints the fault/migration/degradation accounting followed
/// by the regular profiling report, and echoes the seed so any failure is
/// replayable. A replay of a recorded trace prints a report byte-identical
/// to the recording run's at any thread count (DESIGN.md §14). A flag the
/// chosen mode would ignore is a usage error (exit 2), not a silent no-op.
///
//===----------------------------------------------------------------------===//

#include "apps/ServerSim.h"
#include "apps/TraceWorkload.h"
#include "obs/FlightRecorder.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace chameleon;
using namespace chameleon::apps;

namespace {

void printUsage(const char *Argv0) {
  std::printf("usage: %s [options]\n"
              "  --chaos            run under a randomized fault plan\n"
              "  --seed N           chaos plan seed (decimal or 0x hex)\n"
              "  --soft-limit N     soft heap limit in bytes for chaos mode\n"
              "  --threads N        mutator threads (default 4)\n"
              "  --epochs N         epochs (default 3)\n"
              "  --requests N       requests per epoch (default 240)\n"
              "  --telemetry-out D  write trace.json/metrics.json/metrics.prom"
              " into directory D\n"
              "  --ledger           arm the decision ledger; barrier-time\n"
              "                     rule evaluation + deterministic"
              " migrations\n"
              "  --flight-recorder F  install the crash dump handler writing"
              " to F\n"
              "                     (CHAM_FLIGHT_RECORDER env works too)\n"
              "  --ticker           print a per-epoch telemetry line to"
              " stderr\n"
              "  --record FILE      record the run's op stream to FILE\n"
              "  --replay FILE      replay a recorded trace instead of"
              " running the sim\n"
              "  --adapt            replay under the online adaptor"
              " (builtin rules)\n"
              "  --quiet            suppress the profiling report\n"
              "  -h, --help         show this help\n"
              "--adapt needs --replay; --epochs, --requests, --ledger,"
              " --flight-recorder,\n--ticker and --record cannot be"
              " combined with it.\n",
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

} // namespace

int main(int argc, char **argv) {
  ServerSimConfig Config;
  bool Quiet = false;
  bool Adapt = false;
  std::string RecordPath;
  std::string ReplayPath;
  // The flags given that only a simulation run (no --replay) uses.
  std::string SimOnlyFlags;

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    auto needValue = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s expects a value\n", Flag);
        std::exit(2);
      }
      return argv[++I];
    };
    auto simOnly = [&] {
      SimOnlyFlags += SimOnlyFlags.empty() ? "" : ", ";
      SimOnlyFlags += Arg;
    };
    if (std::strcmp(Arg, "--chaos") == 0) {
      Config.Chaos = true;
    } else if (std::strcmp(Arg, "--seed") == 0) {
      Config.ChaosSeed = parseU64(needValue("--seed"), "--seed");
    } else if (std::strcmp(Arg, "--soft-limit") == 0) {
      Config.ChaosSoftHeapLimitBytes =
          parseU64(needValue("--soft-limit"), "--soft-limit");
    } else if (std::strcmp(Arg, "--threads") == 0) {
      Config.MutatorThreads = static_cast<uint32_t>(
          parseU64(needValue("--threads"), "--threads"));
    } else if (std::strcmp(Arg, "--epochs") == 0) {
      simOnly();
      Config.Epochs =
          static_cast<uint32_t>(parseU64(needValue("--epochs"), "--epochs"));
    } else if (std::strcmp(Arg, "--requests") == 0) {
      simOnly();
      Config.RequestsPerEpoch = static_cast<uint32_t>(
          parseU64(needValue("--requests"), "--requests"));
    } else if (std::strcmp(Arg, "--telemetry-out") == 0) {
      Config.TelemetryOutDir = needValue("--telemetry-out");
    } else if (std::strcmp(Arg, "--ledger") == 0) {
      simOnly();
      Config.DecisionLedger = true;
    } else if (std::strcmp(Arg, "--flight-recorder") == 0) {
      simOnly();
      Config.FlightRecorderPath = needValue("--flight-recorder");
    } else if (std::strcmp(Arg, "--ticker") == 0) {
      simOnly();
      Config.TelemetryTicker = true;
    } else if (std::strcmp(Arg, "--record") == 0) {
      simOnly();
      RecordPath = needValue("--record");
    } else if (std::strcmp(Arg, "--replay") == 0) {
      ReplayPath = needValue("--replay");
    } else if (std::strcmp(Arg, "--adapt") == 0) {
      Adapt = true;
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

  if (!ReplayPath.empty() && !SimOnlyFlags.empty()) {
    std::fprintf(stderr, "error: %s cannot be combined with --replay\n",
                 SimOnlyFlags.c_str());
    return 2;
  }
  if (ReplayPath.empty() && Adapt) {
    std::fprintf(stderr, "error: --adapt needs --replay\n");
    return 2;
  }

  // Honor $CHAM_FLIGHT_RECORDER (the CI chaos/soak jobs set it) when no
  // explicit --flight-recorder path was given.
  if (Config.FlightRecorderPath.empty())
    obs::FlightRecorder::instance().installFromEnv("cham.");

  if (!ReplayPath.empty()) {
    Trace T;
    std::string Error;
    if (!readTraceFile(ReplayPath, T, &Error)) {
      std::fprintf(stderr, "error: %s: %s\n", ReplayPath.c_str(),
                   Error.c_str());
      return 1;
    }
    ReplayConfig RC;
    RC.MutatorThreads = Config.MutatorThreads;
    RC.OnlineAdapt = Adapt;
    RC.Chaos = Config.Chaos;
    RC.ChaosSeed = Config.ChaosSeed;
    RC.ChaosSoftHeapLimitBytes = Config.ChaosSoftHeapLimitBytes;
    RC.TelemetryOutDir = Config.TelemetryOutDir;
    CollectionRuntime RT(traceReplayRuntimeConfig(RC));
    ReplayResult R = replayTrace(RT, T, RC);
    if (!R.Ok) {
      std::fprintf(stderr, "error: invalid trace: %s\n", R.Error.c_str());
      return 1;
    }
    if (!R.AdaptReport.empty())
      std::fputs(R.AdaptReport.c_str(), stdout);
    if (!Quiet)
      std::fputs(R.Report.c_str(), stdout);
    std::printf("done: replayed tasks=%llu ops=%llu (%s seed=0x%llx)\n",
                static_cast<unsigned long long>(R.Tasks),
                static_cast<unsigned long long>(R.Ops),
                T.Header.Generator.c_str(),
                static_cast<unsigned long long>(T.Header.Seed));
    return 0;
  }

  TraceCapture Capture;
  if (!RecordPath.empty())
    Config.RecordTo = &Capture;
  CollectionRuntime RT(serverSimRuntimeConfig());
  ServerSimResult Result = runServerSim(RT, Config);

  if (!RecordPath.empty()) {
    Trace T = Capture.finish();
    std::string Error;
    if (!writeTraceFile(RecordPath, T, &Error)) {
      std::fprintf(stderr, "error: %s: %s\n", RecordPath.c_str(),
                   Error.c_str());
      return 1;
    }
    std::fprintf(stderr, "[trace] recorded %llu tasks to %s\n",
                 static_cast<unsigned long long>(T.taskCount()),
                 RecordPath.c_str());
  }
  if (Config.Chaos)
    std::fputs(Result.ChaosReport.c_str(), stdout);
  if (!Quiet)
    std::fputs(Result.Report.c_str(), stdout);
  std::printf("done: requests=%llu%s\n",
              static_cast<unsigned long long>(Result.TotalRequests),
              Config.Chaos ? " (chaos run survived)" : "");
  return 0;
}
