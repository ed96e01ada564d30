//===--- chameleon-agentd.cpp - Fleet profiling agent daemon ---*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One fleet agent process (DESIGN.md §15): replays a workload-zoo trace
/// and, at every epoch barrier, captures the per-context profile summary
/// plus the `cham.*` telemetry bundle and commits it through a FleetAgent
/// — durable spill WAL, bounded send queue, backoff reconnect — to a
/// chameleon-aggd listening on an AF_UNIX socket.
///
///   chameleon-aggd   --listen /tmp/fleet.sock --snapshot /tmp/fleet.snap &
///   chameleon-agentd --connect /tmp/fleet.sock --agent-id a0
///                    --wal /tmp/a0.wal --gen burst --scale ci
///
/// (the second command is one line, wrapped here).
///
/// Exit 0 = the replay completed and every committed epoch is durable at
/// the aggregator. Exit 1 = drain budget exhausted first (the WAL still
/// holds the tail; a rerun with the same --wal replays it).
///
//===----------------------------------------------------------------------===//

#include "apps/TraceWorkload.h"
#include "apps/WorkloadGen.h"
#include "fleet/Agent.h"
#include "fleet/FleetProfile.h"
#include "fleet/SocketTransport.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

using namespace chameleon;
using namespace chameleon::apps;
using namespace chameleon::fleet;

namespace {

void printUsage(const char *Argv0) {
  std::printf(
      "usage: %s --connect SOCK [options]\n"
      "  --connect PATH     aggregator AF_UNIX socket (required)\n"
      "  --agent-id NAME    stream identity (default: agent)\n"
      "  --wal PATH         durable spill WAL (default: in-memory only)\n"
      "  --sync-wal         fsync every WAL append\n"
      "  --gen NAME         workload generator (default: burst)\n"
      "  --scale NAME       size preset: ci, default, large, million\n"
      "  --seed N           workload seed / stream run id\n"
      "  --threads N        mutator threads (default 1)\n"
      "  --drain-ticks N    post-replay drain budget (default 30000)\n"
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

} // namespace

int main(int argc, char **argv) {
  std::string ConnectPath, WalPath, GenName = "burst";
  std::string AgentId = "agent";
  uint64_t Seed = 0x50AC;
  uint32_t Threads = 1;
  uint64_t DrainTicks = 30000;
  bool SyncWal = false;
  bool Quiet = false;
  WorkloadScale Scale = WorkloadScale::Ci;

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    auto needValue = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s expects a value\n", Flag);
        std::exit(2);
      }
      return argv[++I];
    };
    if (std::strcmp(Arg, "--connect") == 0) {
      ConnectPath = needValue("--connect");
    } else if (std::strcmp(Arg, "--agent-id") == 0) {
      AgentId = needValue("--agent-id");
    } else if (std::strcmp(Arg, "--wal") == 0) {
      WalPath = needValue("--wal");
    } else if (std::strcmp(Arg, "--sync-wal") == 0) {
      SyncWal = true;
    } else if (std::strcmp(Arg, "--gen") == 0) {
      GenName = needValue("--gen");
    } else if (std::strcmp(Arg, "--scale") == 0) {
      const char *Name = needValue("--scale");
      if (!parseWorkloadScale(Name, Scale)) {
        std::fprintf(stderr, "error: unknown scale '%s'\n", Name);
        return 2;
      }
    } else if (std::strcmp(Arg, "--seed") == 0) {
      Seed = parseU64(needValue("--seed"), "--seed");
    } else if (std::strcmp(Arg, "--threads") == 0) {
      Threads = static_cast<uint32_t>(parseU64(needValue("--threads"),
                                               "--threads"));
    } else if (std::strcmp(Arg, "--drain-ticks") == 0) {
      DrainTicks = parseU64(needValue("--drain-ticks"), "--drain-ticks");
    } else if (std::strcmp(Arg, "--quiet") == 0) {
      Quiet = true;
    } else if (std::strcmp(Arg, "-h") == 0 || std::strcmp(Arg, "--help") == 0) {
      printUsage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg);
      printUsage(argv[0]);
      return 2;
    }
  }
  if (ConnectPath.empty()) {
    printUsage(argv[0]);
    return 2;
  }
  const WorkloadGenerator *Gen = findWorkloadGenerator(GenName);
  if (!Gen) {
    std::fprintf(stderr, "error: unknown generator '%s'\n", GenName.c_str());
    return 2;
  }

  WorkloadGenConfig GC;
  GC.Seed = Seed;
  applyWorkloadScale(Scale, GC);
  Trace T = Gen->Generate(GC);

  SocketDialer Dialer(ConnectPath);
  FleetAgentConfig AC;
  AC.AgentId = AgentId;
  AC.RunSeed = Seed;
  AC.WalPath = WalPath;
  AC.SyncWal = SyncWal;
  FleetAgent Agent(AC, Dialer);
  std::string Err;
  if (!Agent.recover(Err)) {
    std::fprintf(stderr, "error: WAL recovery: %s\n", Err.c_str());
    return 1;
  }

  uint64_t Tick = 0;
  ReplayConfig RC;
  RC.MutatorThreads = Threads;
  RC.OnEpochBarrier = [&](uint32_t Epoch, CollectionRuntime &RT) {
    (void)Epoch; // the agent numbers its own commit sequence
    Agent.commitEpoch(
        captureProcessProfile(RT.profiler(), /*Epoch=*/0, "cham."));
    Agent.pump(Tick++);
  };
  CollectionRuntime RT(traceReplayRuntimeConfig(RC));
  ReplayResult R = replayTrace(RT, T, RC);
  if (!R.Ok) {
    std::fprintf(stderr, "error: replay: %s\n", R.Error.c_str());
    return 1;
  }

  // Drain: keep pumping (reconnecting as needed) until everything
  // committed is durable at the aggregator or the budget runs out.
  uint64_t Spent = 0;
  while (!Agent.drained() && Spent < DrainTicks) {
    Agent.pump(Tick++);
    ++Spent;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  FleetAgentStats S = Agent.stats();
  if (!Quiet)
    std::fprintf(stderr,
                 "agentd[%s]: epochs=%llu durable=%llu connects=%llu "
                 "replayed=%llu shed=%llu drained=%s\n",
                 AgentId.c_str(),
                 static_cast<unsigned long long>(S.CommittedEpochs),
                 static_cast<unsigned long long>(S.DurableEpoch),
                 static_cast<unsigned long long>(S.Connects),
                 static_cast<unsigned long long>(S.ReplayedRecords),
                 static_cast<unsigned long long>(S.ShedRecords),
                 Agent.drained() ? "yes" : "no");
  return Agent.drained() ? 0 : 1;
}
