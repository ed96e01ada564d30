//===--- chameleon-aggd.cpp - Fleet profile aggregator daemon --*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The aggregator daemon (DESIGN.md §15): listens on an AF_UNIX socket for
/// chameleon-agentd streams, folds their epoch updates into one fleet
/// state, persists crash-safe snapshots, and on exit renders the merged
/// profile and the fleet-wide rule evaluation.
///
///   chameleon-aggd --listen /tmp/fleet.sock --snapshot /tmp/fleet.snap
///                  --persist-every 4 --idle-exit 500 --report --evaluate
///
/// (one command line, wrapped here).
///
/// Restart semantics: on startup the previous snapshot is loaded (a
/// corrupt one is quarantined aside, never fatal), so reconnecting agents
/// are told their durable epoch and replay only the WAL tail past it.
///
//===----------------------------------------------------------------------===//

#include "fleet/Aggregator.h"
#include "fleet/SocketTransport.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

using namespace chameleon;
using namespace chameleon::fleet;

namespace {

void printUsage(const char *Argv0) {
  std::printf(
      "usage: %s --listen SOCK [options]\n"
      "  --listen PATH      AF_UNIX socket to listen on (required)\n"
      "  --snapshot PATH    crash-safe snapshot file\n"
      "  --persist-every N  auto-persist after N applied updates\n"
      "  --idle-exit N      exit after N empty 1ms polls once every agent\n"
      "                     has disconnected (0 = run until killed)\n"
      "  --max-ticks N      hard cap on poll rounds (0 = none)\n"
      "  --report           print the merged fleet profile on exit\n"
      "  --evaluate         print the fleet-wide rule report on exit\n"
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
  std::string ListenPath, SnapshotPath;
  uint64_t PersistEvery = 0;
  uint64_t IdleExit = 0;
  uint64_t MaxTicks = 0;
  bool Report = false;
  bool Evaluate = false;
  bool Quiet = false;

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    auto needValue = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s expects a value\n", Flag);
        std::exit(2);
      }
      return argv[++I];
    };
    if (std::strcmp(Arg, "--listen") == 0) {
      ListenPath = needValue("--listen");
    } else if (std::strcmp(Arg, "--snapshot") == 0) {
      SnapshotPath = needValue("--snapshot");
    } else if (std::strcmp(Arg, "--persist-every") == 0) {
      PersistEvery = parseU64(needValue("--persist-every"), "--persist-every");
    } else if (std::strcmp(Arg, "--idle-exit") == 0) {
      IdleExit = parseU64(needValue("--idle-exit"), "--idle-exit");
    } else if (std::strcmp(Arg, "--max-ticks") == 0) {
      MaxTicks = parseU64(needValue("--max-ticks"), "--max-ticks");
    } else if (std::strcmp(Arg, "--report") == 0) {
      Report = true;
    } else if (std::strcmp(Arg, "--evaluate") == 0) {
      Evaluate = true;
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
  if (ListenPath.empty()) {
    printUsage(argv[0]);
    return 2;
  }

  FleetAggregatorConfig Cfg;
  Cfg.SnapshotPath = SnapshotPath;
  Cfg.PersistEveryUpdates = static_cast<uint32_t>(PersistEvery);
  FleetAggregator Agg(Cfg);

  SnapshotLoadResult Load = Agg.loadInitial();
  if (!Load.ok()) {
    std::fprintf(stderr, "aggd: snapshot %s: %s%s%s\n",
                 snapshotErrorName(Load.Error), Load.Message.c_str(),
                 Load.QuarantinePath.empty() ? "" : "; quarantined to ",
                 Load.QuarantinePath.c_str());
    // Quarantined or unreadable: start empty — by design, not fatal.
  }

  SocketListener Listener;
  std::string Err;
  if (!Listener.listen(ListenPath, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  if (!Quiet)
    std::fprintf(stderr, "aggd: listening on %s\n", ListenPath.c_str());

  bool SeenAny = false;
  uint64_t IdleRounds = 0;
  for (uint64_t Tick = 0; MaxTicks == 0 || Tick < MaxTicks; ++Tick) {
    for (auto &C : Listener.acceptAll())
      Agg.attach(std::move(C));
    Agg.pump();
    size_t Live = Agg.sessionCount();
    if (Live > 0) {
      SeenAny = true;
      IdleRounds = 0;
    } else if (IdleExit > 0 && SeenAny && ++IdleRounds >= IdleExit) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Listener.close();

  if (!SnapshotPath.empty() && !Agg.persist(Err))
    std::fprintf(stderr, "aggd: final persist failed: %s\n", Err.c_str());

  if (Report)
    std::fputs(renderProfileReport(Agg.mergedProfile()).c_str(), stdout);
  if (Evaluate) {
    size_t N = 0;
    std::string Rules = Agg.evaluateFleetRules(&N);
    std::printf("fleet rules: %zu suggestion%s\n", N, N == 1 ? "" : "s");
    std::fputs(Rules.c_str(), stdout);
  }

  FleetAggregatorStats S = Agg.stats();
  if (!Quiet)
    std::fprintf(stderr,
                 "aggd: sessions=%llu updates=%llu dups=%llu acks=%llu "
                 "persists=%llu persist_failures=%llu\n",
                 static_cast<unsigned long long>(S.SessionsAccepted),
                 static_cast<unsigned long long>(S.UpdatesApplied),
                 static_cast<unsigned long long>(S.DupEpochs),
                 static_cast<unsigned long long>(S.AcksSent),
                 static_cast<unsigned long long>(S.Persists),
                 static_cast<unsigned long long>(S.PersistFailures));
  return 0;
}
