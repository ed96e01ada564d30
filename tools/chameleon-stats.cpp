//===--- chameleon-stats.cpp - Telemetry bundle inspector ------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders the telemetry bundle a `chameleon-serversim --telemetry-out=DIR`
/// run wrote (DESIGN.md §11), without re-running anything:
///
///   chameleon-stats out/                 # human table of metrics.json
///   chameleon-stats --format prom out/   # Prometheus text (byte-identical
///                                        #   to the bundle's metrics.prom)
///   chameleon-stats --format json out/   # re-emit metrics.json
///   chameleon-stats --trace out/         # append a trace.json summary
///
/// The prom/json renderings go through the same renderers the instrumented
/// process used, over snapshots re-read from metrics.json — so what this
/// tool prints is exactly what the process exported.
///
/// Fleet snapshots (DESIGN.md §15) are inspected the same way:
///
///   chameleon-stats --fleet fleet.snap   # merged fleet profile + metrics
///   chameleon-stats --diff a.snap b.snap # what changed between snapshots
///
/// Inspection is read-only: a corrupt snapshot is reported with its typed
/// error but never quarantined from here.
///
//===----------------------------------------------------------------------===//

#include "fleet/Aggregator.h"
#include "fleet/Snapshot.h"
#include "obs/DecisionLog.h"
#include "obs/Json.h"
#include "obs/Telemetry.h"
#include "support/Format.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

using namespace chameleon;

namespace {

void printUsage(const char *Argv0) {
  std::printf("usage: %s [options] <telemetry-dir | metrics.json>\n"
              "  --format table|prom|json  output format (default table)\n"
              "  --trace                   also summarize the bundle's"
              " trace.json\n"
              "  --percentiles             HDR percentile table"
              " (p50/p90/p99/p999)\n"
              "  --why CTX                 decision timeline for contexts"
              " matching CTX\n"
              "                            (id or label substring; '*' for"
              " all); reads\n"
              "                            decisions.json or a"
              " flight-recorder dump\n"
              "  --json                    with --why: re-emit the canonical"
              " decisions.json\n"
              "  --fleet SNAP              render a fleet snapshot's merged"
              " profile\n"
              "  --diff SNAP_A SNAP_B      diff two fleet snapshots\n"
              "  -h, --help                show this help\n",
              Argv0);
}

bool readFile(const std::string &Path, std::string &Out, std::string &Error) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Error = "cannot open " + Path;
    return false;
  }
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  bool Ok = !std::ferror(F);
  std::fclose(F);
  if (!Ok)
    Error = "read error on " + Path;
  return Ok;
}

std::string u64Str(uint64_t V) { return std::to_string(V); }

/// The human view: one row per metric, hdr metrics with their count and
/// percentiles folded into the value cell.
std::string renderTable(const std::vector<obs::MetricSnapshot> &Snaps) {
  TextTable Table({"metric", "kind", "value"});
  for (const obs::MetricSnapshot &S : Snaps)
    Table.addRow({S.Name, metricKindName(S.Kind), obs::metricValueText(S)});
  return Table.render();
}

/// The --percentiles view: one row per HDR metric with its tail quantiles
/// (the same estimator the exporters used, over the same sparse buckets).
std::string renderPercentiles(const std::vector<obs::MetricSnapshot> &Snaps) {
  TextTable Table(
      {"metric", "count", "min", "p50", "p90", "p99", "p999", "max"});
  size_t Rows = 0;
  for (const obs::MetricSnapshot &S : Snaps) {
    if (S.Kind != obs::MetricKind::Hdr)
      continue;
    Table.addRow({S.Name, u64Str(S.Count), u64Str(S.MinValue),
                  u64Str(obs::hdrSnapshotQuantile(S, 0.5)),
                  u64Str(obs::hdrSnapshotQuantile(S, 0.9)),
                  u64Str(obs::hdrSnapshotQuantile(S, 0.99)),
                  u64Str(obs::hdrSnapshotQuantile(S, 0.999)),
                  u64Str(S.MaxValue)});
    ++Rows;
  }
  if (Rows == 0)
    return "no hdr metrics in bundle\n";
  return Table.render();
}

//===----------------------------------------------------------------------===//
// Decision ledger (--why)
//===----------------------------------------------------------------------===//

/// Renders the decision timeline (or canonical JSON) from decisions.json —
/// either the bundle's or the "decisions" section of a flight-recorder
/// dump (decisionsFromJson finds the key in both shapes).
int whyMode(const std::string &Path, const std::string &Filter, bool Json) {
  std::string DecisionsPath = Path;
  std::error_code Ec;
  if (std::filesystem::is_directory(Path, Ec))
    DecisionsPath = Path + "/decisions.json";
  std::string Text, Error;
  if (!readFile(DecisionsPath, Text, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  obs::DecisionExport E;
  if (!obs::decisionsFromJson(Text, E, &Error)) {
    std::fprintf(stderr, "error: %s: %s\n", DecisionsPath.c_str(),
                 Error.c_str());
    return 1;
  }
  if (Json) {
    std::fputs(obs::decisionsJson(E).c_str(), stdout);
    return 0;
  }
  std::string CtxFilter = Filter == "*" ? std::string() : Filter;
  std::fputs(obs::renderDecisionTimeline(E, CtxFilter).c_str(), stdout);
  return 0;
}

/// Summarizes a Chrome trace_event document: event counts per category,
/// split into spans and instants, plus the recorded wall span.
bool summarizeTrace(const std::string &Path, std::string &Out,
                    std::string &Error) {
  std::string Text;
  if (!readFile(Path, Text, Error))
    return false;
  obs::json::Value Doc;
  if (!obs::json::parse(Text, Doc, &Error))
    return false;
  const obs::json::Value *Events = Doc.find("traceEvents");
  if (!Events || Events->K != obs::json::Value::Kind::Array) {
    Error = "no traceEvents array in " + Path;
    return false;
  }
  struct CatStats {
    uint64_t Spans = 0;
    uint64_t Instants = 0;
  };
  std::map<std::string, CatStats> Cats;
  double EndMicros = 0;
  uint64_t Metadata = 0;
  for (const obs::json::Value &Ev : Events->Arr) {
    const std::string Ph = Ev.strOr("ph", "");
    if (Ph == "M") {
      ++Metadata;
      continue;
    }
    CatStats &C = Cats[Ev.strOr("cat", "?")];
    double Ts = Ev.numberOr("ts", 0);
    if (Ph == "X") {
      ++C.Spans;
      Ts += Ev.numberOr("dur", 0);
    } else {
      ++C.Instants;
    }
    EndMicros = std::max(EndMicros, Ts);
  }
  TextTable Table({"category", "spans", "instants"});
  uint64_t Spans = 0, Instants = 0;
  for (const auto &[Cat, C] : Cats) {
    Table.addRow({Cat, u64Str(C.Spans), u64Str(C.Instants)});
    Spans += C.Spans;
    Instants += C.Instants;
  }
  Out += "trace: " + u64Str(Spans) + " spans, " + u64Str(Instants)
         + " instants, " + u64Str(Metadata) + " metadata events over "
         + formatDouble(EndMicros / 1000.0, 3) + " ms\n";
  Out += Table.render();
  return true;
}

//===----------------------------------------------------------------------===//
// Fleet snapshot inspection
//===----------------------------------------------------------------------===//

bool loadFleet(const std::string &Path, fleet::FleetState &Out) {
  fleet::SnapshotLoadResult R =
      fleet::loadSnapshot(Path, Out, /*QuarantineOnError=*/false);
  if (!R.ok()) {
    std::fprintf(stderr, "error: %s: %s: %s\n", Path.c_str(),
                 fleet::snapshotErrorName(R.Error), R.Message.c_str());
    return false;
  }
  return true;
}

int fleetMode(const std::string &Path) {
  fleet::FleetState State;
  if (!loadFleet(Path, State))
    return 1;
  std::printf("fleet snapshot: %zu stream%s\n", State.streams().size(),
              State.streams().size() == 1 ? "" : "s");
  TextTable Streams({"agent", "run-seed", "epoch"});
  for (const auto &[Key, S] : State.streams())
    Streams.addRow({Key.AgentId, u64Str(Key.RunSeed),
                    u64Str(S.Latest.Epoch)});
  std::fputs(Streams.render().c_str(), stdout);
  std::fputs(fleet::renderProfileReport(State.mergedProfile()).c_str(),
             stdout);
  return 0;
}

int diffMode(const std::string &PathA, const std::string &PathB) {
  fleet::FleetState A, B;
  if (!loadFleet(PathA, A) || !loadFleet(PathB, B))
    return 1;
  fleet::ProcessProfile PA = A.mergedProfile();
  fleet::ProcessProfile PB = B.mergedProfile();

  std::printf("fleet diff: %s (epoch-sum %llu) -> %s (epoch-sum %llu)\n",
              PathA.c_str(), static_cast<unsigned long long>(PA.Epoch),
              PathB.c_str(), static_cast<unsigned long long>(PB.Epoch));
  std::printf("heap live total: %llu -> %llu; coll-used max: %llu -> %llu\n",
              static_cast<unsigned long long>(PA.Heap.Live.total()),
              static_cast<unsigned long long>(PB.Heap.Live.total()),
              static_cast<unsigned long long>(PA.Heap.CollUsed.max()),
              static_cast<unsigned long long>(PB.Heap.CollUsed.max()));

  // Both context lists are in canonical identity order: a single sweep
  // classifies every context as removed, added, or common.
  TextTable Table({"change", "context", "type", "allocs", "live-max"});
  size_t IA = 0, IB = 0, Changed = 0;
  auto contextLabel = [](const fleet::ContextProfile &C) {
    return C.Frames.empty() ? std::string("?") : C.Frames.front();
  };
  while (IA < PA.Contexts.size() || IB < PB.Contexts.size()) {
    const bool TakeA =
        IB >= PB.Contexts.size() ||
        (IA < PA.Contexts.size() &&
         PA.Contexts[IA].identityLess(PB.Contexts[IB]));
    const bool TakeB =
        IA >= PA.Contexts.size() ||
        (IB < PB.Contexts.size() &&
         PB.Contexts[IB].identityLess(PA.Contexts[IA]));
    if (TakeA) {
      const fleet::ContextProfile &C = PA.Contexts[IA++];
      Table.addRow({"-", contextLabel(C), C.TypeName,
                    u64Str(C.Stats.Allocations), u64Str(C.Stats.Live.max())});
      ++Changed;
    } else if (TakeB) {
      const fleet::ContextProfile &C = PB.Contexts[IB++];
      Table.addRow({"+", contextLabel(C), C.TypeName,
                    u64Str(C.Stats.Allocations), u64Str(C.Stats.Live.max())});
      ++Changed;
    } else {
      const fleet::ContextProfile &CA = PA.Contexts[IA++];
      const fleet::ContextProfile &CB = PB.Contexts[IB++];
      const ContextStats &SA = CA.Stats, &SB = CB.Stats;
      if (SA.Allocations != SB.Allocations || SA.Live != SB.Live) {
        Table.addRow({"~", contextLabel(CB), CB.TypeName,
                      u64Str(SA.Allocations) + " -> " +
                          u64Str(SB.Allocations),
                      u64Str(SA.Live.max()) + " -> " +
                          u64Str(SB.Live.max())});
        ++Changed;
      }
    }
  }
  if (Changed == 0)
    std::printf("no per-context changes\n");
  else
    std::fputs(Table.render().c_str(), stdout);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string Format;
  std::string WhyFilter;
  std::vector<std::string> SnapPaths; // --fleet SNAP, or --diff A B
  std::vector<std::string> Paths;
  // Every option given, in order. The whole command line is parsed first;
  // then the chosen mode rejects each option or path it would not use.
  std::vector<std::string> Given;

  for (int I = 1; I < argc; ++I) {
    const std::string Arg = argv[I];
    if (Arg == "-h" || Arg == "--help") {
      printUsage(argv[0]);
      return 0;
    }
    if (Arg[0] != '-') {
      Paths.push_back(Arg);
      continue;
    }
    if (std::find(Given.begin(), Given.end(), Arg) != Given.end()) {
      std::fprintf(stderr, "error: %s given more than once\n", Arg.c_str());
      return 2;
    }
    Given.push_back(Arg);
    auto needValues = [&](int N, const char *What) {
      if (I + N >= argc) {
        std::fprintf(stderr, "error: %s expects %s\n", Arg.c_str(), What);
        std::exit(2);
      }
    };
    if (Arg == "--why") {
      needValues(1, "a context filter ('*' for all)");
      WhyFilter = argv[++I];
    } else if (Arg == "--fleet") {
      needValues(1, "a snapshot path");
      SnapPaths.push_back(argv[++I]);
    } else if (Arg == "--diff") {
      needValues(2, "two snapshot paths");
      SnapPaths.push_back(argv[++I]);
      SnapPaths.push_back(argv[++I]);
    } else if (Arg == "--format") {
      needValues(1, "a value");
      Format = argv[++I];
      if (Format != "table" && Format != "prom" && Format != "json") {
        std::fprintf(stderr, "error: unknown format '%s'\n", Format.c_str());
        return 2;
      }
    } else if (Arg != "--json" && Arg != "--percentiles" && Arg != "--trace") {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      printUsage(argv[0]);
      return 2;
    }
  }

  auto given = [&](const char *Flag) {
    return std::find(Given.begin(), Given.end(), Flag) != Given.end();
  };
  // The mode (empty for the metrics view) and the options it uses.
  const std::string Mode = given("--fleet") ? "--fleet"
                           : given("--diff") ? "--diff"
                           : given("--why")  ? "--why"
                                             : "";
  std::vector<std::string> Uses = {Mode};
  if (Mode == "--why")
    Uses.push_back("--json");
  else if (Mode.empty())
    Uses = {"--format", "--trace", "--percentiles"};
  std::string Unused;
  for (const std::string &Flag : Given)
    if (std::find(Uses.begin(), Uses.end(), Flag) == Uses.end())
      Unused += (Unused.empty() ? "" : ", ") + Flag;
  if (!Unused.empty()) {
    // The metrics view uses every option but --json and the mode flags.
    if (Mode.empty())
      std::fprintf(stderr, "error: --json requires --why\n");
    else
      std::fprintf(stderr, "error: %s cannot be combined with %s\n",
                   Unused.c_str(), Mode.c_str());
    return 2;
  }
  if (given("--format") && given("--percentiles")) {
    std::fprintf(stderr,
                 "error: --format cannot be combined with --percentiles\n");
    return 2;
  }

  if (Mode == "--fleet" || Mode == "--diff") {
    if (!Paths.empty()) {
      std::fprintf(stderr, "error: unexpected input path '%s' with %s\n",
                   Paths.front().c_str(), Mode.c_str());
      return 2;
    }
    return Mode == "--fleet" ? fleetMode(SnapPaths[0])
                             : diffMode(SnapPaths[0], SnapPaths[1]);
  }
  if (Paths.size() > 1) {
    std::fprintf(stderr, "error: more than one input path\n");
    return 2;
  }
  if (Paths.empty()) {
    printUsage(argv[0]);
    return 2;
  }
  const std::string &Path = Paths.front();
  if (Mode == "--why")
    return whyMode(Path, WhyFilter, given("--json"));

  std::string MetricsPath = Path;
  std::string TracePath;
  std::error_code Ec;
  if (std::filesystem::is_directory(Path, Ec)) {
    MetricsPath = Path + "/metrics.json";
    TracePath = Path + "/trace.json";
  } else {
    TracePath =
        std::filesystem::path(Path).replace_filename("trace.json").string();
  }

  std::string Text, Error;
  if (!readFile(MetricsPath, Text, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  obs::json::Value Doc;
  if (!obs::json::parse(Text, Doc, &Error)) {
    std::fprintf(stderr, "error: %s: %s\n", MetricsPath.c_str(),
                 Error.c_str());
    return 1;
  }
  std::vector<obs::MetricSnapshot> Snaps;
  if (!obs::snapshotsFromJson(Doc, Snaps, &Error)) {
    std::fprintf(stderr, "error: %s: %s\n", MetricsPath.c_str(),
                 Error.c_str());
    return 1;
  }

  std::string Out;
  if (given("--percentiles"))
    Out = renderPercentiles(Snaps);
  else if (Format == "prom")
    Out = obs::prometheusFromSnapshots(Snaps);
  else if (Format == "json")
    Out = obs::jsonFromSnapshots(Snaps);
  else
    Out = renderTable(Snaps);
  std::fputs(Out.c_str(), stdout);

  if (given("--trace")) {
    std::string Summary;
    if (!summarizeTrace(TracePath, Summary, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::fputs(Summary.c_str(), stdout);
  }
  return 0;
}
