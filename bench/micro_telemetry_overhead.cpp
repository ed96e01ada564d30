//===--- micro_telemetry_overhead.cpp - Telemetry site cost ----*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cost of leaving the telemetry layer compiled into the production
/// hot paths (DESIGN.md §11). Four measurements:
///
///  1. Per-site cost of a disarmed CHAM_TRACE_INSTANT: a tight loop over
///     the site minus the same loop without it. This is the only cost
///     normal runs ever pay — a single relaxed atomic load (and under
///     -DCHAMELEON_NO_TELEMETRY the site is gone entirely, so the two
///     loops are identical).
///  2. Cost of one sharded Counter::inc() — metrics are always compiled
///     in because they back the runtime accounting accessors.
///  3. Trace events recorded per workload op, counted exactly by arming
///     the recorder and reading recordedEvents() back.
///  4. Ops/s of an allocation-heavy churn workload (the PR-1/PR-2
///     baseline shape: allocate, fill, read, retire) with the recorder
///     disarmed vs armed.
///
/// (1) x (3) / op time is the disarmed-telemetry overhead; the headline
/// claim is that it stays under 1%. The decision ledger and the HDR
/// histograms (DESIGN.md §16) are priced the same way: a disarmed ledger
/// site is the same single relaxed load as a trace site, and an armed
/// ledger record / HDR observe each get a ns/call figure so the §16.4
/// cost table stays honest. `--json <path>` (or CHAMELEON_BENCH_JSON)
/// writes the bench/BENCH_obs.json perf-trajectory record; `--quick` shrinks
/// the run for sanitizer CI.
///
//===----------------------------------------------------------------------===//

#include "collections/CollectionRuntime.h"
#include "collections/Handles.h"
#include "obs/DecisionLog.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Format.h"
#include "support/SplitMix64.h"

#include "BenchJson.h"

#include <chrono>
#include <cstdio>
#include <cstring>

using namespace chameleon;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// Nanoseconds one disarmed CHAM_TRACE_INSTANT site adds to a loop
/// iteration. Under CHAMELEON_NO_TELEMETRY the site expands to nothing
/// and this measures (and should report) zero.
double disarmedSiteNs(uint64_t Iters) {
  obs::TraceRecorder::instance().disarm();
  volatile uint64_t Sink = 0;

  auto Start = std::chrono::steady_clock::now();
  for (uint64_t I = 0; I < Iters; ++I) {
    CHAM_TRACE_INSTANT("bench", "site");
    Sink = Sink + I;
  }
  double WithSite = secondsSince(Start);

  Start = std::chrono::steady_clock::now();
  for (uint64_t I = 0; I < Iters; ++I)
    Sink = Sink + I;
  double Bare = secondsSince(Start);

  double Delta = (WithSite - Bare) / static_cast<double>(Iters) * 1e9;
  return Delta > 0 ? Delta : 0.0;
}

/// Nanoseconds one sharded Counter::inc() costs (always compiled in).
double counterIncNs(uint64_t Iters) {
  obs::Counter C("cham.obs.bench_counter_cost");
  volatile uint64_t Sink = 0;

  auto Start = std::chrono::steady_clock::now();
  for (uint64_t I = 0; I < Iters; ++I) {
    C.inc();
    Sink = Sink + I;
  }
  double WithInc = secondsSince(Start);

  Start = std::chrono::steady_clock::now();
  for (uint64_t I = 0; I < Iters; ++I)
    Sink = Sink + I;
  double Bare = secondsSince(Start);

  double Delta = (WithInc - Bare) / static_cast<double>(Iters) * 1e9;
  return Delta > 0 ? Delta : 0.0;
}

/// Nanoseconds one disarmed decision-ledger site adds: the enabled()
/// guard every instrumentation site runs (one relaxed load) when no
/// --ledger run armed it. Same shape as the disarmed trace site.
double disarmedLedgerSiteNs(uint64_t Iters) {
  obs::DecisionLog &DL = obs::DecisionLog::instance();
  DL.disarm();
  obs::DecisionRecord R;
  R.Kind = obs::DecisionKind::RuleOutcome;
  volatile uint64_t Sink = 0;

  auto Start = std::chrono::steady_clock::now();
  for (uint64_t I = 0; I < Iters; ++I) {
    if (DL.enabled())
      DL.record(R);
    Sink = Sink + I;
  }
  double WithSite = secondsSince(Start);

  Start = std::chrono::steady_clock::now();
  for (uint64_t I = 0; I < Iters; ++I)
    Sink = Sink + I;
  double Bare = secondsSince(Start);

  double Delta = (WithSite - Bare) / static_cast<double>(Iters) * 1e9;
  return Delta > 0 ? Delta : 0.0;
}

/// Nanoseconds one armed DecisionLog::record() costs: a mutex acquire, a
/// POD store into the preallocated ring, and the release of the
/// publication cursor. Only --ledger runs pay this.
double armedLedgerRecordNs(uint64_t Iters) {
  obs::DecisionLog &DL = obs::DecisionLog::instance();
  DL.arm(/*Capacity=*/4096);
  obs::DecisionRecord R;
  R.CtxId = 7;
  R.Kind = obs::DecisionKind::Snapshot;
  R.Allocations = 31;

  auto Start = std::chrono::steady_clock::now();
  for (uint64_t I = 0; I < Iters; ++I)
    DL.record(R);
  double Seconds = secondsSince(Start);
  DL.disarm();
  return Seconds / static_cast<double>(Iters) * 1e9;
}

/// Nanoseconds one HdrHistogram::observe() costs: a bucket index
/// computation plus five relaxed atomic updates. HDR sites are always
/// live (they back the --percentiles table), so this is hot-path cost.
double hdrObserveNs(uint64_t Iters) {
  obs::HdrHistogram H("cham.obs.bench_hdr_cost");
  SplitMix64 Rng(0x0B5);

  auto Start = std::chrono::steady_clock::now();
  for (uint64_t I = 0; I < Iters; ++I)
    H.observe(Rng.nextBelow(1 << 20));
  double Seconds = secondsSince(Start);
  return Seconds / static_cast<double>(Iters) * 1e9;
}

/// The churn op: allocate a profiled HashMap, fill it, read it back,
/// retire it — the same shape micro_fault_overhead measures, crossing
/// the collections.alloc instant plus whatever GC cycles it triggers.
uint64_t churnOnce(CollectionRuntime &RT, FrameId Site, SplitMix64 &Rng) {
  Map M = RT.newHashMap(Site, 8);
  for (int E = 0; E < 12; ++E)
    M.put(Value::ofInt(static_cast<int64_t>(Rng.nextBelow(16))),
          Value::ofInt(E));
  uint64_t Sink = M.containsKey(Value::ofInt(3)) ? 1 : 0;
  M.retire();
  return Sink;
}

double churnOpsPerSec(bool Armed, uint64_t Ops) {
  CollectionRuntime RT;
  FrameId Site = RT.site("telemetry.churn:1");
  SplitMix64 Rng(0x0B5);
  obs::TraceRecorder &Rec = obs::TraceRecorder::instance();
  if (Armed)
    Rec.arm();
  else
    Rec.disarm();
  volatile uint64_t Sink = 0;
  auto Start = std::chrono::steady_clock::now();
  for (uint64_t Op = 0; Op < Ops; ++Op)
    Sink = Sink + churnOnce(RT, Site, Rng);
  double Seconds = secondsSince(Start);
  Rec.disarm();
  Rec.clear();
  return static_cast<double>(Ops) / Seconds;
}

/// Exact events-per-op count: everything the armed recorder wrote over a
/// fixed op batch, divided by the batch size.
double eventsPerOp(uint64_t Ops) {
  CollectionRuntime RT;
  FrameId Site = RT.site("telemetry.churn:1");
  SplitMix64 Rng(0x0B5);
  obs::TraceRecorder &Rec = obs::TraceRecorder::instance();
  Rec.arm();
  for (uint64_t Op = 0; Op < Ops; ++Op)
    (void)churnOnce(RT, Site, Rng);
  double Events = static_cast<double>(Rec.recordedEvents());
  Rec.disarm();
  Rec.clear();
  return Events / static_cast<double>(Ops);
}

double median3(double (*F)(bool, uint64_t), bool Armed, uint64_t Ops) {
  double A = F(Armed, Ops), B = F(Armed, Ops), C = F(Armed, Ops);
  double Lo = A < B ? (A < C ? A : C) : (B < C ? B : C);
  double Hi = A > B ? (A > C ? A : C) : (B > C ? B : C);
  return A + B + C - Lo - Hi;
}

} // namespace

int main(int argc, char **argv) {
  bool Quick = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--quick") == 0)
      Quick = true;

  const uint64_t SiteIters = Quick ? 20'000'000 : 200'000'000;
  const uint64_t ChurnOps = Quick ? 20'000 : 200'000;

  std::printf("== micro: telemetry site overhead ==\n\n");
#if defined(CHAMELEON_NO_TELEMETRY)
  std::printf("(built with CHAMELEON_NO_TELEMETRY: trace sites are "
              "compiled out)\n\n");
#endif

  double SiteNs = disarmedSiteNs(SiteIters);
  double CounterNs = counterIncNs(SiteIters);
  double LedgerSiteNs = disarmedLedgerSiteNs(SiteIters);
  double LedgerRecordNs = armedLedgerRecordNs(SiteIters / 100);
  double HdrNs = hdrObserveNs(SiteIters / 10);
  double Events = eventsPerOp(1000);
  std::printf("disarmed CHAM_TRACE_INSTANT: %s ns/site (%llu iters)\n",
              formatDouble(SiteNs, 3).c_str(),
              static_cast<unsigned long long>(SiteIters));
  std::printf("sharded Counter::inc():      %s ns/inc\n",
              formatDouble(CounterNs, 3).c_str());
  std::printf("disarmed ledger site:        %s ns/site\n",
              formatDouble(LedgerSiteNs, 3).c_str());
  std::printf("armed DecisionLog::record(): %s ns/record (--ledger only)\n",
              formatDouble(LedgerRecordNs, 3).c_str());
  std::printf("HdrHistogram::observe():     %s ns/observe\n",
              formatDouble(HdrNs, 3).c_str());
  std::printf("trace events per churn op:   %s (armed)\n\n",
              formatDouble(Events, 1).c_str());

  double Disarmed = median3(churnOpsPerSec, /*Armed=*/false, ChurnOps);
  double Armed = median3(churnOpsPerSec, /*Armed=*/true, ChurnOps);

  double OpNs = 1e9 / Disarmed;
  double DisarmedOverheadPct = SiteNs * Events / OpNs * 100.0;

  TextTable Table({"recorder state", "ops/s", "vs disarmed"});
  Table.addRow({"disarmed", formatDouble(Disarmed, 0), "1.00x"});
  Table.addRow({"armed (recording)", formatDouble(Armed, 0),
                formatDouble(Disarmed / Armed, 2) + "x"});
  std::printf("%s\n", Table.render().c_str());

  std::printf("disarmed-telemetry overhead: %s ns/site x %s sites/op "
              "= %s%% of a %s ns op\n",
              formatDouble(SiteNs, 3).c_str(),
              formatDouble(Events, 1).c_str(),
              formatDouble(DisarmedOverheadPct, 3).c_str(),
              formatDouble(OpNs, 0).c_str());
  std::printf("claim to check: the disarmed hot path (one relaxed atomic "
              "load per site)\nstays under 1%% — tracing costs nothing "
              "when no exporter is attached.\nThe disarmed decision-ledger "
              "site is held to the same bar (DESIGN.md §16.4).\n");
  double DisarmedLedgerPct = LedgerSiteNs / OpNs * 100.0;
  if (DisarmedOverheadPct >= 1.0)
    std::printf("WARNING: overhead claim violated (%.3f%% >= 1%%)\n",
                DisarmedOverheadPct);
  if (DisarmedLedgerPct >= 1.0)
    std::printf("WARNING: ledger overhead claim violated (%.3f%% >= 1%%)\n",
                DisarmedLedgerPct);

  bench::JsonDoc Json;
  Json.field("bench", "micro_telemetry_overhead");
  bench::addProvenance(Json);
  Json.field("site_ns_disarmed", SiteNs);
  Json.field("counter_inc_ns", CounterNs);
  Json.field("ledger_site_ns_disarmed", LedgerSiteNs);
  Json.field("ledger_record_ns_armed", LedgerRecordNs);
  Json.field("hdr_observe_ns", HdrNs);
  Json.field("events_per_op_armed", Events);
  Json.field("disarmed_overhead_pct", DisarmedOverheadPct);
  Json.field("disarmed_ledger_overhead_pct", DisarmedLedgerPct);
  Json.beginRecord("telemetry_overhead");
  Json.record("state", "disarmed");
  Json.record("ops_per_sec", Disarmed);
  Json.record("slowdown_vs_disarmed", 1.0);
  Json.beginRecord("telemetry_overhead");
  Json.record("state", "armed");
  Json.record("ops_per_sec", Armed);
  Json.record("slowdown_vs_disarmed", Disarmed / Armed);

  std::string JsonPath = bench::jsonOutputPath(argc, argv);
  if (!JsonPath.empty()) {
    if (!Json.write(JsonPath)) {
      std::fprintf(stderr, "failed to write %s\n", JsonPath.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", JsonPath.c_str());
  }
  return 0;
}
