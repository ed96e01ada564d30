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
///     normal runs ever pay — a single relaxed atomic load.
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
/// cost table stays honest. `--json <path>` writes the
/// bench/BENCH_obs.json perf-trajectory record; `--quick` shrinks the run
/// for sanitizer CI.
///
//===----------------------------------------------------------------------===//

#include "collections/CollectionRuntime.h"
#include "collections/Handles.h"
#include "obs/DecisionLog.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Format.h"
#include "support/SplitMix64.h"

#include "Harness.h"

#include <cstdio>

using namespace chameleon;

namespace {

/// Nanoseconds one disarmed CHAM_TRACE_INSTANT site adds to a loop
/// iteration.
double disarmedSiteNs(uint64_t Iters) {
  obs::TraceRecorder::instance().disarm();
  return bench::siteNs(Iters, [] { CHAM_TRACE_INSTANT("bench", "site"); });
}

/// Nanoseconds one sharded Counter::inc() costs (always compiled in).
double counterIncNs(uint64_t Iters) {
  obs::Counter C("cham.obs.bench_counter_cost");
  return bench::siteNs(Iters, [&] { C.inc(); });
}

/// Nanoseconds one disarmed decision-ledger site adds: the enabled()
/// guard every instrumentation site runs (one relaxed load) when no
/// --ledger run armed it. Same shape as the disarmed trace site.
double disarmedLedgerSiteNs(uint64_t Iters) {
  obs::DecisionLog &DL = obs::DecisionLog::instance();
  DL.disarm();
  obs::DecisionRecord R;
  R.Kind = obs::DecisionKind::RuleOutcome;
  return bench::siteNs(Iters, [&] {
    if (DL.enabled())
      DL.record(R);
  });
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

  bench::Clock::time_point Start = bench::Clock::now();
  for (uint64_t I = 0; I < Iters; ++I)
    DL.record(R);
  double Seconds = bench::secondsSince(Start);
  DL.disarm();
  return Seconds / static_cast<double>(Iters) * 1e9;
}

/// Nanoseconds one HdrHistogram::observe() costs: a bucket index
/// computation plus five relaxed atomic updates. HDR sites are always
/// live (they back the --percentiles table), so this is hot-path cost.
double hdrObserveNs(uint64_t Iters) {
  obs::HdrHistogram H("cham.obs.bench_hdr_cost");
  SplitMix64 Rng(0x0B5);

  bench::Clock::time_point Start = bench::Clock::now();
  for (uint64_t I = 0; I < Iters; ++I)
    H.observe(Rng.nextBelow(1 << 20));
  double Seconds = bench::secondsSince(Start);
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
  bench::Clock::time_point Start = bench::Clock::now();
  for (uint64_t Op = 0; Op < Ops; ++Op)
    Sink = Sink + churnOnce(RT, Site, Rng);
  double Seconds = bench::secondsSince(Start);
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

} // namespace

int main(int argc, char **argv) {
  bench::Harness H("micro_telemetry_overhead", argc, argv, {{"--quick"}});
  const uint64_t SiteIters = H.quick() ? 20'000'000 : 200'000'000;
  const uint64_t ChurnOps = H.quick() ? 20'000 : 200'000;

  std::printf("== micro: telemetry site overhead ==\n\n");

  double SiteNs = disarmedSiteNs(SiteIters);
  double CounterNs = counterIncNs(SiteIters);
  double LedgerSiteNs = disarmedLedgerSiteNs(SiteIters);
  double LedgerRecordNs = armedLedgerRecordNs(SiteIters / 100);
  double HdrNs = hdrObserveNs(SiteIters / 10);
  double Events = eventsPerOp(1000);
  std::printf("disarmed CHAM_TRACE_INSTANT: %s ns/site (%llu iters)\n",
              H.metric("site_ns_disarmed", SiteNs, {3}).c_str(),
              static_cast<unsigned long long>(SiteIters));
  std::printf("sharded Counter::inc():      %s ns/inc\n",
              H.metric("counter_inc_ns", CounterNs, {3}).c_str());
  std::printf("disarmed ledger site:        %s ns/site\n",
              H.metric("ledger_site_ns_disarmed", LedgerSiteNs, {3}).c_str());
  std::printf("armed DecisionLog::record(): %s ns/record (--ledger only)\n",
              H.metric("ledger_record_ns_armed", LedgerRecordNs, {3}).c_str());
  std::printf("HdrHistogram::observe():     %s ns/observe\n",
              H.metric("hdr_observe_ns", HdrNs, {3}).c_str());
  std::printf("trace events per churn op:   %s (armed)\n\n",
              H.metric("events_per_op_armed", Events, {1}).c_str());

  double Disarmed =
      bench::medianOf(3, [&] { return churnOpsPerSec(false, ChurnOps); });
  double Armed =
      bench::medianOf(3, [&] { return churnOpsPerSec(true, ChurnOps); });

  double OpNs = 1e9 / Disarmed;
  double DisarmedOverheadPct = SiteNs * Events / OpNs * 100.0;

  bench::Table &Table = H.table(
      "telemetry_overhead",
      {{"recorder state"}, {"ops/s"}, {"vs disarmed", {2, "x"}}});
  Table.addRow({"disarmed", Disarmed, 1.0});
  Table.addRow({"armed (recording)", Armed, Disarmed / Armed});
  std::printf("%s\n", Table.render().c_str());

  std::printf("disarmed-telemetry overhead: %s ns/site x %s sites/op "
              "= %s%% of a %s ns op\n",
              formatDouble(SiteNs, 3).c_str(),
              formatDouble(Events, 1).c_str(),
              H.metric("disarmed_overhead_pct", DisarmedOverheadPct, {3})
                  .c_str(),
              formatDouble(OpNs, 0).c_str());
  std::printf("claim to check: the disarmed hot path (one relaxed atomic "
              "load per site)\nstays under 1%% — tracing costs nothing "
              "when no exporter is attached.\nThe disarmed decision-ledger "
              "site is held to the same bar (DESIGN.md §16.4).\n");
  double DisarmedLedgerPct = LedgerSiteNs / OpNs * 100.0;
  H.metric("disarmed_ledger_overhead_pct", DisarmedLedgerPct);
  if (DisarmedOverheadPct >= 1.0)
    std::printf("WARNING: overhead claim violated (%.3f%% >= 1%%)\n",
                DisarmedOverheadPct);
  if (DisarmedLedgerPct >= 1.0)
    std::printf("WARNING: ledger overhead claim violated (%.3f%% >= 1%%)\n",
                DisarmedLedgerPct);
  return H.finish();
}
