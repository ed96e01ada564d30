//===--- micro_fault_overhead.cpp - Fault-injection site cost --*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cost of leaving CHAM_FAULT injection points compiled into the
/// production hot paths (DESIGN.md §10). Three measurements:
///
///  1. Per-site cost with no plan armed: a tight loop over a CHAM_FAULT
///     site minus the same loop without it. This is the only cost normal
///     runs ever pay — a single relaxed atomic load.
///  2. Sites crossed per workload op, counted exactly by arming a
///     match-everything rule with fire probability 0 and reading the hit
///     counter back.
///  3. Ops/s of an allocation-heavy churn workload (the PR-1/PR-2
///     baseline shape: allocate, fill, read, retire) with the injector
///     disarmed vs armed-but-not-matching vs armed-and-matching.
///
/// (1) x (2) / op time is the disabled-injector overhead; the headline
/// claim is that it stays under 1%. `--json <path>` writes the
/// bench/BENCH_fault.json perf-trajectory record; `--quick` shrinks the
/// run for sanitizer CI.
///
//===----------------------------------------------------------------------===//

#include "collections/CollectionRuntime.h"
#include "collections/Handles.h"
#include "support/FaultInjector.h"
#include "support/Format.h"
#include "support/SplitMix64.h"

#include "Harness.h"

#include <cstdio>

using namespace chameleon;

namespace {

enum class InjectorState { Disarmed, ArmedNonMatching, ArmedMatching };

void applyState(InjectorState State) {
  FaultInjector &FI = FaultInjector::instance();
  switch (State) {
  case InjectorState::Disarmed:
    FI.disarm();
    break;
  case InjectorState::ArmedNonMatching: {
    FaultPlan Plan;
    Plan.Rules.push_back({"no.such.site", FaultAction::FailAlloc,
                          /*NthHit=*/0, /*Probability=*/1.0});
    FI.arm(Plan);
    break;
  }
  case InjectorState::ArmedMatching: {
    // Matches every site but never fires: full glob + probability-stream
    // cost without perturbing the workload (failures outside a FailScope
    // would only be suppressed anyway).
    FaultPlan Plan;
    Plan.Rules.push_back({"*", FaultAction::FailAlloc, /*NthHit=*/0,
                          /*Probability=*/0.0});
    FI.arm(Plan);
    break;
  }
  }
}

/// The churn op: allocate a profiled HashMap, fill it, read it back,
/// retire it. Crosses gc.alloc on every allocation and hashmap.reserve on
/// construction and growth — the densest site traffic a real op mix sees.
uint64_t churnOnce(CollectionRuntime &RT, FrameId Site, SplitMix64 &Rng) {
  Map M = RT.newHashMap(Site, 8);
  for (int E = 0; E < 12; ++E)
    M.put(Value::ofInt(static_cast<int64_t>(Rng.nextBelow(16))),
          Value::ofInt(E));
  uint64_t Sink = M.containsKey(Value::ofInt(3)) ? 1 : 0;
  M.retire();
  return Sink;
}

double churnOpsPerSec(InjectorState State, uint64_t Ops) {
  CollectionRuntime RT;
  FrameId Site = RT.site("fault.churn:1");
  SplitMix64 Rng(0xFA17);
  applyState(State);
  volatile uint64_t Sink = 0;
  bench::Clock::time_point Start = bench::Clock::now();
  for (uint64_t Op = 0; Op < Ops; ++Op)
    Sink = Sink + churnOnce(RT, Site, Rng);
  double Seconds = bench::secondsSince(Start);
  FaultInjector::instance().disarm();
  return static_cast<double>(Ops) / Seconds;
}

/// Exact sites-per-op count: the match-everything rule's hit counter
/// after a fixed op batch, divided by the batch size.
double sitesPerOp(uint64_t Ops) {
  CollectionRuntime RT;
  FrameId Site = RT.site("fault.churn:1");
  SplitMix64 Rng(0xFA17);
  applyState(InjectorState::ArmedMatching);
  for (uint64_t Op = 0; Op < Ops; ++Op)
    (void)churnOnce(RT, Site, Rng);
  double Hits = static_cast<double>(FaultInjector::instance().stats().Hits);
  FaultInjector::instance().disarm();
  return Hits / static_cast<double>(Ops);
}

} // namespace

int main(int argc, char **argv) {
  bench::Harness H("micro_fault_overhead", argc, argv, {{"--quick"}});
  const uint64_t SiteIters = H.quick() ? 20'000'000 : 200'000'000;
  const uint64_t ChurnOps = H.quick() ? 20'000 : 200'000;

  std::printf("== micro: fault-injection point overhead ==\n\n");

  // A disarmed CHAM_FAULT site: the one relaxed load every run pays.
  double SiteNs =
      bench::siteNs(SiteIters, [] { CHAM_FAULT("bench.site"); });
  double Sites = sitesPerOp(1000);
  std::printf("disarmed CHAM_FAULT site:   %s ns/site (%llu iters)\n",
              H.metric("site_ns_disarmed", SiteNs, {3}).c_str(),
              static_cast<unsigned long long>(SiteIters));
  std::printf("sites crossed per churn op: %s\n\n",
              H.metric("sites_per_op", Sites, {1}).c_str());

  auto MedianOps = [&](InjectorState State) {
    return bench::medianOf(3, [&] { return churnOpsPerSec(State, ChurnOps); });
  };
  double Disarmed = MedianOps(InjectorState::Disarmed);
  double NonMatching = MedianOps(InjectorState::ArmedNonMatching);
  double Matching = MedianOps(InjectorState::ArmedMatching);

  double OpNs = 1e9 / Disarmed;
  double DisabledOverheadPct = SiteNs * Sites / OpNs * 100.0;

  bench::Table &Table = H.table(
      "fault_overhead",
      {{"injector state"}, {"ops/s"}, {"vs disarmed", {2, "x"}}});
  Table.addRow({"disarmed", Disarmed, 1.0});
  Table.addRow(
      {"armed, no rule matches", NonMatching, Disarmed / NonMatching});
  Table.addRow(
      {"armed, all sites match (p=0)", Matching, Disarmed / Matching});
  std::printf("%s\n", Table.render().c_str());

  std::printf("disabled-injector overhead: %s ns/site x %s sites/op "
              "= %s%% of a %s ns op\n",
              formatDouble(SiteNs, 3).c_str(),
              formatDouble(Sites, 1).c_str(),
              H.metric("disabled_overhead_pct", DisabledOverheadPct, {3})
                  .c_str(),
              formatDouble(OpNs, 0).c_str());
  std::printf("claim to check: the disarmed hot path (one relaxed atomic "
              "load per site)\nstays under 1%% — chaos coverage costs "
              "nothing when it is not in use.\n");
  if (DisabledOverheadPct >= 1.0)
    std::printf("WARNING: overhead claim violated (%.3f%% >= 1%%)\n",
                DisabledOverheadPct);
  return H.finish();
}
