//===--- fig7_runtime.cpp - Reproduces paper Fig. 7 ------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper Fig. 7: "Improvement of running times of the benchmarks after
/// applying fixes suggested by CHAMELEON ... Running times were obtained
/// by running each benchmark with its corresponding original minimal-heap
/// size." Fixed programs both allocate less (fewer pressure GCs) and often
/// operate faster on the smaller structures.
///
/// Paper values (after-as-%-of-original runtime): tvla ~39% (2.5x),
/// soot ~89%, pmd ~92%, others around break-even to modest improvements.
///
//===----------------------------------------------------------------------===//

#include "apps/AppSpec.h"
#include "support/Format.h"

#include "Harness.h"

#include <cstdio>
#include <map>

using namespace chameleon;
using namespace chameleon::apps;

namespace {

/// Median-of-5 timed run at a fixed heap limit.
double timedSeconds(Chameleon &Tool, const Workload &Run,
                    const ReplacementPlan *Plan, uint64_t Limit,
                    uint64_t *GcCycles) {
  return bench::medianOf(5, [&] {
    RunResult R = Tool.run(Run, Plan, Limit);
    if (GcCycles)
      *GcCycles = R.GcCycles;
    return R.Seconds;
  });
}

} // namespace

int main() {
  std::printf("== Fig. 7: running time at the original minimal heap, "
              "after fixes, as %% of original ==\n\n");

  const std::map<std::string, double> PaperPercent = {
      {"bloat", 95.0}, {"fop", 98.0},  {"findbugs", 95.0},
      {"pmd", 91.7},   {"soot", 89.0}, {"tvla", 38.8}};

  TextTable Table({"benchmark", "before (s)", "after (s)", "measured %",
                   "paper %", "GCs before", "GCs after"});

  for (const AppSpec &App : allApps()) {
    Chameleon Tool;
    RunResult Profiled = Tool.profile(App.Run, App.ProfileHeapLimit);
    uint64_t MinHeap = Tool.findMinimalHeap(App.Run, nullptr,
                                            App.MinHeapLo, App.MinHeapHi,
                                            App.MinHeapTolerance);
    // Give the original a sliver of slack so timing runs complete
    // reliably at "its" minimal heap.
    uint64_t Limit = MinHeap + App.MinHeapTolerance;

    uint64_t GcBefore = 0, GcAfter = 0;
    double Before =
        timedSeconds(Tool, App.Run, nullptr, Limit, &GcBefore);
    double After =
        timedSeconds(Tool, App.Run, &Profiled.Plan, Limit, &GcAfter);
    double Percent = 100.0 * After / Before;
    Table.addRow({App.Name, formatDouble(Before, 4),
                  formatDouble(After, 4), formatDouble(Percent, 1),
                  formatDouble(PaperPercent.at(App.Name), 1),
                  std::to_string(GcBefore), std::to_string(GcAfter)});
  }

  std::printf("%s\n", Table.render().c_str());
  std::printf("shape to check against the paper: tvla improves by far "
              "the most (fewer,\ncheaper GCs on a halved live set); pmd "
              "and soot improve modestly through\nreduced allocation "
              "volume; nothing regresses badly.\n");
  return 0;
}
