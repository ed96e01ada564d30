//===--- memory_tuning.cpp - The full paper methodology on TVLA -*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Walks the paper's §5.2 methodology end to end on the TVLA simulacrum:
///
///   1. run Chameleon on the application and check the saving potential;
///   2. read the ranked allocation contexts and suggestions (§2.1 report);
///   3. apply the suggestions (automatic replacement step);
///   4. re-run and measure the minimal heap and the Fig. 2 curves.
///
//===----------------------------------------------------------------------===//

#include "apps/AppSpec.h"
#include "profiler/Report.h"
#include "support/Format.h"

#include <cstdio>

using namespace chameleon;
using namespace chameleon::apps;

int main() {
  const AppSpec &App = getApp("tvla");
  Chameleon Tool;

  // Step 1: profile. The collection-aware GC gathers live/used/core per
  // cycle; the rule engine turns the statistics into suggestions.
  std::printf("profiling %s...\n\n", App.Name.c_str());
  RunResult Profiled = Tool.profile(App.Run, App.ProfileHeapLimit);

  // Step 2a: the Fig. 2 style potential check — how much of the live data
  // is collections, and how much of that is really used?
  std::vector<LiveDataPoint> Series = liveDataSeries(Profiled.Cycles);
  const LiveDataPoint &Mid = Series[Series.size() / 2];
  std::printf("mid-run live data: collections=%s used=%s core=%s\n",
              formatPercent(Mid.LiveFraction).c_str(),
              formatPercent(Mid.UsedFraction).c_str(),
              formatPercent(Mid.CoreFraction).c_str());

  // Step 2b: the suggestions report.
  std::printf("\n-- Chameleon suggestions --\n%s\n",
              Profiled.Report.c_str());

  // A closer look at the top context: the full per-context profile and,
  // rule by rule, why each built-in rule fired or stayed silent.
  {
    RuntimeConfig RtConfig;
    RtConfig.HeapLimitBytes = App.ProfileHeapLimit;
    RtConfig.GcSampleEveryBytes = 128 * 1024;
    CollectionRuntime RT(RtConfig);
    App.Run(RT);
    RT.harvestLiveStatistics();
    std::vector<ContextInfo *> Ranked = RT.profiler().rankedByPotential();
    if (!Ranked.empty()) {
      std::printf("-- top context in detail --\n%s\n",
                  renderContextDetail(*Ranked[0]).c_str());
      std::printf("%s\n",
                  Tool.engine()
                      .explainContext(*Ranked[0], RT.profiler())
                      .c_str());
    }
  }

  // Step 3+4: apply the plan and compare.
  std::printf("bisecting minimal heap sizes (before/after)...\n");
  uint64_t Before = Tool.findMinimalHeap(App.Run, nullptr, App.MinHeapLo,
                                         App.MinHeapHi,
                                         App.MinHeapTolerance);
  uint64_t After = Tool.findMinimalHeap(App.Run, &Profiled.Plan,
                                        App.MinHeapLo, App.MinHeapHi,
                                        App.MinHeapTolerance);
  std::printf("minimal heap: %s -> %s (%s of original)\n",
              formatBytes(Before).c_str(), formatBytes(After).c_str(),
              formatPercent(static_cast<double>(After)
                            / static_cast<double>(Before))
                  .c_str());

  // Timing at the original minimal heap (the Fig. 7 measure).
  RunResult TimedBefore = Tool.run(App.Run, nullptr, Before);
  RunResult TimedAfter = Tool.run(App.Run, &Profiled.Plan, Before);
  std::printf("runtime at the original minimal heap: %.3fs -> %.3fs\n",
              TimedBefore.Seconds, TimedAfter.Seconds);
  std::printf("GC cycles at that heap: %llu -> %llu\n",
              static_cast<unsigned long long>(TimedBefore.GcCycles),
              static_cast<unsigned long long>(TimedAfter.GcCycles));
  return 0;
}
