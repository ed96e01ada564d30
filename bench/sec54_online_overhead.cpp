//===--- sec54_online_overhead.cpp - Reproduces paper §5.4 -----*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper §5.4 "Experience with Fully Automatic Replacement": running every
/// benchmark with replacement performed during execution. The paper's
/// findings to reproduce in shape: (i) the space saving matches the manual
/// fixes; (ii) the slowdown is noticeable but not prohibitive for most
/// benchmarks (TVLA ~35%); (iii) PMD is the outlier (~6x) because its
/// massive rapid allocation of short-lived collections amplifies the cost
/// of obtaining allocation contexts.
///
/// The expensive-context-capture mode emulates the Throwable-based walk
/// the paper used (full-stack string hashing per capture).
///
//===----------------------------------------------------------------------===//

#include "apps/AppSpec.h"
#include "support/Format.h"

#include "Harness.h"

#include <cstdio>

using namespace chameleon;
using namespace chameleon::apps;

namespace {

double median3(Chameleon &Tool, const Workload &Run, uint64_t Limit,
               bool Online, uint64_t *Replacements) {
  return bench::medianOf(3, [&] {
    RunResult R = Online ? Tool.profileOnline(Run, Limit)
                         : Tool.run(Run, nullptr, Limit);
    if (Replacements)
      *Replacements = R.OnlineReplacements;
    return R.Seconds;
  });
}

} // namespace

int main() {
  std::printf("== §5.4: fully-automatic online replacement — overhead "
              "==\n\n");

  TextTable Table({"benchmark", "plain (s)", "online (s)", "slowdown",
                   "replacements", "paper"});
  const char *PaperNote[] = {"~1.0-1.4x", "~6x (prohibitive)", "~1.35x"};

  struct Row {
    const char *Name;
    const char *Paper;
  };
  const Row Rows[] = {{"bloat", "noticeable"}, {"fop", "noticeable"},
                      {"findbugs", "noticeable"}, {"pmd", "~6x"},
                      {"soot", "noticeable"}, {"tvla", "~1.35x"}};
  (void)PaperNote;

  for (const Row &R : Rows) {
    const AppSpec &App = getApp(R.Name);
    // Emulate the expensive Throwable-based context capture of §4.2 in
    // the online runs; the plain run has profiling off entirely.
    ChameleonConfig OnlineConfig;
    OnlineConfig.Runtime.Profiler.ExpensiveContextCapture = true;
    Chameleon OnlineTool(OnlineConfig);

    ChameleonConfig PlainConfig;
    PlainConfig.Runtime.Profiler.Enabled = false;
    Chameleon PlainTool(PlainConfig);

    uint64_t Replacements = 0;
    double Plain =
        median3(PlainTool, App.Run, App.ProfileHeapLimit, false, nullptr);
    double Online = median3(OnlineTool, App.Run, App.ProfileHeapLimit,
                            true, &Replacements);
    Table.addRow({App.Name, formatDouble(Plain, 4),
                  formatDouble(Online, 4),
                  formatDouble(Online / Plain, 2) + "x",
                  std::to_string(Replacements), R.Paper});
  }

  std::printf("%s\n", Table.render().c_str());
  std::printf("shape to check against §5.4: every benchmark pays a "
              "noticeable online\noverhead; pmd pays by far the most "
              "(short-lived collection churn makes\ncontext capture the "
              "bottleneck), and replacements happen everywhere the\n"
              "offline plan would have changed the implementation.\n");
  return 0;
}
