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
/// Each app runs 7 plain/online pairs back to back, timed in the calling
/// thread's CPU time: the collector runs on that thread (GC threads
/// default to 1), so it is the whole run's cost, and time the host gives
/// to other processes does not count. The slowdown is the median of the
/// 7 per-pair ratios.
///
//===----------------------------------------------------------------------===//

#include "apps/AppSpec.h"
#include "support/Format.h"

#include "Harness.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace chameleon;
using namespace chameleon::apps;

namespace {

constexpr int Pairs = 7;

/// A slowdown below this reads as no noticeable online overhead.
constexpr double NoticeableSlowdown = 1.05;

/// Thread CPU seconds of one call of \p Run.
template <class RunT> double cpuSecondsOf(RunT &&Run) {
  double Start = bench::threadCpuSeconds();
  Run();
  return bench::threadCpuSeconds() - Start;
}

} // namespace

int main() {
  std::printf("== §5.4: fully-automatic online replacement — overhead "
              "==\n\n");
  std::printf("thread CPU time, median of %d alternating plain/online "
              "pairs; slowdown is\nthe median per-pair ratio\n\n",
              Pairs);

  TextTable Table({"benchmark", "plain (s)", "online (s)", "slowdown",
                   "replacements", "paper"});

  struct Row {
    const char *Name;
    const char *Paper;
  };
  const Row Rows[] = {{"bloat", "noticeable"}, {"fop", "noticeable"},
                      {"findbugs", "noticeable"}, {"pmd", "~6x"},
                      {"soot", "noticeable"}, {"tvla", "~1.35x"}};

  std::string Slowest;
  double SlowestRatio = 0;
  std::string Unnoticed;
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
    std::vector<double> Plain, Online, Ratios;
    for (int P = 0; P < Pairs; ++P) {
      Plain.push_back(cpuSecondsOf(
          [&] { PlainTool.run(App.Run, nullptr, App.ProfileHeapLimit); }));
      Online.push_back(cpuSecondsOf([&] {
        Replacements = OnlineTool.profileOnline(App.Run, App.ProfileHeapLimit)
                           .OnlineReplacements;
      }));
      Ratios.push_back(Online.back() / Plain.back());
    }
    double Slowdown = bench::median(Ratios);
    Table.addRow({App.Name, formatDouble(bench::median(Plain), 4),
                  formatDouble(bench::median(Online), 4),
                  formatDouble(Slowdown, 2) + "x",
                  std::to_string(Replacements), R.Paper});
    if (Slowdown > SlowestRatio) {
      SlowestRatio = Slowdown;
      Slowest = App.Name;
    }
    if (Slowdown < NoticeableSlowdown) {
      Unnoticed += ' ';
      Unnoticed += App.Name;
    }
  }

  std::printf("%s\n", Table.render().c_str());
  std::printf("shape against §5.4 (every benchmark pays a noticeable online "
              "overhead; pmd\npays by far the most):\n");
  std::printf("  largest slowdown: %s (%.2fx)%s\n", Slowest.c_str(),
              SlowestRatio, Slowest == "pmd" ? "" : " — not pmd");
  std::printf("  below %.2fx:%s\n", NoticeableSlowdown,
              Unnoticed.empty() ? " none" : Unnoticed.c_str());
  return 0;
}
