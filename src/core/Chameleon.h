//===--- Chameleon.h - The Chameleon tool facade ---------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tool facade, implementing the paper's two automated phases (Fig. 1):
/// semantic collection profiling of a program run, and rule-based selection
/// over the gathered statistics. The methodology of §5.2 maps onto this
/// API directly:
///
///   1. `profile(Workload)` — run with profiling, get ranked suggestions;
///   2. `RunResult::Plan` — the automatically-applicable replacement step;
///   3. `run(Workload, &Plan, HeapLimit)` — re-run with fixes applied;
///   4. `findMinimalHeap(...)` — the minimal-heap-size measure of Fig. 6;
///   5. timed runs at the original minimal heap — the Fig. 7 measure.
///
/// A `Workload` is any callable over a `CollectionRuntime` — the simulated
/// "program". Every run uses a fresh runtime (fresh heap, fresh profiler),
/// like separate JVM invocations in the paper.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_CORE_CHAMELEON_H
#define CHAMELEON_CORE_CHAMELEON_H

#include "collections/Handles.h"
#include "rules/RuleEngine.h"

#include <functional>

namespace chameleon {

/// Tool-level configuration.
struct ChameleonConfig {
  RuntimeConfig Runtime;
  /// In profiled runs, force a statistics-sampling GC every this many
  /// allocated bytes so the Table-3 heap statistics accumulate (0 = rely
  /// on allocation pressure only).
  uint64_t ProfileGcSampleBytes = 128 * 1024;
};

/// A simulated program: any callable over the collection runtime.
using Workload = std::function<void(CollectionRuntime &)>;

/// Outcome of one run.
struct RunResult {
  /// False when the run exceeded the heap limit (OutOfMemory).
  bool Completed = false;
  /// Wall-clock duration of the workload.
  double Seconds = 0.0;
  uint64_t GcCycles = 0;
  /// Total wall time spent inside GC cycles.
  uint64_t GcNanos = 0;
  /// Largest live-byte count observed in any GC cycle.
  uint64_t PeakLiveBytes = 0;
  uint64_t TotalAllocatedBytes = 0;
  uint64_t TotalAllocatedObjects = 0;
  /// Per-cycle series (Figs. 2 and 8).
  std::vector<GcCycleRecord> Cycles;
  /// Online mode only: allocations redirected / rule evaluations.
  uint64_t OnlineReplacements = 0;
  uint64_t OnlineEvaluations = 0;
  /// Fired suggestions, ranked by context saving potential (profiled runs).
  std::vector<rules::Suggestion> Suggestions;
  /// The automatically-applicable replacement step built from Suggestions.
  ReplacementPlan Plan;
  /// The §2.1-style succinct report.
  std::string Report;
};

/// The step-1 screening verdict of the §5.2 methodology: is there enough
/// collection saving potential to bother optimizing this application?
struct ScreeningResult {
  /// Collection live bytes / heap live bytes, summed over all cycles.
  double CollectionLiveShare = 0.0;
  /// Collection used bytes / heap live bytes.
  double CollectionUsedShare = 0.0;
  /// (collection live - collection used) / heap live — the best-case
  /// saving as a fraction of the heap.
  double PotentialShare = 0.0;
  /// PotentialShare >= the threshold passed to screenPotential.
  bool WorthOptimizing = false;
};

/// Screens a profiled run for saving potential (§5.2 step 1; §5.1: "most
/// of the Dacapo benchmarks ... showed little potential"). \p Threshold
/// is the minimum potential share that makes optimization worthwhile.
ScreeningResult screenPotential(const RunResult &Run,
                                double Threshold = 0.05);

/// The Chameleon tool.
class Chameleon {
public:
  explicit Chameleon(ChameleonConfig Config = ChameleonConfig());

  const ChameleonConfig &config() const { return Config; }

  /// The rule engine: the Table-2 built-in rules, then any custom rules
  /// added here before profiling.
  rules::RuleEngine &engine() { return Engine; }
  const rules::RuleEngine &engine() const { return Engine; }

  /// Phase 1+2: runs \p Run under the semantic profiler with the given
  /// heap limit (0 = the config's), evaluates the rules, and returns the
  /// full result including suggestions, report, and replacement plan.
  RunResult profile(const Workload &Run, uint64_t HeapLimitBytes = 0);

  /// Measurement re-run: executes \p Run, optionally with a replacement
  /// plan applied and/or a different heap limit. Context capture stays on
  /// (it is what applies the plan), but the per-instance statistics space
  /// is not charged — this is the uninstrumented "modified program" run of
  /// the paper's methodology. Rules are re-evaluated only when
  /// \p EvaluateRules (which also re-enables full instrumentation).
  RunResult run(const Workload &Run, const ReplacementPlan *Plan,
                uint64_t HeapLimitBytes = 0, bool EvaluateRules = false);

  /// Fully-automatic online mode (§3.3.2/§5.4): runs \p Run with an
  /// OnlineAdaptor installed, so replacement decisions are made during
  /// execution from the profile gathered so far.
  RunResult profileOnline(const Workload &Run, uint64_t HeapLimitBytes = 0);

  /// Bisects the smallest heap limit (bytes) under which \p Run completes,
  /// searching [LoBytes, HiBytes] to within \p ToleranceBytes. \p Plan may
  /// be null. HiBytes must be feasible (asserted).
  uint64_t findMinimalHeap(const Workload &Run, const ReplacementPlan *Plan,
                           uint64_t LoBytes, uint64_t HiBytes,
                           uint64_t ToleranceBytes);

private:
  RunResult runInternal(const Workload &Run, const ReplacementPlan *Plan,
                        uint64_t HeapLimitBytes, bool EvaluateRules,
                        bool Instrumented, bool Online);

  ChameleonConfig Config;
  rules::RuleEngine Engine;
};

} // namespace chameleon

#endif // CHAMELEON_CORE_CHAMELEON_H
