//===--- Chameleon.cpp - The Chameleon tool facade -------------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Chameleon.h"

#include "core/OnlineAdaptor.h"

#include <cassert>
#include <chrono>
#include <memory>

using namespace chameleon;

Chameleon::Chameleon(ChameleonConfig Config)
    : Config(Config) {
  Engine.addBuiltinRules();
}

RunResult Chameleon::runInternal(const Workload &Run,
                                 const ReplacementPlan *Plan,
                                 uint64_t HeapLimitBytes,
                                 bool EvaluateRules, bool Instrumented,
                                 bool Online) {
  RuntimeConfig RtConfig = Config.Runtime;
  if (HeapLimitBytes != 0)
    RtConfig.HeapLimitBytes = HeapLimitBytes;
  if (Instrumented) {
    // Online mode needs dead instances (sweep-time folding) to warm its
    // decisions, but sampling too often would charge the run GC work a
    // plain execution would not do; sample at a quarter of the offline
    // profiling cadence.
    RtConfig.GcSampleEveryBytes =
        Online ? Config.ProfileGcSampleBytes * 4
               : Config.ProfileGcSampleBytes;
  } else {
    // Measurement run: no instrumentation space, no sampling GCs — the
    // paper measures the modified program without the profiler.
    RtConfig.ObjectInfoSimBytes = 0;
    RtConfig.GcSampleEveryBytes = 0;
  }

  CollectionRuntime RT(RtConfig);
  if (Plan)
    RT.plan() = *Plan;

  std::unique_ptr<OnlineAdaptor> Adaptor;
  if (Online) {
    Adaptor = std::make_unique<OnlineAdaptor>(Engine, RT.profiler());
    RT.setOnlineSelector(Adaptor.get());
  }

  auto Start = std::chrono::steady_clock::now();
  Run(RT);
  auto End = std::chrono::steady_clock::now();

  // Complete the statistics for collections still alive at program end
  // (§3.3.2: rules are evaluated "at the end of program execution, when
  // complete information has been obtained").
  RT.harvestLiveStatistics();

  RunResult Result;
  Result.Completed = !RT.heap().outOfMemory();
  Result.Seconds =
      std::chrono::duration<double>(End - Start).count();
  Result.GcCycles = RT.heap().cycleCount();
  Result.TotalAllocatedBytes = RT.heap().totalAllocatedBytes();
  Result.TotalAllocatedObjects = RT.heap().totalAllocatedObjects();
  Result.Cycles = RT.heap().cycles();
  for (const GcCycleRecord &Rec : Result.Cycles) {
    Result.GcNanos += Rec.DurationNanos;
    if (Rec.LiveBytes > Result.PeakLiveBytes)
      Result.PeakLiveBytes = Rec.LiveBytes;
  }

  if (EvaluateRules) {
    Result.Suggestions = Engine.evaluate(RT.profiler());
    Result.Plan = rules::RuleEngine::buildPlan(Result.Suggestions);
    Result.Report = rules::RuleEngine::renderReport(Result.Suggestions);
  }
  if (Adaptor) {
    Result.OnlineReplacements = Adaptor->replacements();
    Result.OnlineEvaluations = Adaptor->evaluations();
  }
  return Result;
}

ScreeningResult chameleon::screenPotential(const RunResult &Run,
                                           double Threshold) {
  uint64_t HeapLive = 0, CollLive = 0, CollUsed = 0;
  for (const GcCycleRecord &Rec : Run.Cycles) {
    HeapLive += Rec.LiveBytes;
    CollLive += Rec.CollectionLiveBytes;
    CollUsed += Rec.CollectionUsedBytes;
  }
  ScreeningResult Result;
  if (HeapLive == 0)
    return Result;
  Result.CollectionLiveShare =
      static_cast<double>(CollLive) / static_cast<double>(HeapLive);
  Result.CollectionUsedShare =
      static_cast<double>(CollUsed) / static_cast<double>(HeapLive);
  Result.PotentialShare =
      Result.CollectionLiveShare - Result.CollectionUsedShare;
  Result.WorthOptimizing = Result.PotentialShare >= Threshold;
  return Result;
}

RunResult Chameleon::profile(const Workload &Run, uint64_t HeapLimitBytes) {
  return runInternal(Run, /*Plan=*/nullptr, HeapLimitBytes,
                     /*EvaluateRules=*/true, /*Instrumented=*/true,
                     /*Online=*/false);
}

RunResult Chameleon::run(const Workload &Run, const ReplacementPlan *Plan,
                         uint64_t HeapLimitBytes, bool EvaluateRules) {
  return runInternal(Run, Plan, HeapLimitBytes, EvaluateRules,
                     /*Instrumented=*/EvaluateRules, /*Online=*/false);
}

RunResult Chameleon::profileOnline(const Workload &Run,
                                   uint64_t HeapLimitBytes) {
  return runInternal(Run, /*Plan=*/nullptr, HeapLimitBytes,
                     /*EvaluateRules=*/false, /*Instrumented=*/true,
                     /*Online=*/true);
}

uint64_t Chameleon::findMinimalHeap(const Workload &Run,
                                    const ReplacementPlan *Plan,
                                    uint64_t LoBytes, uint64_t HiBytes,
                                    uint64_t ToleranceBytes) {
  assert(LoBytes < HiBytes && "empty search interval");
  assert(ToleranceBytes > 0 && "tolerance must be positive");

  auto Fits = [&](uint64_t Limit) {
    return runInternal(Run, Plan, Limit, /*EvaluateRules=*/false,
                       /*Instrumented=*/false, /*Online=*/false)
        .Completed;
  };

  [[maybe_unused]] bool HiFits = Fits(HiBytes);
  assert(HiFits && "upper bound must be feasible");

  // Invariant: Hi fits, Lo does not (treat a fitting Lo as the answer).
  if (Fits(LoBytes))
    return LoBytes;
  uint64_t Lo = LoBytes, Hi = HiBytes;
  while (Hi - Lo > ToleranceBytes) {
    uint64_t Mid = Lo + (Hi - Lo) / 2;
    if (Fits(Mid))
      Hi = Mid;
    else
      Lo = Mid;
  }
  return Hi;
}
