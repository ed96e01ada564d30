//===--- Report.h - Textual profiler reports -------------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Rendering of the profiler's outputs in the shapes the paper reports:
/// the ranked top-contexts summary with operation distributions (Fig. 3)
/// and the per-GC-cycle live/used/core series (Figs. 2 and 8).
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_PROFILER_REPORT_H
#define CHAMELEON_PROFILER_REPORT_H

#include "profiler/SemanticProfiler.h"
#include "runtime/GcCycle.h"

#include <string>
#include <vector>

namespace chameleon {

/// One row of the Fig. 2 / Fig. 8 series: collection space as a percentage
/// of live data, per GC cycle.
struct LiveDataPoint {
  uint64_t Cycle = 0;
  double LiveFraction = 0.0; ///< collection live / heap live
  double UsedFraction = 0.0; ///< collection used / heap live
  double CoreFraction = 0.0; ///< collection core / heap live
};

/// Extracts the Fig. 2 / Fig. 8 series from recorded GC cycles.
std::vector<LiveDataPoint>
liveDataSeries(const std::vector<GcCycleRecord> &Cycles);

/// Renders the series as a fixed-width table ("GC#  live%  used%  core%").
std::string renderLiveDataSeries(const std::vector<LiveDataPoint> &Series);

/// One entry of the Fig. 3 top-contexts summary.
struct ContextSummary {
  const ContextInfo *Info = nullptr;
  std::string Label;
  /// Saving potential as a fraction of total heap live data.
  double PotentialOfHeap = 0.0;
  /// (op name, share of all ops) pairs, largest first, zero ops omitted.
  std::vector<std::pair<std::string, double>> OpDistribution;
};

/// Builds the top-\p N context summaries, ranked by saving potential.
std::vector<ContextSummary> topContexts(const SemanticProfiler &Profiler,
                                        size_t N);

/// Renders summaries as the Fig. 3 style report.
std::string renderTopContexts(const std::vector<ContextSummary> &Summaries);

/// One row of the Table 3 "Type Distribution" statistic: the live-size
/// breakdown per type in one GC cycle.
struct TypeShare {
  std::string Name;
  uint64_t Bytes = 0;
  /// Share of the cycle's total live bytes.
  double Fraction = 0.0;
};

/// Resolves a cycle's type distribution against the registry, largest
/// first. Requires the heap to have run with RecordTypeDistribution on.
std::vector<TypeShare> typeDistribution(const GcCycleRecord &Record,
                                        const TypeRegistry &Types);

/// Renders the breakdown as a fixed-width table (top \p N rows).
std::string renderTypeDistribution(const std::vector<TypeShare> &Shares,
                                   size_t N = 10);

/// Renders everything the profiler knows about one context — the
/// "comprehensive information" view of §2.1: identity, instance counts,
/// size distributions (avg/stddev/min/max), the full non-zero operation
/// distribution, and the Table-1 heap Total/Max rows.
std::string renderContextDetail(const ContextInfo &Info);

} // namespace chameleon

#endif // CHAMELEON_PROFILER_REPORT_H
