//===--- Statistics.h - Streaming statistical accumulators -----*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming statistics used throughout the semantic profiler. The paper's
/// Table 1 requires, per allocation context, the average and standard
/// deviation of operation counts and of maximal collection sizes; the
/// `RunningStat` accumulator provides those via Welford's online algorithm
/// without storing samples. `TotalMax` tracks the total-over-all-GC-cycles /
/// maximum-in-any-cycle pair used by every heap metric in Table 1.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_SUPPORT_STATISTICS_H
#define CHAMELEON_SUPPORT_STATISTICS_H

#include <cstdint>

namespace chameleon {

/// Online mean / variance / min / max accumulator (Welford).
class RunningStat {
public:
  /// Adds one sample.
  void add(double X);

  /// Merges another accumulator into this one (parallel Welford / Chan).
  void merge(const RunningStat &Other);

  /// Number of samples seen so far.
  uint64_t count() const { return N; }

  /// Mean of the samples; 0 when empty.
  double mean() const { return N == 0 ? 0.0 : Mean; }

  /// Population variance of the samples; 0 for fewer than two samples.
  double variance() const;

  /// Population standard deviation; 0 for fewer than two samples.
  double stddev() const;

  /// Smallest sample; 0 when empty.
  double min() const { return N == 0 ? 0.0 : Min; }

  /// Largest sample; 0 when empty.
  double max() const { return N == 0 ? 0.0 : Max; }

  /// Sum of all samples.
  double sum() const { return Mean * static_cast<double>(N); }

  /// Raw second central moment (sum of squared deviations). Together with
  /// count/mean/min/max this is the accumulator's complete state, which is
  /// what the fleet layer serializes: restoring via fromMoments and merging
  /// in a canonical order reproduces the exact bit pattern a local
  /// accumulator would have reached.
  double m2() const { return M2; }

  /// Rebuilds an accumulator from previously exported moments (the inverse
  /// of count/mean/m2/min/max). The doubles must round-trip bit-exactly —
  /// serialize them as IEEE-754 bit patterns, not decimal text.
  static RunningStat fromMoments(uint64_t N, double Mean, double M2,
                                 double Min, double Max) {
    RunningStat S;
    S.N = N;
    S.Mean = Mean;
    S.M2 = M2;
    S.Min = Min;
    S.Max = Max;
    return S;
  }

private:
  uint64_t N = 0;
  double Mean = 0.0;
  double M2 = 0.0;
  double Min = 0.0;
  double Max = 0.0;
};

/// Tracks the Total/Max pair of Table 1: a quantity observed once per GC
/// cycle, reported both summed over all cycles and as the cycle maximum.
class TotalMax {
public:
  /// Records the value observed in one GC cycle.
  void observe(uint64_t CycleValue) {
    Total += CycleValue;
    if (CycleValue > Maximum)
      Maximum = CycleValue;
    ++Cycles;
  }

  /// Sum over all observed cycles.
  uint64_t total() const { return Total; }

  /// Largest single-cycle value.
  uint64_t max() const { return Maximum; }

  /// Number of cycles observed.
  uint64_t cycles() const { return Cycles; }

  /// Merges another accumulator (cycle streams concatenate: totals and
  /// cycle counts add, maxima take the larger). Integer state, so the merge
  /// is exact and commutative.
  void merge(const TotalMax &Other) {
    Total += Other.Total;
    if (Other.Maximum > Maximum)
      Maximum = Other.Maximum;
    Cycles += Other.Cycles;
  }

  /// Field-wise equality (`chameleon-stats --diff`).
  bool operator==(const TotalMax &) const = default;

  /// Rebuilds an accumulator from exported state (fleet snapshot restore).
  static TotalMax fromParts(uint64_t Total, uint64_t Maximum,
                            uint64_t Cycles) {
    TotalMax T;
    T.Total = Total;
    T.Maximum = Maximum;
    T.Cycles = Cycles;
    return T;
  }

private:
  uint64_t Total = 0;
  uint64_t Maximum = 0;
  uint64_t Cycles = 0;
};

} // namespace chameleon

#endif // CHAMELEON_SUPPORT_STATISTICS_H
