//===--- HdrHistogramTest.cpp - Log-linear histogram accuracy -------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The HDR-style histogram (DESIGN.md §16) under test: the fixed
/// log-linear bucket geometry, the 2^-HdrSubBucketBits (3.125%) relative
/// quantile error bound against exact quantiles of known distributions,
/// min/max clamping, and the snapshot path the exporters use — including
/// that a parsed snapshot re-renders the very same percentiles.
///
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

using namespace chameleon::obs;

namespace {

/// Exact quantile of a sorted sample: the value at rank ceil(Q*N).
uint64_t exactQuantile(const std::vector<uint64_t> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  size_t Rank = static_cast<size_t>(std::ceil(Q * Sorted.size()));
  if (Rank == 0)
    Rank = 1;
  return Sorted[std::min(Rank, Sorted.size()) - 1];
}

/// The guaranteed bound: an estimate may exceed the exact value by at
/// most one sub-bucket width, i.e. a 2^-HdrSubBucketBits relative error.
void expectWithinBound(uint64_t Estimate, uint64_t Exact, const char *What) {
  double Bound =
      static_cast<double>(Exact) / HdrSubBucketCount + 1.0; // +1: unit buckets
  EXPECT_GE(Estimate + static_cast<uint64_t>(Bound), Exact) << What;
  EXPECT_LE(static_cast<double>(Estimate),
            static_cast<double>(Exact) + Bound)
      << What << ": estimate " << Estimate << " vs exact " << Exact;
}

TEST(HdrGeometryTest, BucketIndexIsMonotoneAndBoundsContain) {
  size_t Prev = 0;
  for (uint64_t V : {0ull, 1ull, 31ull, 32ull, 33ull, 63ull, 64ull, 100ull,
                     1000ull, 123456ull, 1ull << 32, ~0ull}) {
    size_t I = hdrBucketIndex(V);
    EXPECT_LT(I, hdrNumBuckets());
    EXPECT_GE(I, Prev) << "index must be monotone in the value";
    Prev = I;
    // The bucket's inclusive upper bound contains the value...
    EXPECT_GE(hdrBucketUpperBound(I), V);
    // ...and overshoots by at most one sub-bucket width.
    uint64_t Over = hdrBucketUpperBound(I) - V;
    EXPECT_LE(Over, V / HdrSubBucketCount + 1) << "value " << V;
  }
}

TEST(HdrGeometryTest, SmallValuesLandInExactUnitBuckets) {
  for (uint64_t V = 0; V < HdrSubBucketCount; ++V)
    EXPECT_EQ(hdrBucketUpperBound(hdrBucketIndex(V)), V);
}

TEST(HdrHistogramTest, SingleValueCollapsesAllQuantiles) {
  HdrHistogram H("test.hdr.single");
  H.observe(777);
  for (double Q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0})
    EXPECT_EQ(H.quantile(Q), 777u) << Q;
  EXPECT_EQ(H.min(), 777u);
  EXPECT_EQ(H.max(), 777u);
  EXPECT_EQ(H.count(), 1u);
  EXPECT_EQ(H.sum(), 777u);
}

TEST(HdrHistogramTest, UniformQuantilesWithinErrorBound) {
  HdrHistogram H("test.hdr.uniform");
  std::vector<uint64_t> Values;
  for (uint64_t V = 1; V <= 100000; ++V) {
    H.observe(V);
    Values.push_back(V);
  }
  for (double Q : {0.5, 0.9, 0.99, 0.999}) {
    uint64_t Exact = exactQuantile(Values, Q);
    expectWithinBound(H.quantile(Q), Exact, "uniform");
  }
  EXPECT_EQ(H.quantile(1.0), 100000u) << "p100 clamps to the observed max";
  EXPECT_EQ(H.min(), 1u);
}

TEST(HdrHistogramTest, HeavyTailQuantilesWithinErrorBound) {
  // Deterministic splitmix-style stream shaped into a heavy tail: mostly
  // microsecond-scale with excursions past seconds — the GC-pause shape
  // that fixed bucket bounds cannot resolve.
  HdrHistogram H("test.hdr.tail");
  std::vector<uint64_t> Values;
  uint64_t X = 0x9E3779B97F4A7C15ull;
  for (int I = 0; I < 50000; ++I) {
    X += 0x9E3779B97F4A7C15ull;
    uint64_t Z = X;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    Z ^= Z >> 31;
    // Exponentiate a 0..17 range: values span 1ns .. ~100s.
    uint64_t V = 1 + (Z % 1000);
    unsigned Shift = static_cast<unsigned>((Z >> 32) % 18);
    V <<= Shift;
    H.observe(V);
    Values.push_back(V);
  }
  std::sort(Values.begin(), Values.end());
  for (double Q : {0.5, 0.9, 0.99, 0.999}) {
    uint64_t Exact = exactQuantile(Values, Q);
    expectWithinBound(H.quantile(Q), Exact, "heavy tail");
  }
}

TEST(HdrHistogramTest, SnapshotQuantileMatchesInstanceQuantile) {
  HdrHistogram H("test.hdrsnap.latency");
  for (uint64_t V = 1; V <= 5000; ++V)
    H.observe(V * 3);
  std::vector<MetricSnapshot> Snaps =
      MetricsRegistry::instance().snapshot("test.hdrsnap.");
  ASSERT_EQ(Snaps.size(), 1u);
  const MetricSnapshot &S = Snaps[0];
  EXPECT_EQ(S.Kind, MetricKind::Hdr);
  EXPECT_EQ(S.Count, 5000u);
  EXPECT_EQ(S.MinValue, 3u);
  EXPECT_EQ(S.MaxValue, 15000u);
  EXPECT_FALSE(S.HdrBuckets.empty());
  // The sparse snapshot carries the full distribution: the exporters'
  // quantile readout equals the live instance's.
  for (double Q : {0.5, 0.9, 0.99, 0.999})
    EXPECT_EQ(hdrSnapshotQuantile(S, Q), H.quantile(Q)) << Q;
}

TEST(HdrHistogramTest, SameNameInstancesMergeAtSnapshot) {
  HdrHistogram A("test.hdrmerge.h");
  HdrHistogram B("test.hdrmerge.h");
  A.observe(10);
  A.observe(20);
  B.observe(1000);
  std::vector<MetricSnapshot> Snaps =
      MetricsRegistry::instance().snapshot("test.hdrmerge.");
  ASSERT_EQ(Snaps.size(), 1u);
  EXPECT_EQ(Snaps[0].Count, 3u);
  EXPECT_EQ(Snaps[0].Sum, 1030u);
  EXPECT_EQ(Snaps[0].MinValue, 10u);
  EXPECT_EQ(Snaps[0].MaxValue, 1000u);
  EXPECT_EQ(hdrSnapshotQuantile(Snaps[0], 1.0), 1000u);
}

} // namespace
