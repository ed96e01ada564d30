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
/// that a parsed snapshot re-renders the very same percentiles, and that
/// the one snapshot merge the registry and the fleet share is
/// order-independent.
///
//===----------------------------------------------------------------------===//

#include "fleet/FleetProfile.h"
#include "obs/Metrics.h"
#include "support/SplitMix64.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

using namespace chameleon;
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

void expectSameObservations(const MetricSnapshot &Got,
                            const MetricSnapshot &Want, const char *What) {
  EXPECT_EQ(Got.Count, Want.Count) << What;
  EXPECT_EQ(Got.Sum, Want.Sum) << What;
  EXPECT_EQ(Got.MinValue, Want.MinValue) << What;
  EXPECT_EQ(Got.MaxValue, Want.MaxValue) << What;
  EXPECT_EQ(Got.HdrBuckets, Want.HdrBuckets) << What;
}

TEST(HdrHistogramTest, SnapshotMergeInAnyOrderMatchesOneHistogram) {
  SplitMix64 Rng(0x5EED0123);
  // Merges of a part with no observations into an accumulator with some:
  // the empty side's 0/0 min and max must not reach the result.
  unsigned EmptyIntoSeen = 0;
  for (int Round = 0; Round < 200; ++Round) {
    // One histogram sees every observation; the same observations are
    // split over up to six same-name parts, about a quarter of them empty.
    HdrHistogram Whole("test.hdrprop.whole");
    std::vector<std::unique_ptr<HdrHistogram>> Parts;
    std::vector<MetricSnapshot> Sparse;
    const uint64_t NumParts = Rng.nextInRange(1, 6);
    for (uint64_t P = 0; P < NumParts; ++P) {
      Parts.push_back(std::make_unique<HdrHistogram>("test.hdrprop.part"));
      const uint64_t N = Rng.nextBool(0.25) ? 0 : Rng.nextInRange(1, 64);
      for (uint64_t I = 0; I < N; ++I) {
        // Magnitudes from unit buckets up to 2^40.
        const uint64_t V = Rng.next() >> Rng.nextInRange(24, 63);
        Whole.observe(V);
        Parts.back()->observe(V);
      }
      MetricSnapshot S;
      S.Name = "test.hdrprop";
      S.Kind = MetricKind::Hdr;
      Parts.back()->mergeInto(S);
      Sparse.push_back(std::move(S));
    }
    std::vector<MetricSnapshot> Want =
        MetricsRegistry::instance().snapshot("test.hdrprop.whole");
    ASSERT_EQ(Want.size(), 1u);

    // The registry merges the parts by name and kind...
    std::vector<MetricSnapshot> ByRegistry =
        MetricsRegistry::instance().snapshot("test.hdrprop.part");
    ASSERT_EQ(ByRegistry.size(), 1u);
    expectSameObservations(ByRegistry[0], Want[0], "registry");

    // ...and their sparse snapshots merge to the same in any order, from
    // an empty accumulator or through the fleet's by-name merge.
    for (size_t I = Sparse.size(); I > 1; --I)
      std::swap(Sparse[I - 1], Sparse[Rng.nextBelow(I)]);
    MetricSnapshot Acc;
    std::vector<std::vector<MetricSnapshot>> Singles;
    for (const MetricSnapshot &S : Sparse) {
      EmptyIntoSeen += S.Count == 0 && Acc.Count != 0;
      Acc.merge(S);
      Singles.push_back({S});
    }
    expectSameObservations(Acc, Want[0], "shuffled merge");
    std::vector<const std::vector<MetricSnapshot> *> Inputs;
    for (const std::vector<MetricSnapshot> &One : Singles)
      Inputs.push_back(&One);
    std::vector<MetricSnapshot> ByFleet = fleet::mergeMetricSnapshots(Inputs);
    ASSERT_EQ(ByFleet.size(), 1u);
    expectSameObservations(ByFleet[0], Want[0], "fleet merge");
  }
  EXPECT_GT(EmptyIntoSeen, 0u);
}

} // namespace
