//===--- Metrics.cpp - Named counters, gauges, and histograms -------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include <algorithm>
#include <cstring>

using namespace chameleon::obs;

const char *chameleon::obs::metricKindName(MetricKind Kind) {
  switch (Kind) {
  case MetricKind::Counter:
    return "counter";
  case MetricKind::Gauge:
    return "gauge";
  case MetricKind::Hdr:
    return "hdr";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// HDR bucket geometry
//===----------------------------------------------------------------------===//

size_t chameleon::obs::hdrBucketIndex(uint64_t V) {
  if (V < HdrSubBucketCount)
    return static_cast<size_t>(V);
  unsigned Msb = 63 - static_cast<unsigned>(__builtin_clzll(V));
  unsigned Group = Msb - HdrSubBucketBits;
  uint64_t Sub = (V >> Group) - HdrSubBucketCount;
  return static_cast<size_t>((Group + 1) * HdrSubBucketCount + Sub);
}

uint64_t chameleon::obs::hdrBucketUpperBound(size_t I) {
  if (I < HdrSubBucketCount)
    return I;
  unsigned Group = static_cast<unsigned>(I / HdrSubBucketCount) - 1;
  uint64_t Sub = I % HdrSubBucketCount;
  uint64_t Low = (HdrSubBucketCount + Sub) << Group;
  uint64_t Width = 1ull << Group;
  return Low + Width - 1;
}

uint64_t chameleon::obs::hdrSnapshotQuantile(const MetricSnapshot &S,
                                             double Q) {
  if (S.Count == 0)
    return 0;
  if (Q < 0)
    Q = 0;
  if (Q > 1)
    Q = 1;
  uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(S.Count));
  if (Rank * 1.0 < Q * static_cast<double>(S.Count)) // ceil
    ++Rank;
  if (Rank < 1)
    Rank = 1;
  if (Rank > S.Count)
    Rank = S.Count;
  uint64_t Cum = 0;
  for (const auto &[Idx, N] : S.HdrBuckets) {
    Cum += N;
    if (Cum >= Rank) {
      uint64_t Est = hdrBucketUpperBound(Idx);
      if (Est < S.MinValue)
        Est = S.MinValue;
      if (Est > S.MaxValue)
        Est = S.MaxValue;
      return Est;
    }
  }
  return S.MaxValue;
}

size_t chameleon::obs::detail::shardIndex() {
  static std::atomic<size_t> NextThread{0};
  static thread_local size_t Mine =
      NextThread.fetch_add(1, std::memory_order_relaxed) %
      Counter::NumShards;
  return Mine;
}

//===----------------------------------------------------------------------===//
// Registration
//===----------------------------------------------------------------------===//

Metric::Metric(const char *Name, MetricKind Kind) : Name(Name), Kind(Kind) {
  // instance() runs before the first registration, so the registry's
  // function-local static outlives every metric, including statics in
  // other translation units.
  MetricsRegistry::instance().add(this);
}

Metric::~Metric() { MetricsRegistry::instance().remove(this); }

MetricsRegistry &MetricsRegistry::instance() {
  static MetricsRegistry Registry;
  return Registry;
}

void MetricsRegistry::add(Metric *M) {
  std::lock_guard<std::mutex> Lock(Mu);
  Metrics.push_back(M);
}

void MetricsRegistry::remove(Metric *M) {
  std::lock_guard<std::mutex> Lock(Mu);
  Metrics.erase(std::remove(Metrics.begin(), Metrics.end(), M),
                Metrics.end());
}

//===----------------------------------------------------------------------===//
// Snapshots
//===----------------------------------------------------------------------===//

void MetricSnapshot::merge(const MetricSnapshot &Other) {
  Value += Other.Value;
  GaugeValue += Other.GaugeValue;
  // Min/max fold before Count absorbs Other's: a zero-observation side
  // must not contribute its 0/0 extremes.
  if (Other.Count > 0) {
    if (Count == 0) {
      MinValue = Other.MinValue;
      MaxValue = Other.MaxValue;
    } else {
      MinValue = std::min(MinValue, Other.MinValue);
      MaxValue = std::max(MaxValue, Other.MaxValue);
    }
  }
  Count += Other.Count;
  Sum += Other.Sum;
  if (Other.HdrBuckets.empty())
    return;
  // Sorted sparse merge: both sides are index-sorted (the geometry is
  // fixed process-wide, so indices line up by value), and so is the
  // result.
  std::vector<std::pair<uint32_t, uint64_t>> Merged;
  Merged.reserve(HdrBuckets.size() + Other.HdrBuckets.size());
  size_t I = 0, J = 0;
  while (I < HdrBuckets.size() || J < Other.HdrBuckets.size()) {
    if (J >= Other.HdrBuckets.size()
        || (I < HdrBuckets.size()
            && HdrBuckets[I].first < Other.HdrBuckets[J].first)) {
      Merged.push_back(HdrBuckets[I++]);
    } else if (I >= HdrBuckets.size()
               || Other.HdrBuckets[J].first < HdrBuckets[I].first) {
      Merged.push_back(Other.HdrBuckets[J++]);
    } else {
      Merged.emplace_back(HdrBuckets[I].first,
                          HdrBuckets[I].second + Other.HdrBuckets[J].second);
      ++I;
      ++J;
    }
  }
  HdrBuckets = std::move(Merged);
}

void Counter::mergeInto(MetricSnapshot &Out) const { Out.Value += value(); }

void Gauge::mergeInto(MetricSnapshot &Out) const { Out.GaugeValue += value(); }

HdrHistogram::HdrHistogram(const char *Name)
    : Metric(Name, MetricKind::Hdr),
      Buckets(new std::atomic<uint64_t>[hdrNumBuckets()]) {
  for (size_t I = 0; I < hdrNumBuckets(); ++I)
    Buckets[I].store(0, std::memory_order_relaxed);
}

void HdrHistogram::mergeInto(MetricSnapshot &Out) const {
  MetricSnapshot Mine;
  Mine.Count = count();
  Mine.Sum = sum();
  if (Mine.Count > 0) {
    Mine.MinValue = min();
    Mine.MaxValue = max();
  }
  for (size_t I = 0; I < hdrNumBuckets(); ++I)
    if (uint64_t N = Buckets[I].load(std::memory_order_relaxed))
      Mine.HdrBuckets.emplace_back(static_cast<uint32_t>(I), N);
  Out.merge(Mine);
}

uint64_t HdrHistogram::quantile(double Q) const {
  MetricSnapshot S;
  mergeInto(S);
  return hdrSnapshotQuantile(S, Q);
}

std::vector<MetricSnapshot>
MetricsRegistry::snapshot(const std::string &Prefix) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<MetricSnapshot> Out;
  for (const Metric *M : Metrics) {
    if (!Prefix.empty() &&
        std::strncmp(M->name(), Prefix.c_str(), Prefix.size()) != 0)
      continue;
    auto It = std::find_if(Out.begin(), Out.end(), [&](MetricSnapshot &S) {
      return S.Name == M->name() && S.Kind == M->kind();
    });
    if (It == Out.end()) {
      MetricSnapshot Fresh;
      Fresh.Name = M->name();
      Fresh.Kind = M->kind();
      Out.push_back(std::move(Fresh));
      It = Out.end() - 1;
    }
    M->mergeInto(*It);
  }
  std::sort(Out.begin(), Out.end(),
            [](const MetricSnapshot &A, const MetricSnapshot &B) {
              return A.Name < B.Name;
            });
  return Out;
}
