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

void Counter::mergeInto(MetricSnapshot &Out) const { Out.Value += value(); }

void Gauge::mergeInto(MetricSnapshot &Out) const { Out.GaugeValue += value(); }

HdrHistogram::HdrHistogram(const char *Name)
    : Metric(Name, MetricKind::Hdr),
      Buckets(new std::atomic<uint64_t>[hdrNumBuckets()]) {
  for (size_t I = 0; I < hdrNumBuckets(); ++I)
    Buckets[I].store(0, std::memory_order_relaxed);
}

void HdrHistogram::mergeInto(MetricSnapshot &Out) const {
  uint64_t MyCount = count();
  if (MyCount > 0) {
    if (Out.Count == 0) {
      Out.MinValue = min();
      Out.MaxValue = max();
    } else {
      Out.MinValue = std::min(Out.MinValue, min());
      Out.MaxValue = std::max(Out.MaxValue, max());
    }
  }
  // Merge this instance's non-zero buckets into the (index-sorted) sparse
  // list. Same fixed geometry everywhere, so indices line up by value.
  std::vector<std::pair<uint32_t, uint64_t>> Merged;
  Merged.reserve(Out.HdrBuckets.size() + 16);
  size_t J = 0; // cursor into Out.HdrBuckets
  for (size_t I = 0; I < hdrNumBuckets(); ++I) {
    uint64_t N = Buckets[I].load(std::memory_order_relaxed);
    while (J < Out.HdrBuckets.size() && Out.HdrBuckets[J].first < I)
      Merged.push_back(Out.HdrBuckets[J++]);
    if (J < Out.HdrBuckets.size() && Out.HdrBuckets[J].first == I) {
      N += Out.HdrBuckets[J++].second;
    }
    if (N)
      Merged.emplace_back(static_cast<uint32_t>(I), N);
  }
  while (J < Out.HdrBuckets.size())
    Merged.push_back(Out.HdrBuckets[J++]);
  Out.HdrBuckets = std::move(Merged);
  Out.Count += MyCount;
  Out.Sum += sum();
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
