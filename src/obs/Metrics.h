//===--- Metrics.h - Named counters, gauges, and histograms ----*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics half of the telemetry layer (DESIGN.md §11): named counters,
/// gauges, and HDR (log-linear) histograms registered in a process-global
/// MetricsRegistry and exported as one snapshot (JSON / Prometheus text,
/// see obs/Telemetry.h). Metric names follow `cham.<layer>.<name>`.
///
/// Hot paths are sharded and lock-free: a Counter spreads its adds over
/// cache-line-padded per-thread-group shards and sums them on read, so the
/// write side is a single relaxed fetch_add with no sharing between
/// threads that land on different shards. An HdrHistogram observation is
/// three relaxed fetch_adds plus a compare-exchange loop each for min and
/// max.
///
/// Metrics are *accounting*, not optional tracing: the per-feature
/// counters of the runtime (migration, retire, fault, shed accounting)
/// are registry-backed instances whose public accessors read them. A
/// metric can be a static (via CHAM_METRIC_*) or a class member; several
/// live instances may share one name — a CollectionRuntime per test, say —
/// and the registry merges them at snapshot time.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_OBS_METRICS_H
#define CHAMELEON_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace chameleon::obs {

enum class MetricKind : uint8_t { Counter, Gauge, Hdr };

/// \returns "counter", "gauge", or "hdr".
const char *metricKindName(MetricKind Kind);

namespace detail {
/// This thread's counter-shard index, assigned round-robin on first use.
size_t shardIndex();
} // namespace detail

/// One metric's merged state at snapshot time.
struct MetricSnapshot {
  std::string Name;
  MetricKind Kind = MetricKind::Counter;
  /// Counter: the summed value.
  uint64_t Value = 0;
  /// Gauge: the summed value (signed).
  int64_t GaugeValue = 0;
  uint64_t Count = 0; ///< Hdr: total observations.
  uint64_t Sum = 0;   ///< Hdr: sum of observed values.
  /// Hdr: sparse non-zero buckets as (bucket index, count), index-sorted.
  /// Bucket geometry is fixed process-wide (see HdrHistogram), so sparse
  /// snapshots from any instance merge without shape negotiation.
  std::vector<std::pair<uint32_t, uint64_t>> HdrBuckets;
  uint64_t MinValue = 0; ///< Hdr: smallest observed value (0 if Count==0).
  uint64_t MaxValue = 0; ///< Hdr: largest observed value.

  /// Folds \p Other's observations into this snapshot: values, counts,
  /// sums and HDR buckets add, HDR min/max fold, and a side with no
  /// observations contributes no min or max. Name and kind are the
  /// caller's key and stay as they are.
  void merge(const MetricSnapshot &Other);
};

/// Log-linear bucket geometry shared by every HdrHistogram: values below
/// 2^SubBucketBits land in exact unit buckets; each further power-of-two
/// range [2^e, 2^(e+1)) splits into 2^SubBucketBits sub-buckets of width
/// 2^(e-SubBucketBits), bounding the relative quantile error by
/// 2^-SubBucketBits (3.125%) while covering the full uint64 range in
/// hdrNumBuckets() counters.
constexpr unsigned HdrSubBucketBits = 5;
constexpr uint64_t HdrSubBucketCount = 1ull << HdrSubBucketBits;

/// Total bucket count of the fixed HDR geometry.
constexpr size_t hdrNumBuckets() {
  return (64 - HdrSubBucketBits + 1) * HdrSubBucketCount;
}

/// The bucket index \p V lands in.
size_t hdrBucketIndex(uint64_t V);

/// Inclusive upper bound of bucket \p I (its representative value).
uint64_t hdrBucketUpperBound(size_t I);

/// Quantile estimate from an Hdr snapshot's sparse buckets: the inclusive
/// upper bound of the bucket holding rank ceil(Q*Count), clamped to the
/// observed min/max. Deterministic given the snapshot, so re-rendering a
/// parsed snapshot reproduces the original percentiles byte-for-byte.
uint64_t hdrSnapshotQuantile(const MetricSnapshot &S, double Q);

/// Base of every metric: registers itself on construction, unregisters on
/// destruction. \p Name must be a static string (a literal).
class Metric {
public:
  const char *name() const { return Name; }
  MetricKind kind() const { return Kind; }

  Metric(const Metric &) = delete;
  Metric &operator=(const Metric &) = delete;

  /// Adds this instance's current state into \p Out (same-name instances
  /// merge commutatively).
  virtual void mergeInto(MetricSnapshot &Out) const = 0;

protected:
  Metric(const char *Name, MetricKind Kind);
  virtual ~Metric();

private:
  const char *Name;
  MetricKind Kind;
};

/// Monotonic counter with a sharded lock-free write side.
class Counter : public Metric {
public:
  static constexpr size_t NumShards = 8;

  explicit Counter(const char *Name) : Metric(Name, MetricKind::Counter) {}

  void add(uint64_t N) {
    Shards[detail::shardIndex()].V.fetch_add(N, std::memory_order_relaxed);
  }
  void inc() { add(1); }

  /// Sum over the shards. Racing adds may or may not be included.
  uint64_t value() const {
    uint64_t Sum = 0;
    for (const Shard &S : Shards)
      Sum += S.V.load(std::memory_order_relaxed);
    return Sum;
  }

  /// Zeroes every shard. Not atomic as a whole: only call quiescently
  /// (e.g. FaultInjector::arm re-baselining its stats).
  void reset() {
    for (Shard &S : Shards)
      S.V.store(0, std::memory_order_relaxed);
  }

  void mergeInto(MetricSnapshot &Out) const override;

private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> V{0};
  };
  Shard Shards[NumShards];
};

/// Last-write-wins signed gauge.
class Gauge : public Metric {
public:
  explicit Gauge(const char *Name) : Metric(Name, MetricKind::Gauge) {}

  void set(int64_t V) { Val.store(V, std::memory_order_relaxed); }
  void add(int64_t N) { Val.fetch_add(N, std::memory_order_relaxed); }
  int64_t value() const { return Val.load(std::memory_order_relaxed); }

  void mergeInto(MetricSnapshot &Out) const override;

private:
  std::atomic<int64_t> Val{0};
};

/// Log-linear (HDR-style) histogram: full uint64 range, fixed geometry
/// (see HdrSubBucketBits), lock-free relaxed-atomic observation, and
/// quantile readout with bounded relative error. Used for latency-shaped
/// distributions (GC pause, migration phases, safepoint stalls), whose
/// tails span orders of magnitude.
class HdrHistogram : public Metric {
public:
  explicit HdrHistogram(const char *Name);

  void observe(uint64_t V) {
    Buckets[hdrBucketIndex(V)].fetch_add(1, std::memory_order_relaxed);
    Count.fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(V, std::memory_order_relaxed);
    atomicMin(Min, V);
    atomicMax(Max, V);
  }

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  uint64_t min() const {
    uint64_t M = Min.load(std::memory_order_relaxed);
    return M == ~0ull ? 0 : M;
  }
  uint64_t max() const { return Max.load(std::memory_order_relaxed); }

  /// Quantile estimate over this instance alone (tests; exporters go
  /// through snapshots so parsed bundles re-render identically).
  uint64_t quantile(double Q) const;

  void mergeInto(MetricSnapshot &Out) const override;

private:
  static void atomicMin(std::atomic<uint64_t> &A, uint64_t V) {
    uint64_t Cur = A.load(std::memory_order_relaxed);
    while (V < Cur &&
           !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
    }
  }
  static void atomicMax(std::atomic<uint64_t> &A, uint64_t V) {
    uint64_t Cur = A.load(std::memory_order_relaxed);
    while (V > Cur &&
           !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
    }
  }

  std::unique_ptr<std::atomic<uint64_t>[]> Buckets; // hdrNumBuckets()
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Min{~0ull};
  std::atomic<uint64_t> Max{0};
};

/// The process-global registry every Metric joins. Snapshots merge live
/// instances by name and return them name-sorted.
class MetricsRegistry {
public:
  static MetricsRegistry &instance();

  /// Merged, name-sorted state of every live metric whose name starts
  /// with \p Prefix (empty = all).
  std::vector<MetricSnapshot> snapshot(const std::string &Prefix = {}) const;

private:
  friend class Metric;
  void add(Metric *M);
  void remove(Metric *M);

  mutable std::mutex Mu;
  std::vector<Metric *> Metrics;
};

} // namespace chameleon::obs

/// Static registration: `CHAM_METRIC_COUNTER(GcCycles, "cham.gc.cycles");`
/// at file or function scope defines a registered metric named by a
/// literal.
#define CHAM_METRIC_COUNTER(Var, NameStr)                                      \
  static ::chameleon::obs::Counter Var { NameStr }
#define CHAM_METRIC_GAUGE(Var, NameStr)                                        \
  static ::chameleon::obs::Gauge Var { NameStr }
#define CHAM_METRIC_HDR(Var, NameStr)                                          \
  static ::chameleon::obs::HdrHistogram Var { NameStr }

#endif // CHAMELEON_OBS_METRICS_H
