//===--- TelemetryTest.cpp - Telemetry layer tests ------------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The telemetry layer (DESIGN.md §11) under test: registry correctness
/// under concurrent writers, trace-ring overwrite semantics, and golden
/// renderings of every exporter (the JSON
/// snapshot chameleon-stats re-reads, Prometheus text, Chrome trace
/// JSON).
///
//===----------------------------------------------------------------------===//

#include "apps/ServerSim.h"
#include "fleet/Agent.h"
#include "fleet/Aggregator.h"
#include "fleet/Transport.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "runtime/GcHeap.h"
#include "runtime/ThreadCache.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace chameleon;
using namespace chameleon::obs;

namespace {

/// Snapshot filtered to one test-owned prefix (the process-global registry
/// also holds every cham.* metric of the linked runtime).
std::vector<MetricSnapshot> snapshotOf(const std::string &Prefix) {
  return MetricsRegistry::instance().snapshot(Prefix);
}

//===----------------------------------------------------------------------===//
// Metrics registry
//===----------------------------------------------------------------------===//

TEST(MetricsTest, CounterSumsConcurrentAdds) {
  Counter C("test.mt.counter");
  constexpr int Threads = 8;
  constexpr uint64_t PerThread = 100000;
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&C] {
      for (uint64_t I = 0; I < PerThread; ++I)
        C.inc();
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(C.value(), Threads * PerThread);

  std::vector<MetricSnapshot> Snaps = snapshotOf("test.mt.");
  ASSERT_EQ(Snaps.size(), 1u);
  EXPECT_EQ(Snaps[0].Name, "test.mt.counter");
  EXPECT_EQ(Snaps[0].Kind, MetricKind::Counter);
  EXPECT_EQ(Snaps[0].Value, Threads * PerThread);
}

TEST(MetricsTest, SameNameInstancesMergeAtSnapshot) {
  Counter A("test.merge.counter");
  Counter B("test.merge.counter");
  A.add(3);
  B.add(4);
  // Each instance reads only itself (per-instance accessor semantics)...
  EXPECT_EQ(A.value(), 3u);
  EXPECT_EQ(B.value(), 4u);
  // ...while the registry merges live same-name instances.
  std::vector<MetricSnapshot> Snaps = snapshotOf("test.merge.");
  ASSERT_EQ(Snaps.size(), 1u);
  EXPECT_EQ(Snaps[0].Value, 7u);
}

TEST(MetricsTest, InstanceUnregistersOnDestruction) {
  {
    Counter C("test.scoped.counter");
    C.inc();
    EXPECT_EQ(snapshotOf("test.scoped.").size(), 1u);
  }
  EXPECT_TRUE(snapshotOf("test.scoped.").empty());
}

TEST(MetricsTest, GaugeSetAndAdd) {
  Gauge G("test.gauge");
  G.set(10);
  G.add(-3);
  EXPECT_EQ(G.value(), 7);
  std::vector<MetricSnapshot> Snaps = snapshotOf("test.gauge");
  ASSERT_EQ(Snaps.size(), 1u);
  EXPECT_EQ(Snaps[0].GaugeValue, 7);
}

TEST(MetricsTest, SnapshotIsNameSortedAndPrefixFiltered) {
  Counter B("test.sorted.b");
  Counter A("test.sorted.a");
  Gauge Z("test.zother");
  std::vector<MetricSnapshot> Snaps = snapshotOf("test.sorted.");
  ASSERT_EQ(Snaps.size(), 2u);
  EXPECT_EQ(Snaps[0].Name, "test.sorted.a");
  EXPECT_EQ(Snaps[1].Name, "test.sorted.b");
}

//===----------------------------------------------------------------------===//
// Trace recorder
//===----------------------------------------------------------------------===//

/// Arms the recorder for one test and disarms + clears on the way out so
/// no other test observes leftover events.
class RecorderScope {
public:
  explicit RecorderScope(uint32_t Capacity = TraceRecorder::DefaultCapacity) {
    TraceRecorder::instance().arm(Capacity);
  }
  ~RecorderScope() {
    TraceRecorder::instance().disarm();
    TraceRecorder::instance().clear();
  }
};

TEST(TraceTest, DisarmedRecorderKeepsNoEvents) {
  TraceRecorder &Rec = TraceRecorder::instance();
  Rec.disarm();
  Rec.clear();
  CHAM_TRACE_INSTANT("test", "ignored");
  { CHAM_TRACE_SPAN("test", "ignored_span"); }
  EXPECT_FALSE(TraceRecorder::enabled());
  EXPECT_TRUE(Rec.snapshot().empty());
  EXPECT_EQ(Rec.recordedEvents(), 0u);
}

/// Sum of every live instance of the trace-overflow counter.
uint64_t traceDropped() {
  uint64_t V = 0;
  for (const MetricSnapshot &S :
       MetricsRegistry::instance().snapshot("cham.obs.trace_dropped"))
    V += S.Value;
  return V;
}

TEST(TraceTest, RingOverwriteKeepsNewestEvents) {
  RecorderScope Scope(/*Capacity=*/4);
  TraceRecorder &Rec = TraceRecorder::instance();
  const uint64_t Dropped0 = traceDropped();
  for (uint64_t I = 1; I <= 6; ++I)
    Rec.recordInstant("test", "ev", "i", I);
  EXPECT_EQ(Rec.recordedEvents(), 6u);
  EXPECT_EQ(Rec.droppedEvents(), 2u);
  // The overflow is a first-class metric too, one tick per overwrite.
  EXPECT_EQ(traceDropped() - Dropped0, 2u);
  std::vector<TraceEvent> Events = Rec.snapshot();
  ASSERT_EQ(Events.size(), 4u);
  // Oldest two were overwritten; survivors are in chronological order.
  for (size_t I = 0; I < Events.size(); ++I)
    EXPECT_EQ(Events[I].ArgValue, I + 3);
}

TEST(TraceTest, SpansRecordDurationsAndInstantsDoNot) {
  RecorderScope Scope;
  TraceRecorder &Rec = TraceRecorder::instance();
  uint64_t Start = Rec.nowNanos();
  Rec.recordSpan("test", "span", Start, "k", 7);
  Rec.recordInstant("test", "instant");
  std::vector<TraceEvent> Events = Rec.snapshot();
  ASSERT_EQ(Events.size(), 2u);
  const TraceEvent *Span = &Events[0];
  const TraceEvent *Instant = &Events[1];
  if (Span->Kind != TraceKind::Span)
    std::swap(Span, Instant);
  EXPECT_EQ(Span->Kind, TraceKind::Span);
  EXPECT_STREQ(Span->ArgName, "k");
  EXPECT_EQ(Span->ArgValue, 7u);
  EXPECT_EQ(Instant->Kind, TraceKind::Instant);
  EXPECT_EQ(Instant->DurNanos, 0u);
}

TEST(TraceTest, RecentByArgFiltersAndBounds) {
  RecorderScope Scope;
  TraceRecorder &Rec = TraceRecorder::instance();
  for (uint64_t I = 0; I < 10; ++I)
    Rec.recordInstant("test", "ctxev", "ctx", I % 2);
  Rec.recordInstant("test", "other", "task", 0);
  std::vector<TraceEvent> Recent = Rec.recentByArg("ctx", 0, 3);
  ASSERT_EQ(Recent.size(), 3u);
  for (const TraceEvent &Ev : Recent) {
    EXPECT_STREQ(Ev.ArgName, "ctx");
    EXPECT_EQ(Ev.ArgValue, 0u);
  }
}

TEST(TraceTest, ConcurrentWritersLoseNothingWithinCapacity) {
  RecorderScope Scope;
  TraceRecorder &Rec = TraceRecorder::instance();
  const uint64_t Dropped0 = traceDropped();
  constexpr int Threads = 8;
  constexpr uint64_t PerThread = 2000;
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&Rec] {
      for (uint64_t I = 0; I < PerThread; ++I)
        Rec.recordInstant("test", "mt");
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Rec.recordedEvents(), Threads * PerThread);
  EXPECT_EQ(Rec.droppedEvents(), 0u);
  EXPECT_EQ(Rec.snapshot().size(), Threads * PerThread);
  EXPECT_EQ(traceDropped() - Dropped0, 0u)
      << "within-capacity workload must not tick cham.obs.trace_dropped";
}

TEST(TraceTest, MacrosRecordWhileArmed) {
  RecorderScope Scope;
  CHAM_TRACE_INSTANT_ARG("test", "macro_instant", "v", 1);
  { CHAM_TRACE_SPAN_ARG("test", "macro_span", "v", 2); }
  EXPECT_EQ(TraceRecorder::instance().recordedEvents(), 2u);
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

TEST(ExporterTest, JsonGolden) {
  Counter C("testgold.a.counter");
  Gauge G("testgold.b.gauge");
  HdrHistogram H("testgold.c.hdr");
  C.add(42);
  G.set(-5);
  // 5 lands in an exact unit bucket, 1000 and 2000 in log-linear buckets
  // 190 and 222 (upper bounds 1007 and 2015): p50 reports a bucket bound,
  // the upper quantiles clamp to the observed max.
  H.observe(5);
  H.observe(1000);
  H.observe(2000);
  EXPECT_EQ(Telemetry::snapshotJson("testgold."),
            "{\"metrics\":[\n"
            "  {\"name\":\"testgold.a.counter\",\"kind\":\"counter\","
            "\"value\":42},\n"
            "  {\"name\":\"testgold.b.gauge\",\"kind\":\"gauge\","
            "\"value\":-5},\n"
            "  {\"name\":\"testgold.c.hdr\",\"kind\":\"hdr\",\"count\":3,"
            "\"sum\":3005,\"min\":5,\"max\":2000,\"p50\":1007,\"p90\":2000,"
            "\"p99\":2000,\"p999\":2000,\"hdr\":[{\"i\":5,\"count\":1},"
            "{\"i\":190,\"count\":1},{\"i\":222,\"count\":1}]}\n"
            "]}\n");
  // The one-line value chameleon-stats' table and the fleet report print.
  std::vector<MetricSnapshot> Snaps = snapshotOf("testgold.");
  ASSERT_EQ(Snaps.size(), 3u);
  EXPECT_EQ(metricValueText(Snaps[0]), "42");
  EXPECT_EQ(metricValueText(Snaps[1]), "-5");
  EXPECT_EQ(metricValueText(Snaps[2]),
            "count=3 min=5 p50=1007 p99=2000 max=2000");
}

TEST(ExporterTest, PrometheusGolden) {
  Counter C("testgold.a.counter");
  Gauge G("testgold.b.gauge");
  HdrHistogram H("testgold.c.hdr");
  C.add(42);
  G.set(-5);
  H.observe(5);
  H.observe(1000);
  H.observe(2000);
  // Names sanitized ('.' -> '_'); hdr exports as a summary of the same
  // snapshot quantiles the JSON carries.
  EXPECT_EQ(Telemetry::prometheusText("testgold."),
            "# TYPE testgold_a_counter counter\n"
            "testgold_a_counter 42\n"
            "# TYPE testgold_b_gauge gauge\n"
            "testgold_b_gauge -5\n"
            "# TYPE testgold_c_hdr summary\n"
            "testgold_c_hdr{quantile=\"0.5\"} 1007\n"
            "testgold_c_hdr{quantile=\"0.9\"} 2000\n"
            "testgold_c_hdr{quantile=\"0.99\"} 2000\n"
            "testgold_c_hdr{quantile=\"0.999\"} 2000\n"
            "testgold_c_hdr_min 5\n"
            "testgold_c_hdr_max 2000\n"
            "testgold_c_hdr_sum 3005\n"
            "testgold_c_hdr_count 3\n");
}

TEST(ExporterTest, JsonSnapshotRoundTripsThroughParser) {
  Counter C("testrt.counter");
  Gauge G("testrt.gauge");
  HdrHistogram H("testrt.hdr");
  C.add(7);
  G.set(9);
  H.observe(50);
  H.observe(500);
  std::string Doc = Telemetry::snapshotJson("testrt.");

  json::Value Parsed;
  std::string Error;
  ASSERT_TRUE(json::parse(Doc, Parsed, &Error)) << Error;
  std::vector<MetricSnapshot> Snaps;
  ASSERT_TRUE(snapshotsFromJson(Parsed, Snaps, &Error)) << Error;
  ASSERT_EQ(Snaps.size(), 3u);

  // The re-read snapshots render to the very same documents — the
  // chameleon-stats byte-identity property.
  EXPECT_EQ(jsonFromSnapshots(Snaps), Doc);
  EXPECT_EQ(prometheusFromSnapshots(Snaps),
            Telemetry::prometheusText("testrt."));
}

TEST(ExporterTest, ChromeTraceJsonIsValidAndComplete) {
  std::vector<TraceEvent> Events;
  TraceEvent Span;
  Span.Category = "gc";
  Span.Name = "cycle";
  Span.ArgName = "cycle";
  Span.ArgValue = 1;
  Span.StartNanos = 1500;
  Span.DurNanos = 2500;
  Span.Tid = 0;
  Span.Kind = TraceKind::Span;
  Events.push_back(Span);
  TraceEvent Instant;
  Instant.Category = "profiler";
  Instant.Name = "shed_on";
  Instant.StartNanos = 3000;
  Instant.Tid = 1;
  Instant.Kind = TraceKind::Instant;
  Events.push_back(Instant);

  std::string Doc = chromeTraceFromEvents(Events);
  json::Value Parsed;
  std::string Error;
  ASSERT_TRUE(json::parse(Doc, Parsed, &Error)) << Error;
  const json::Value *Trace = Parsed.find("traceEvents");
  ASSERT_NE(Trace, nullptr);
  ASSERT_EQ(Trace->kind(), json::Value::Kind::Array);
  // process_name + 2 thread_name metadata + the 2 events.
  ASSERT_EQ(Trace->array().size(), 5u);

  const json::Value &SpanJson = Trace->array()[3];
  EXPECT_EQ(SpanJson.strOr("ph", ""), "X");
  EXPECT_EQ(SpanJson.strOr("cat", ""), "gc");
  EXPECT_DOUBLE_EQ(SpanJson.numberOr("ts", 0), 1.5);
  EXPECT_DOUBLE_EQ(SpanJson.numberOr("dur", 0), 2.5);
  const json::Value *Args = SpanJson.find("args");
  ASSERT_NE(Args, nullptr);
  EXPECT_DOUBLE_EQ(Args->numberOr("cycle", 0), 1);

  const json::Value &InstJson = Trace->array()[4];
  EXPECT_EQ(InstJson.strOr("ph", ""), "i");
  EXPECT_EQ(InstJson.strOr("s", ""), "t");
  EXPECT_EQ(InstJson.find("dur"), nullptr);
}

//===----------------------------------------------------------------------===//
// Allocator metrics
//===----------------------------------------------------------------------===//

/// Sum of every live instance of one cham.alloc.* metric.
uint64_t allocCounter(const std::string &Name) {
  uint64_t V = 0;
  for (const MetricSnapshot &S : MetricsRegistry::instance().snapshot(Name))
    V += S.Value;
  return V;
}

/// The allocation substrate (DESIGN.md §12) must be observable through the
/// same exporters as everything else: its counters appear in registry
/// snapshots, in the JSON bundle chameleon-stats re-reads, and in the
/// Prometheus text with the usual name sanitisation.
TEST(AllocMetricsTest, CountersExportThroughTelemetry) {
  // Touch the cached, central and direct paths so the counters are warm,
  // then publish the thread-local tallies.
  for (int I = 0; I < 64; ++I) {
    void *P = alloc::allocateBlock(40 + 8 * (I % 16));
    alloc::deallocateBlock(P);
  }
  void *Big = alloc::allocateBlock(alloc::kMaxPooledSize + 1);
  alloc::deallocateBlock(Big);
  alloc::threadCache().publishStats();

  std::vector<MetricSnapshot> Snaps = snapshotOf("cham.alloc.");
  auto Find = [&Snaps](const std::string &Name) -> const MetricSnapshot * {
    for (const MetricSnapshot &S : Snaps)
      if (S.Name == Name)
        return &S;
    return nullptr;
  };
  for (const char *Name :
       {"cham.alloc.cache_hits", "cham.alloc.cache_misses",
        "cham.alloc.transfer_batches", "cham.alloc.direct_allocs",
        "cham.alloc.spans_carved", "cham.alloc.central_contention",
        "cham.alloc.double_free", "cham.alloc.slot_cache_hits",
        "cham.alloc.slot_refills", "cham.alloc.locked_fallbacks"}) {
    const MetricSnapshot *S = Find(Name);
    ASSERT_NE(S, nullptr) << Name;
    EXPECT_EQ(S->Kind, MetricKind::Counter) << Name;
  }
  const MetricSnapshot *Reserved = Find("cham.alloc.reserved_bytes");
  ASSERT_NE(Reserved, nullptr);
  EXPECT_EQ(Reserved->Kind, MetricKind::Gauge);
  EXPECT_GT(Reserved->GaugeValue, 0) << "spans were carved above";
  EXPECT_GT(Find("cham.alloc.direct_allocs")->Value, 0u);

  // Both exporter renderings carry the substrate's counters.
  EXPECT_NE(Telemetry::snapshotJson("cham.alloc.")
                .find("cham.alloc.reserved_bytes"),
            std::string::npos);
  std::string Prom = Telemetry::prometheusText("cham.alloc.");
  EXPECT_NE(Prom.find("cham_alloc_cache_hits"), std::string::npos);
  EXPECT_NE(Prom.find("cham_alloc_reserved_bytes"), std::string::npos);
}

/// Deltas of the workload-determined alloc counters over one fixed
/// single-threaded workload.
struct AllocDeltas {
  uint64_t SlotHits;
  uint64_t SlotRefills;
  uint64_t LockedFallbacks;
  uint64_t DirectAllocs;
  uint64_t PoolAllocs; // cache hits + misses: every pooled block request

  bool operator==(const AllocDeltas &O) const = default;
};

AllocDeltas measureAllocWorkload() {
  using namespace chameleon::testing;
  // Make the cache state deterministic before measuring: return every
  // cached block centralward and drain the thread-local tallies.
  alloc::threadCache().flush();
  alloc::threadCache().publishStats();
  const uint64_t SlotHits0 = allocCounter("cham.alloc.slot_cache_hits");
  const uint64_t SlotRefills0 = allocCounter("cham.alloc.slot_refills");
  const uint64_t Fallbacks0 = allocCounter("cham.alloc.locked_fallbacks");
  const uint64_t Direct0 = allocCounter("cham.alloc.direct_allocs");
  const uint64_t Pool0 = allocCounter("cham.alloc.cache_hits") +
                         allocCounter("cham.alloc.cache_misses");
  {
    GcHeap Heap;
    TypeId Type = registerNodeType(Heap);
    std::vector<Handle> Roots;
    for (int I = 0; I < 3000; ++I) {
      ObjectRef R = allocNode(Heap, Type, 2, 8 + 8 * (I % 512));
      if (I % 7 == 0)
        Roots.emplace_back(Heap, R);
    }
    Heap.collect(true);
  }
  // Heap objects embed their variable parts in std::vector members, so
  // the direct path needs an explicit oversize block.
  void *Big = alloc::allocateBlock(alloc::kMaxPooledSize + 1);
  alloc::deallocateBlock(Big);
  alloc::threadCache().publishStats();
  return {allocCounter("cham.alloc.slot_cache_hits") - SlotHits0,
          allocCounter("cham.alloc.slot_refills") - SlotRefills0,
          allocCounter("cham.alloc.locked_fallbacks") - Fallbacks0,
          allocCounter("cham.alloc.direct_allocs") - Direct0,
          allocCounter("cham.alloc.cache_hits") +
              allocCounter("cham.alloc.cache_misses") - Pool0};
}

/// Identical single-threaded runs must move the workload-determined
/// counters by identical deltas — slot-cache traffic, locked fallbacks,
/// direct allocations, and total pooled requests (hits + misses; the
/// split between them may shift with the AIMD cache capacities the
/// process history left behind, their sum may not). spans_carved,
/// central_contention and reserved_bytes are deliberately excluded: they
/// depend on what earlier tests left in the central lists.
TEST(AllocMetricsTest, DeltasDeterministicAcrossIdenticalRuns) {
  (void)measureAllocWorkload(); // warm-up: settle arena + cache capacities
  AllocDeltas First = measureAllocWorkload();
  AllocDeltas Second = measureAllocWorkload();
  EXPECT_GT(First.SlotHits, 0u);
  EXPECT_GT(First.PoolAllocs, 0u);
  EXPECT_GT(First.DirectAllocs, 0u);
  EXPECT_EQ(First.SlotHits, Second.SlotHits);
  EXPECT_EQ(First.SlotRefills, Second.SlotRefills);
  EXPECT_EQ(First.LockedFallbacks, Second.LockedFallbacks);
  EXPECT_EQ(First.DirectAllocs, Second.DirectAllocs);
  EXPECT_EQ(First.PoolAllocs, Second.PoolAllocs);
}

/// Events one ServerSim run folds through the profiler's buffer flush:
/// the cham.profiler.flushed_events delta, and the run's own folded
/// allocations plus folded deaths.
struct FlushDeltas {
  uint64_t Flushed = 0;
  uint64_t Folded = 0;
};

/// The merged snapshot of the metric named exactly \p Name (empty when
/// none is registered).
MetricSnapshot metricNamed(const std::string &Name) {
  for (MetricSnapshot &S : snapshotOf(Name))
    if (S.Name == Name)
      return S;
  return {};
}

FlushDeltas measureServerSimFlush() {
  const uint64_t Flushed0 = metricNamed("cham.profiler.flushed_events").Value;
  CollectionRuntime RT(apps::serverSimRuntimeConfig());
  apps::ServerSimConfig Config;
  Config.MutatorThreads = 4;
  (void)apps::runServerSim(RT, Config);
  ProfilerDegradationStats D = RT.profiler().degradationStats();
  return {metricNamed("cham.profiler.flushed_events").Value - Flushed0,
          D.FoldedAllocs + D.FoldedDeaths};
}

/// A ServerSim run buffers every allocation and death event from the
/// first one (runServerSim enables concurrent-mutator mode before boot)
/// and folds each at exactly one flush, so the flushed-events counter
/// moves by the run's folded events, identically across identical runs.
/// The flush-duration and barrier-idle histograms take samples.
TEST(ProfilerMetricsTest, FlushedEventsDeterministicAcrossIdenticalRuns) {
  const uint64_t FlushSamples0 = metricNamed("cham.profiler.flush_nanos").Count;
  const uint64_t IdleSamples0 =
      metricNamed("cham.apps.barrier_idle_nanos").Count;
  FlushDeltas First = measureServerSimFlush();
  FlushDeltas Second = measureServerSimFlush();
  EXPECT_GT(First.Flushed, 0u);
  EXPECT_EQ(First.Flushed, First.Folded);
  EXPECT_EQ(Second.Flushed, Second.Folded);
  EXPECT_EQ(First.Flushed, Second.Flushed);
  EXPECT_GT(metricNamed("cham.profiler.flush_nanos").Count, FlushSamples0);
  // One straggler-wait sample per epoch of each run.
  EXPECT_EQ(metricNamed("cham.apps.barrier_idle_nanos").Count,
            IdleSamples0 + 2 * apps::ServerSimConfig().Epochs);
}

//===----------------------------------------------------------------------===//
// JSON parser
//===----------------------------------------------------------------------===//

TEST(JsonTest, ParsesNestedDocument) {
  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse(
      "{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": true, \"d\": null}, "
      "\"s\": \"hi\\n\\u0041\"}",
      V, &Error))
      << Error;
  const json::Value *A = V.find("a");
  ASSERT_NE(A, nullptr);
  ASSERT_EQ(A->array().size(), 3u);
  EXPECT_DOUBLE_EQ(A->array()[1].number(), 2.5);
  EXPECT_DOUBLE_EQ(A->array()[2].number(), -300.0);
  const json::Value *B = V.find("b");
  ASSERT_NE(B, nullptr);
  EXPECT_TRUE(B->find("c")->boolean());
  EXPECT_TRUE(B->find("d")->isNull());
  EXPECT_EQ(V.strOr("s", ""), "hi\nA");
}

TEST(JsonTest, RejectsMalformedInput) {
  json::Value V;
  std::string Error;
  EXPECT_FALSE(json::parse("{\"a\": }", V, &Error));
  EXPECT_FALSE(json::parse("[1, 2", V, &Error));
  EXPECT_FALSE(json::parse("{} trailing", V, &Error));
  EXPECT_FALSE(json::parse("\"unterminated", V, &Error));
  EXPECT_FALSE(json::parse("", V, &Error));
}

TEST(JsonTest, EscapeRoundTrips) {
  std::string Escaped = json::escape("a\"b\\c\nd\x01");
  EXPECT_EQ(Escaped, "a\\\"b\\\\c\\nd\\u0001");
  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse("\"" + Escaped + "\"", V, &Error)) << Error;
  EXPECT_EQ(V.str(), "a\"b\\c\nd\x01");
}

//===----------------------------------------------------------------------===//
// Fleet metrics
//===----------------------------------------------------------------------===//

/// Sum of every live instance of one cham.fleet.* metric.
uint64_t fleetCounter(const std::string &Name) {
  uint64_t V = 0;
  for (const MetricSnapshot &S : MetricsRegistry::instance().snapshot(Name))
    V += S.Value;
  return V;
}

struct FleetDeltas {
  uint64_t Commits = 0;
  uint64_t Sent = 0;
  uint64_t Updates = 0;
  uint64_t Acks = 0;
  uint64_t Persists = 0;
};

/// One fixed agent→aggregator exchange over the in-memory hub: four
/// committed epochs, fully drained. Single-threaded pump loop, no faults,
/// no wall time — the counter movement is workload-determined.
FleetDeltas measureFleetExchange() {
  uint64_t Commits0 = fleetCounter("cham.fleet.commits");
  uint64_t Sent0 = fleetCounter("cham.fleet.sent_records");
  uint64_t Updates0 = fleetCounter("cham.fleet.updates");
  uint64_t Acks0 = fleetCounter("cham.fleet.acks_sent");
  uint64_t Persists0 = fleetCounter("cham.fleet.snapshot_persists");

  fleet::InMemoryHub Hub;
  fleet::FleetAggregatorConfig GC;
  GC.PersistEveryUpdates = 1;
  fleet::FleetAggregator Agg(GC);
  fleet::FleetAgentConfig AC;
  AC.AgentId = "metrics-agent";
  fleet::FleetAgent Agent(AC, Hub);
  for (uint64_t E = 1; E <= 4; ++E) {
    fleet::ProcessProfile P;
    P.Epoch = E;
    P.Heap.Live = TotalMax::fromParts(E * 100, 100, E);
    Agent.commitEpoch(std::move(P));
  }
  uint64_t Tick = 0;
  for (int Round = 0; Round < 200 && !Agent.drained(); ++Round) {
    Agent.pump(Tick++);
    for (auto &C : Hub.acceptAll())
      Agg.attach(std::move(C));
    Agg.pump();
  }
  EXPECT_TRUE(Agent.drained());

  return {fleetCounter("cham.fleet.commits") - Commits0,
          fleetCounter("cham.fleet.sent_records") - Sent0,
          fleetCounter("cham.fleet.updates") - Updates0,
          fleetCounter("cham.fleet.acks_sent") - Acks0,
          fleetCounter("cham.fleet.snapshot_persists") - Persists0};
}

/// Identical single-threaded fleet exchanges must move the fleet counters
/// by identical deltas — the determinism guard the other cham.* layers
/// already have. Backoff/retry counters are excluded only because this
/// run never fails; the exchange itself pins commits, sends, applied
/// updates, acks, and persists.
TEST(FleetMetricsTest, DeltasDeterministicAcrossIdenticalRuns) {
  FleetDeltas First = measureFleetExchange();
  FleetDeltas Second = measureFleetExchange();
  EXPECT_EQ(First.Commits, 4u);
  EXPECT_EQ(First.Sent, 4u);
  EXPECT_EQ(First.Updates, 4u);
  EXPECT_GT(First.Acks, 0u);
  EXPECT_GT(First.Persists, 0u);
  EXPECT_EQ(First.Commits, Second.Commits);
  EXPECT_EQ(First.Sent, Second.Sent);
  EXPECT_EQ(First.Updates, Second.Updates);
  EXPECT_EQ(First.Acks, Second.Acks);
  EXPECT_EQ(First.Persists, Second.Persists);
}

} // namespace
