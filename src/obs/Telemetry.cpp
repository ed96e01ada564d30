//===--- Telemetry.cpp - Metric and trace exporters -----------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Telemetry.h"

#include "obs/DecisionLog.h"
#include "support/Format.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <filesystem>

using namespace chameleon::obs;

namespace {

using chameleon::appendf;

/// Prometheus metric names allow [a-zA-Z0-9_:]; our dotted scheme maps
/// '.' (and any other outsider) to '_'.
std::string promName(const std::string &Name) {
  std::string Out = Name;
  for (char &C : Out)
    if (!(std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
          C == ':'))
      C = '_';
  return Out;
}

bool writeFile(const std::filesystem::path &Path, const std::string &Data,
               std::string *Error) {
  std::FILE *F = std::fopen(Path.string().c_str(), "w");
  if (!F) {
    if (Error)
      *Error = "cannot open " + Path.string() + " for writing";
    return false;
  }
  size_t Written = std::fwrite(Data.data(), 1, Data.size(), F);
  bool Ok = Written == Data.size() && std::fclose(F) == 0;
  if (!Ok && Error)
    *Error = "short write to " + Path.string();
  return Ok;
}

/// The quantiles both exporters publish for hdr metrics.
constexpr double HdrQuantiles[] = {0.5, 0.9, 0.99, 0.999};
constexpr const char *HdrQuantileKeys[] = {"p50", "p90", "p99", "p999"};
constexpr const char *HdrQuantileLabels[] = {"0.5", "0.9", "0.99", "0.999"};

} // namespace

//===----------------------------------------------------------------------===//
// Metrics exporters
//===----------------------------------------------------------------------===//

std::string
chameleon::obs::jsonFromSnapshots(const std::vector<MetricSnapshot> &Snaps) {
  std::string Out = "{\"metrics\":[";
  bool First = true;
  for (const MetricSnapshot &S : Snaps) {
    if (!First)
      Out += ',';
    First = false;
    appendf(Out, "\n  {\"name\":\"%s\",\"kind\":\"%s\"",
            json::escape(S.Name).c_str(), metricKindName(S.Kind));
    switch (S.Kind) {
    case MetricKind::Counter:
      appendf(Out, ",\"value\":%" PRIu64, S.Value);
      break;
    case MetricKind::Gauge:
      appendf(Out, ",\"value\":%" PRId64, S.GaugeValue);
      break;
    case MetricKind::Hdr: {
      appendf(Out,
              ",\"count\":%" PRIu64 ",\"sum\":%" PRIu64 ",\"min\":%" PRIu64
              ",\"max\":%" PRIu64,
              S.Count, S.Sum, S.MinValue, S.MaxValue);
      // Percentiles are derived from the sparse buckets, so re-rendering
      // a parsed snapshot reproduces these bytes exactly.
      for (size_t Q = 0; Q < 4; ++Q)
        appendf(Out, ",\"%s\":%" PRIu64, HdrQuantileKeys[Q],
                hdrSnapshotQuantile(S, HdrQuantiles[Q]));
      Out += ",\"hdr\":[";
      for (size_t I = 0; I < S.HdrBuckets.size(); ++I) {
        if (I)
          Out += ',';
        appendf(Out, "{\"i\":%u,\"count\":%" PRIu64 "}",
                S.HdrBuckets[I].first, S.HdrBuckets[I].second);
      }
      Out += ']';
      break;
    }
    }
    Out += '}';
  }
  Out += "\n]}\n";
  return Out;
}

std::string chameleon::obs::prometheusFromSnapshots(
    const std::vector<MetricSnapshot> &Snaps) {
  std::string Out;
  for (const MetricSnapshot &S : Snaps) {
    std::string Name = promName(S.Name);
    // Prometheus has no native log-linear kind; hdr metrics export as a
    // summary (pre-computed quantiles).
    appendf(Out, "# TYPE %s %s\n", Name.c_str(),
            S.Kind == MetricKind::Hdr ? "summary" : metricKindName(S.Kind));
    switch (S.Kind) {
    case MetricKind::Counter:
      appendf(Out, "%s %" PRIu64 "\n", Name.c_str(), S.Value);
      break;
    case MetricKind::Gauge:
      appendf(Out, "%s %" PRId64 "\n", Name.c_str(), S.GaugeValue);
      break;
    case MetricKind::Hdr: {
      for (size_t Q = 0; Q < 4; ++Q)
        appendf(Out, "%s{quantile=\"%s\"} %" PRIu64 "\n", Name.c_str(),
                HdrQuantileLabels[Q], hdrSnapshotQuantile(S, HdrQuantiles[Q]));
      appendf(Out, "%s_min %" PRIu64 "\n", Name.c_str(), S.MinValue);
      appendf(Out, "%s_max %" PRIu64 "\n", Name.c_str(), S.MaxValue);
      appendf(Out, "%s_sum %" PRIu64 "\n", Name.c_str(), S.Sum);
      appendf(Out, "%s_count %" PRIu64 "\n", Name.c_str(), S.Count);
      break;
    }
    }
  }
  return Out;
}

std::string chameleon::obs::metricValueText(const MetricSnapshot &S) {
  std::string Out;
  switch (S.Kind) {
  case MetricKind::Counter:
    appendf(Out, "%" PRIu64, S.Value);
    break;
  case MetricKind::Gauge:
    appendf(Out, "%" PRId64, S.GaugeValue);
    break;
  case MetricKind::Hdr:
    appendf(Out,
            "count=%" PRIu64 " min=%" PRIu64 " p50=%" PRIu64 " p99=%" PRIu64
            " max=%" PRIu64,
            S.Count, S.MinValue, hdrSnapshotQuantile(S, 0.5),
            hdrSnapshotQuantile(S, 0.99), S.MaxValue);
    break;
  }
  return Out;
}

bool chameleon::obs::snapshotsFromJson(const json::Value &Doc,
                                       std::vector<MetricSnapshot> &Out,
                                       std::string *Error) {
  const json::Value *Metrics = Doc.find("metrics");
  if (!Metrics || Metrics->kind() != json::Value::Kind::Array) {
    if (Error)
      *Error = "document has no \"metrics\" array";
    return false;
  }
  for (const json::Value &M : Metrics->array()) {
    MetricSnapshot S;
    S.Name = M.strOr("name", "");
    std::string Kind = M.strOr("kind", "");
    if (S.Name.empty() || Kind.empty()) {
      if (Error)
        *Error = "metric entry without name/kind";
      return false;
    }
    if (Kind == "counter") {
      S.Kind = MetricKind::Counter;
      S.Value = static_cast<uint64_t>(M.numberOr("value", 0));
    } else if (Kind == "gauge") {
      S.Kind = MetricKind::Gauge;
      S.GaugeValue = static_cast<int64_t>(M.numberOr("value", 0));
    } else if (Kind == "hdr") {
      S.Kind = MetricKind::Hdr;
      S.Count = static_cast<uint64_t>(M.numberOr("count", 0));
      S.Sum = static_cast<uint64_t>(M.numberOr("sum", 0));
      S.MinValue = static_cast<uint64_t>(M.numberOr("min", 0));
      S.MaxValue = static_cast<uint64_t>(M.numberOr("max", 0));
      const json::Value *Buckets = M.find("hdr");
      if (!Buckets || Buckets->kind() != json::Value::Kind::Array) {
        if (Error)
          *Error = "hdr metric \"" + S.Name + "\" has no hdr array";
        return false;
      }
      for (const json::Value &B : Buckets->array())
        S.HdrBuckets.emplace_back(
            static_cast<uint32_t>(B.numberOr("i", 0)),
            static_cast<uint64_t>(B.numberOr("count", 0)));
    } else {
      if (Error)
        *Error = "unknown metric kind \"" + Kind + "\"";
      return false;
    }
    Out.push_back(std::move(S));
  }
  return true;
}

std::string Telemetry::snapshotJson(const std::string &Prefix) {
  return jsonFromSnapshots(MetricsRegistry::instance().snapshot(Prefix));
}

std::string Telemetry::prometheusText(const std::string &Prefix) {
  return prometheusFromSnapshots(MetricsRegistry::instance().snapshot(Prefix));
}

//===----------------------------------------------------------------------===//
// Chrome trace exporter
//===----------------------------------------------------------------------===//

std::string
chameleon::obs::chromeTraceFromEvents(const std::vector<TraceEvent> &Events) {
  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  appendf(Out, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               "\"args\":{\"name\":\"chameleon\"}}");
  uint32_t MaxTid = 0;
  for (const TraceEvent &Ev : Events)
    MaxTid = std::max(MaxTid, Ev.Tid);
  for (uint32_t T = 0; Events.size() && T <= MaxTid; ++T)
    appendf(Out,
            ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
            "\"tid\":%u,\"args\":{\"name\":\"thread %u\"}}",
            T, T);
  for (const TraceEvent &Ev : Events) {
    // Timestamps are microseconds (double) in the trace_event format.
    double Ts = static_cast<double>(Ev.StartNanos) / 1000.0;
    appendf(Out, ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"pid\":1,\"tid\":%u",
            json::escape(Ev.Name).c_str(), json::escape(Ev.Category).c_str(),
            Ev.Tid);
    if (Ev.Kind == TraceKind::Span)
      appendf(Out, ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f", Ts,
              static_cast<double>(Ev.DurNanos) / 1000.0);
    else
      appendf(Out, ",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f", Ts);
    if (Ev.ArgName)
      appendf(Out, ",\"args\":{\"%s\":%" PRIu64 "}",
              json::escape(Ev.ArgName).c_str(), Ev.ArgValue);
    Out += '}';
  }
  Out += "\n]}\n";
  return Out;
}

std::string Telemetry::chromeTraceJson() {
  return chromeTraceFromEvents(TraceRecorder::instance().snapshot());
}

//===----------------------------------------------------------------------===//
// Directory bundle
//===----------------------------------------------------------------------===//

bool Telemetry::writeTelemetryDir(const std::string &Dir,
                                  const std::string &MetricsPrefix,
                                  std::string *Error) {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec) {
    if (Error)
      *Error = "cannot create " + Dir + ": " + Ec.message();
    return false;
  }
  std::filesystem::path Base(Dir);
  bool Ok = writeFile(Base / "trace.json", chromeTraceJson(), Error) &&
            writeFile(Base / "metrics.json", snapshotJson(MetricsPrefix),
                      Error) &&
            writeFile(Base / "metrics.prom", prometheusText(MetricsPrefix),
                      Error);
  // The decision ledger joins the bundle only when armed: disarmed runs
  // keep producing byte-identical three-file bundles.
  if (Ok && DecisionLog::instance().enabled())
    Ok = writeFile(Base / "decisions.json",
                   decisionsJson(DecisionLog::instance().exportCanonical()),
                   Error);
  return Ok;
}
