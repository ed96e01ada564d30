//===--- Telemetry.h - Metric and trace exporters --------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The export surface of the telemetry layer (DESIGN.md §11). Three
/// formats over the same state:
///
///  - `Telemetry::snapshotJson`: the metrics registry as a JSON document
///    (`{"metrics": [...]}`), the format chameleon-stats re-reads.
///  - `Telemetry::prometheusText`: the registry in Prometheus text
///    exposition format (metric names have their '.' replaced by '_';
///    hdr metrics export as a summary of pre-computed quantiles).
///  - `Telemetry::chromeTraceJson`: the TraceRecorder's retained events
///    as Chrome `trace_event` JSON — loadable directly in Perfetto.
///
/// `writeTelemetryDir` bundles all three into a directory
/// (trace.json / metrics.json / metrics.prom), which is what
/// `ServerSim --telemetry-out=<dir>` produces. When the DecisionLog is
/// armed the bundle also contains decisions.json — the canonical ledger
/// export `chameleon-stats --why` renders (DESIGN.md §16).
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_OBS_TELEMETRY_H
#define CHAMELEON_OBS_TELEMETRY_H

#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <string>
#include <vector>

namespace chameleon::obs {

struct Telemetry {
  /// JSON snapshot of every registered metric whose name starts with
  /// \p Prefix (empty = all).
  static std::string snapshotJson(const std::string &Prefix = {});

  /// Prometheus text exposition of the same snapshot.
  static std::string prometheusText(const std::string &Prefix = {});

  /// The trace recorder's retained events as Chrome trace_event JSON.
  static std::string chromeTraceJson();

  /// Writes trace.json, metrics.json (prefix-filtered), and metrics.prom
  /// into \p Dir, creating it if needed. Returns false (and sets
  /// \p Error) on the first I/O failure.
  static bool writeTelemetryDir(const std::string &Dir,
                                const std::string &MetricsPrefix = {},
                                std::string *Error = nullptr);
};

/// Renders \p Snapshots in Prometheus text format. chameleon-stats feeds
/// this the snapshots it re-read from metrics.json, so its output is
/// byte-identical to what prometheusText produced in the instrumented
/// process.
std::string prometheusFromSnapshots(const std::vector<MetricSnapshot> &Snaps);

/// One metric's value as a single line of text, the cell chameleon-stats'
/// table and the fleet report print: a counter's or gauge's value, or an
/// hdr metric's "count=N min=N p50=N p99=N max=N".
std::string metricValueText(const MetricSnapshot &S);

/// Renders \p Snapshots as the metrics.json document.
std::string jsonFromSnapshots(const std::vector<MetricSnapshot> &Snaps);

/// Rebuilds snapshots from a parsed metrics.json document. Returns false
/// (and sets \p Error) when the document does not have the expected
/// shape.
bool snapshotsFromJson(const json::Value &Doc,
                       std::vector<MetricSnapshot> &Out,
                       std::string *Error = nullptr);

/// Renders \p Events as Chrome trace_event JSON (what chromeTraceJson
/// does for the live recorder's snapshot).
std::string chromeTraceFromEvents(const std::vector<TraceEvent> &Events);

} // namespace chameleon::obs

#endif // CHAMELEON_OBS_TELEMETRY_H
