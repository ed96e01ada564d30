//===--- Trace.h - Trace-event recorder (spans & instants) -----*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The timeline half of the telemetry layer (DESIGN.md §11): a global
/// TraceRecorder keeping one bounded ring buffer of timestamped events per
/// thread. Production code marks work with CHAM_TRACE_SPAN (RAII, records
/// a complete event with duration at scope exit) and CHAM_TRACE_INSTANT;
/// an exporter renders the merged rings as Chrome `trace_event` JSON that
/// loads directly in Perfetto or chrome://tracing.
///
/// The arming discipline mirrors FaultInjector: while disarmed every site
/// costs exactly one relaxed atomic load, so the sites are always compiled
/// in (bench/micro_telemetry_overhead measures a disarmed site against a
/// collection op). While armed, a site appends to its own thread's ring
/// under that ring's (otherwise uncontended) mutex; full rings overwrite
/// their oldest event, so a long run keeps the most recent window per
/// thread and counts what it dropped.
///
/// Category and name strings must be literals (the recorder stores the
/// pointers). Events may carry one named integer argument — used, e.g.,
/// to tag migration events with the context id so explainContext can pull
/// the last-N events for one context.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_OBS_TRACE_H
#define CHAMELEON_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace chameleon::obs {

enum class TraceKind : uint8_t { Instant, Span };

struct TraceEvent {
  const char *Category = nullptr; ///< Static string.
  const char *Name = nullptr;     ///< Static string.
  const char *ArgName = nullptr;  ///< Optional named integer argument.
  uint64_t ArgValue = 0;
  uint64_t StartNanos = 0; ///< Nanoseconds since arm().
  uint64_t DurNanos = 0;   ///< Spans only.
  uint32_t Tid = 0;        ///< Recorder-assigned per-ring id.
  TraceKind Kind = TraceKind::Instant;
};

class TraceRecorder {
public:
  static constexpr uint32_t DefaultCapacity = 16384;

  /// The process-global recorder all CHAM_TRACE sites consult.
  static TraceRecorder &instance();

  /// The whole disarmed cost: one relaxed load.
  static bool enabled() { return Armed.load(std::memory_order_relaxed); }

  /// Starts recording into fresh rings of \p PerThreadCapacity events and
  /// re-bases the clock. Previously recorded events are discarded.
  void arm(uint32_t PerThreadCapacity = DefaultCapacity);

  /// Stops recording. Events survive until the next arm()/clear() so a
  /// harness can export what it captured.
  void disarm();

  /// Drops all recorded events (keeps the armed/disarmed state).
  void clear();

  /// Nanoseconds since the last arm().
  uint64_t nowNanos() const;

  void recordInstant(const char *Category, const char *Name,
                     const char *ArgName = nullptr, uint64_t ArgValue = 0);

  /// Records a complete span that began at \p StartNanos and ends now.
  void recordSpan(const char *Category, const char *Name, uint64_t StartNanos,
                  const char *ArgName = nullptr, uint64_t ArgValue = 0);

  /// Every retained event, merged across threads, time-sorted, with Tid
  /// filled in.
  std::vector<TraceEvent> snapshot() const;

  /// The newest \p MaxEvents events carrying the argument
  /// (\p ArgName == \p ArgValue), oldest first.
  std::vector<TraceEvent> recentByArg(const char *ArgName, uint64_t ArgValue,
                                      size_t MaxEvents) const;

  /// Events lost to ring overwrite since arm().
  uint64_t droppedEvents() const;

  /// Events currently retained plus those overwritten — i.e. everything
  /// ever recorded since arm().
  uint64_t recordedEvents() const;

private:
  struct ThreadLog {
    std::mutex Mu;
    std::vector<TraceEvent> Ring;
    uint64_t Written = 0;
    uint32_t Capacity = 0;
    uint32_t Tid = 0;
  };

  TraceRecorder() = default;

  ThreadLog &threadLog();
  void record(TraceEvent Ev);

  inline static std::atomic<bool> Armed{false};

  mutable std::mutex Mu;
  std::vector<std::unique_ptr<ThreadLog>> Logs;
  /// Logs from earlier arm() generations: kept allocated (never freed
  /// while the process lives) so a racing writer's cached pointer can
  /// never dangle; their events are simply no longer exported.
  std::vector<std::unique_ptr<ThreadLog>> Retired;
  std::atomic<uint64_t> Generation{0};
  uint32_t Capacity = DefaultCapacity;
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
};

/// RAII span: samples the clock at construction when the recorder is
/// armed, records a complete event at destruction.
class TraceSpan {
public:
  TraceSpan(const char *Category, const char *Name,
            const char *ArgName = nullptr, uint64_t ArgValue = 0)
      : Category(Category), Name(Name), ArgName(ArgName), ArgValue(ArgValue),
        Active(TraceRecorder::enabled()) {
    if (Active)
      StartNanos = TraceRecorder::instance().nowNanos();
  }

  ~TraceSpan() {
    if (Active && TraceRecorder::enabled())
      TraceRecorder::instance().recordSpan(Category, Name, StartNanos,
                                           ArgName, ArgValue);
  }

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  const char *Category;
  const char *Name;
  const char *ArgName;
  uint64_t ArgValue;
  uint64_t StartNanos = 0;
  bool Active;
};

} // namespace chameleon::obs

#define CHAM_OBS_CONCAT_IMPL(A, B) A##B
#define CHAM_OBS_CONCAT(A, B) CHAM_OBS_CONCAT_IMPL(A, B)

/// Scoped span over the rest of the enclosing block.
#define CHAM_TRACE_SPAN(Category, Name)                                        \
  ::chameleon::obs::TraceSpan CHAM_OBS_CONCAT(ChamTraceSpan_,                  \
                                              __LINE__)(Category, Name)
#define CHAM_TRACE_SPAN_ARG(Category, Name, ArgName, ArgValue)                 \
  ::chameleon::obs::TraceSpan CHAM_OBS_CONCAT(ChamTraceSpan_, __LINE__)(       \
      Category, Name, ArgName, static_cast<uint64_t>(ArgValue))

/// Point-in-time event.
#define CHAM_TRACE_INSTANT(Category, Name)                                     \
  do {                                                                         \
    if (::chameleon::obs::TraceRecorder::enabled())                            \
      ::chameleon::obs::TraceRecorder::instance().recordInstant(Category,      \
                                                                Name);         \
  } while (false)
#define CHAM_TRACE_INSTANT_ARG(Category, Name, ArgName, ArgValue)              \
  do {                                                                         \
    if (::chameleon::obs::TraceRecorder::enabled())                            \
      ::chameleon::obs::TraceRecorder::instance().recordInstant(               \
          Category, Name, ArgName, static_cast<uint64_t>(ArgValue));           \
  } while (false)

#endif // CHAMELEON_OBS_TRACE_H
