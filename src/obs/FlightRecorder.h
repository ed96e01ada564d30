//===--- FlightRecorder.h - Crash-safe post-mortem dump --------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The black box (DESIGN.md §16): a fatal-signal handler that writes a
/// post-mortem dump — the decision-ledger tail, the last metrics
/// checkpoint, and the last trace checkpoint — so chaos and soak failures
/// are diagnosable after the process is gone. The dump goes to a
/// temp+rename file (never a torn half-dump at the final path), then the
/// original signal disposition is restored and the signal re-raised so
/// exit codes and core dumps are unchanged.
///
/// Signal-safety rules (enforced by construction, documented in §16):
///
///  - The handler only reads (a) the DecisionLog's preallocated POD ring
///    through its release-published cursor and (b) the checkpoint
///    buffers, which are double-buffered and swapped by an atomic index —
///    it never walks mutex-guarded heap structures. The trace rings are
///    mutex-guarded, so the trace section is as-of the last checkpoint()
///    call, not the crash instant; the ledger tail IS read at crash time.
///  - The handler formats with hand-rolled integer/hex writers into a
///    static buffer and uses only open/write/close/rename — no malloc,
///    no stdio, no locks. Ledger doubles are written as IEEE bit patterns
///    (`avg_ops_b`), which decisionsFromJson reads back losslessly.
///  - checkpoint() is the only mutating entry point and must be called
///    from quiescent points (epoch barriers, harness ticks).
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_OBS_FLIGHTRECORDER_H
#define CHAMELEON_OBS_FLIGHTRECORDER_H

#include "support/Annotations.h"

#include <atomic>
#include <mutex>
#include <string>

namespace chameleon::obs {

class FlightRecorder {
public:
  /// Ledger records kept in the dump tail.
  static constexpr size_t MaxDumpRecords = 512;
  /// Trace events kept per checkpoint.
  static constexpr size_t MaxCheckpointTraceEvents = 256;

  static FlightRecorder &instance();

  /// Installs fatal-signal handlers (SIGABRT/SEGV/BUS/FPE/ILL) that dump
  /// to \p Path via temp+rename. Metric snapshots in checkpoints are
  /// filtered to \p MetricsPrefix. Re-installing replaces the path.
  bool install(const std::string &Path, const std::string &MetricsPrefix = {},
               std::string *Error = nullptr);

  /// Installs from $CHAM_FLIGHT_RECORDER when set; no-op otherwise.
  /// \returns true when a handler is (now) installed.
  bool installFromEnv(const std::string &MetricsPrefix = {});

  bool installed() const {
    return Installed.load(std::memory_order_relaxed);
  }

  /// Re-renders the metrics and trace checkpoint buffers from live state.
  /// Call from quiescent points; the crash path serves whichever
  /// checkpoint was last published.
  void checkpoint();

  /// Writes the dump as the fatal handler would (for tests and for
  /// explicit "dump before exiting" call sites). Async-signal-safe.
  /// \returns false when any syscall failed.
  bool dumpNow(int Signal);

private:
  FlightRecorder() = default;

  static void handler(int Sig);

  struct CheckpointSlot {
    std::string Metrics; ///< Pre-rendered {"metrics":[...]} document.
    std::string Trace;   ///< Pre-rendered Chrome-trace document.
  };

  // Outermost rank: install/checkpoint run from harness top level with
  // nothing held and call into allocating, lock-taking renderers.
  mutable std::mutex Mu CHAM_LOCK_RANK(60);
  std::atomic<bool> Installed{false};
  /// Dump path and its temp sibling, fixed at install() so the handler
  /// never touches std::string internals.
  char Path[512] = {0};
  char TmpPath[512] = {0};
  char Prefix[128] = {0};
  CheckpointSlot Slots[2];
  /// 2 = no checkpoint yet; else index of the published slot.
  std::atomic<uint32_t> ActiveSlot{2};
};

} // namespace chameleon::obs

#endif // CHAMELEON_OBS_FLIGHTRECORDER_H
