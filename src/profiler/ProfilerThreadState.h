//===--- ProfilerThreadState.h - Per-mutator profiler state ----*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-mutator-thread slice of the semantic profiler (DESIGN.md §9):
/// the simulated call stack with its incremental fingerprint, the
/// direct-mapped context cache, the sampling/overhead counters, and the
/// buffer of profile events awaiting the next epoch flush. Everything here
/// is owned by exactly one mutator thread between flushes; the profiler
/// drains the buffers only while the world is stopped (GC safepoint) or at
/// an application epoch barrier, both of which order the owner's writes
/// before the drain.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_PROFILER_PROFILERTHREADSTATE_H
#define CHAMELEON_PROFILER_PROFILERTHREADSTATE_H

#include "profiler/ContextInfo.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <thread>
#include <vector>

namespace chameleon::alloc {
class ThreadCache;
} // namespace chameleon::alloc

namespace chameleon {

/// One direct-mapped cache line of the allocation-context fast path.
struct ContextCacheEntry {
  uint64_t Fingerprint = 0;
  FrameId SiteId = 0;
  FrameId TypeNameId = 0;
  ContextInfo *Info = nullptr;
};

/// A profile event buffered on its mutator thread and replayed at the next
/// flush in ascending (Task, Seq) order — the same buffer-then-replay
/// discipline the parallel sweep uses, which is what keeps the folded
/// statistics byte-identical across mutator-thread counts when tasks are
/// partitioned deterministically (DESIGN.md §9).
struct PendingProfileEvent {
  enum EventKind : uint8_t { Alloc, Death };
  EventKind Kind = Alloc;
  ContextInfo *Ctx = nullptr;
  /// Application-assigned logical task id (see setCurrentTask); the major
  /// replay key. Globally unique task ids make the replay order — and so
  /// the order-sensitive Welford folds — independent of thread count.
  uint64_t Task = 0;
  /// Per-thread monotonic sequence; the minor replay key, ordering the
  /// events of one task (tasks never span threads).
  uint64_t Seq = 0;
  /// Alloc events: the effective initial capacity.
  uint32_t InitialCapacity = 0;
  /// Death events: the dead instance's usage record, copied at retirement
  /// (the original lives in the wrapper, which the GC may sweep before the
  /// flush runs).
  ObjectContextInfo Snapshot;
};

/// The flush's replay order: ascending (Task, Seq).
inline bool replaysBefore(const PendingProfileEvent &A,
                          const PendingProfileEvent &B) {
  return A.Task != B.Task ? A.Task < B.Task : A.Seq < B.Seq;
}

/// Visits every event of \p Buffers once, in ascending (Task, Seq) order,
/// with equal keys going to the earlier buffer: exactly the order a
/// std::stable_sort of the buffers' concatenation gives, without copying
/// an event. A thread produces its events in that order whenever it runs
/// its tasks in ascending id, so each buffer is only checked; one that is
/// not in order is stable-sorted in place first.
template <typename VisitT>
void mergePendingEvents(
    std::span<std::vector<PendingProfileEvent> *const> Buffers,
    VisitT &&Visit) {
  struct Cursor {
    const PendingProfileEvent *Next;
    const PendingProfileEvent *End;
  };
  // In buffer order, so a strict comparison leaves ties to the earlier one.
  std::vector<Cursor> Heads;
  Heads.reserve(Buffers.size());
  for (std::vector<PendingProfileEvent> *B : Buffers) {
    if (B->empty())
      continue;
    if (!std::is_sorted(B->begin(), B->end(), replaysBefore))
      std::stable_sort(B->begin(), B->end(), replaysBefore);
    Heads.push_back({B->data(), B->data() + B->size()});
  }
  while (!Heads.empty()) {
    size_t Min = 0;
    for (size_t I = 1; I < Heads.size(); ++I)
      if (replaysBefore(*Heads[I].Next, *Heads[Min].Next))
        Min = I;
    Visit(*Heads[Min].Next);
    if (++Heads[Min].Next == Heads[Min].End)
      Heads.erase(Heads.begin() + static_cast<ptrdiff_t>(Min));
  }
}

/// Per-mutator-thread profiler state. The profiler keeps one embedded
/// instance for the main thread and creates one per additional mutator on
/// first use (keyed by std::thread::id).
struct ProfilerThreadState {
  /// The simulated call stack and its incremental fingerprint stack,
  /// kept in lock-step by pushFrame/popFrame.
  std::vector<FrameId> Stack;
  std::vector<uint64_t> FingerprintStack;
  /// Direct-mapped allocation-context cache (empty when the fast path is
  /// off). Per-thread, so hits stay lock-free.
  std::vector<ContextCacheEntry> ContextCache;

  /// Sampling and overhead counters (per-thread, so
  /// ProfilerConfig::SamplingPeriod counts each thread's allocations
  /// exactly, with no cross-thread increment races).
  uint64_t AllocationTick = 0;
  uint64_t Acquisitions = 0;
  uint64_t SampledOut = 0;
  /// Allocations the *base* sampling period would have captured but the
  /// shed-mode multiplier skipped (counted apart from SampledOut so the
  /// degradation report can attribute lost coverage to pressure).
  uint64_t ShedSampledOut = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;

  /// Degradation accounting (see SemanticProfiler::degradationStats):
  /// every event accepted by noteAllocation/noteDeath bumps a Noted
  /// counter; events spilled from a bounded Pending buffer under heap
  /// pressure bump a Dropped counter. After a final flush,
  /// noted == folded + dropped, per kind.
  uint64_t NotedAllocs = 0;
  uint64_t NotedDeaths = 0;
  uint64_t DroppedAllocs = 0;
  uint64_t DroppedDeaths = 0;

  /// The logical task currently executing on this thread (0 until the
  /// application assigns one).
  uint64_t CurrentTask = 0;
  uint64_t NextSeq = 0;
  /// Events awaiting the next flush.
  std::vector<PendingProfileEvent> Pending;

  /// Owning thread, for reuse when the same thread re-registers.
  std::thread::id ThreadId;

  /// Liveness-guarded handle to the owning thread's storage-allocator
  /// cache (runtime/ThreadCache.h), captured at registration so epoch
  /// flushes can publish its plain per-thread tallies into the
  /// cham.alloc.* registry counters at a deterministic point. The cell
  /// reads null once the owning thread has exited (its thread_local cache
  /// was destroyed — and published itself on the way out).
  std::shared_ptr<std::atomic<alloc::ThreadCache *>> AllocCache;
};

} // namespace chameleon

#endif // CHAMELEON_PROFILER_PROFILERTHREADSTATE_H
