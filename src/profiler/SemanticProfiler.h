//===--- SemanticProfiler.h - The semantic collections profiler -*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The semantic collections profiler (paper §3.2). It owns:
///
/// * a string interner and a simulated call stack (`CallFrame` RAII), from
///   which partial allocation contexts of configurable depth are captured —
///   the stand-in for the paper's JVMTI / Throwable stack walking (§4.2);
/// * the registry of `ContextInfo` records keyed by (type, partial context);
/// * the `HeapProfilerHooks` implementation through which the collection-
///   aware GC feeds per-cycle heap statistics and sweep-time death events.
///
/// Context capture can be sampled (§4.2 "Sampling of Allocation Context")
/// and can emulate the expensive Throwable-based walk, which is what makes
/// the fully-automatic online mode measurably slower (§5.4).
///
/// Threading (DESIGN.md §9): single-threaded by default, with every hot
/// path untouched. With `ProfilerConfig::ConcurrentMutators` (or after
/// `enableConcurrentMutators()`), each mutator thread gets its own
/// `ProfilerThreadState` — call stack, fingerprint, context cache, sampling
/// counters, and an event buffer — so captures stay lock-free on cache
/// hits; the ContextInfo registry is striped across sharded locks for the
/// miss path; and allocation/death statistics are buffered per thread and
/// folded in deterministic (Task, Seq) order at epoch flushes and GC
/// safepoints, keeping reports byte-identical across thread counts.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_PROFILER_SEMANTICPROFILER_H
#define CHAMELEON_PROFILER_SEMANTICPROFILER_H

#include "obs/Metrics.h"
#include "profiler/ContextInfo.h"
#include "profiler/ProfilerThreadState.h"
#include "runtime/HeapHooks.h"
#include "support/Annotations.h"

#include <array>
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace chameleon {

/// Profiler configuration.
struct ProfilerConfig {
  /// Partial-context depth: the allocation site plus Depth-1 caller frames
  /// (paper §3.2.1: "a call stack of depth two or three").
  unsigned ContextDepth = 3;
  /// Capture the context of 1 in SamplingPeriod allocations (1 = all).
  /// The tick is per mutator thread: each thread samples its own
  /// allocation stream exactly, with no cross-thread counter races.
  unsigned SamplingPeriod = 1;
  /// Master switch; when off, contextForAllocation always returns null and
  /// collections run unprofiled.
  bool Enabled = true;
  /// Emulates the Throwable-based capture of §4.2: walks and hashes the
  /// *entire* stack's frame strings on every capture instead of copying a
  /// bounded number of interned ids. Used by the §5.4 overhead experiments.
  bool ExpensiveContextCapture = false;
  /// Serve repeated (site, type, call stack) captures from a direct-mapped
  /// cache keyed by an incrementally maintained stack fingerprint, skipping
  /// the per-allocation ContextKey build and registry probe. Purely a
  /// performance knob: hits are validated against the cached context's
  /// frames, so results are identical with the cache on or off. Ignored
  /// (always off) under ExpensiveContextCapture, whose point is the cost.
  bool ContextFastPath = true;
  /// Start in concurrent-mutator mode: allocation/death statistics buffer
  /// per thread from the first event (task 0 until setCurrentTask), rather
  /// than folding directly. Equivalent to calling
  /// enableConcurrentMutators() before any profiled work.
  bool ConcurrentMutators = false;
};

/// Snapshot of the profiler's load-shedding state and loss accounting,
/// summed over every thread (see SemanticProfiler::degradationStats).
/// Invariant after a final flush: Noted == Folded + Dropped, per kind.
struct ProfilerDegradationStats {
  bool ShedActive = false;
  uint32_t ShedMultiplier = 1;
  uint64_t HeapPressureEvents = 0;
  uint64_t ShedSampledOut = 0;
  uint64_t NotedAllocs = 0;
  uint64_t NotedDeaths = 0;
  uint64_t FoldedAllocs = 0;
  uint64_t FoldedDeaths = 0;
  uint64_t DroppedAllocs = 0;
  uint64_t DroppedDeaths = 0;
};

/// The semantic profiler. See the file comment for the threading model.
class SemanticProfiler : public HeapProfilerHooks {
public:
  explicit SemanticProfiler(ProfilerConfig Config = ProfilerConfig());
  ~SemanticProfiler() override;

  const ProfilerConfig &config() const { return Config; }

  /// -- Concurrent mutators (DESIGN.md §9) ----------------------------------

  /// Switches the profiler into concurrent-mutator mode (sticky; no-op if
  /// already on). Must happen before any second thread touches the
  /// profiler. From then on allocation/death statistics buffer in
  /// per-thread states until flushMutatorBuffers / flushEpoch.
  void enableConcurrentMutators() {
    MtActive.store(true, std::memory_order_release);
  }
  bool concurrentMutatorsActive() const {
    return MtActive.load(std::memory_order_relaxed);
  }

  /// Tags subsequent buffered events on the calling thread with the given
  /// logical task id — the major key of the deterministic replay order at
  /// flush. Reports are byte-identical across thread counts iff task ids
  /// are globally unique and assigned independently of the thread layout
  /// (e.g. ServerSim uses the request number).
  void setCurrentTask(uint64_t Task) { state().CurrentTask = Task; }

  /// Drains every thread's pending events and folds them into their
  /// contexts in ascending (Task, Seq) order. Requires a quiescent world:
  /// called from onStopTheWorld (GC safepoint) and from flushEpoch (the
  /// application's epoch barrier, whose synchronisation orders the
  /// mutators' buffered writes before the drain). No-op in
  /// single-threaded mode, where statistics fold directly.
  void flushMutatorBuffers();

  /// Epoch-boundary flush: drains the buffers, then renumbers the contexts
  /// into canonical (label-sorted) order so context ids — and every report
  /// keyed on them — are independent of which thread first allocated at
  /// each context. Call at application epoch barriers and before reading
  /// reports in concurrent-mutator mode.
  void flushEpoch();

  /// -- Frames and the simulated call stack --------------------------------

  /// Interns \p Name and returns its id. Idempotent. Thread-safe (shared
  /// lock on the hit path).
  FrameId internFrame(const std::string &Name);

  /// The spelling of an interned frame id. The reference is stable for the
  /// profiler's lifetime (deque-backed interner).
  const std::string &frameName(FrameId Id) const;

  /// Pushes / pops a frame on the calling thread's simulated stack; use
  /// `CallFrame` instead of calling directly. Each push extends the
  /// incremental stack fingerprint in O(1) (a hash stack mirroring the
  /// frame stack), so context capture never needs to walk the frames to
  /// identify the current stack.
  void pushFrame(FrameId Id) {
    ProfilerThreadState &S = state();
    S.Stack.push_back(Id);
    S.FingerprintStack.push_back(
        mixFingerprint(S.FingerprintStack.empty()
                           ? FingerprintSeed
                           : S.FingerprintStack.back(),
                       Id));
  }
  void popFrame() {
    ProfilerThreadState &S = state();
    assert(!S.Stack.empty() && "popping an empty call stack");
    S.Stack.pop_back();
    S.FingerprintStack.pop_back();
  }

  /// Current simulated stack depth (calling thread).
  size_t stackDepth() const { return state().Stack.size(); }

  /// Fingerprint of the calling thread's whole current stack (seed value
  /// when empty).
  uint64_t stackFingerprint() const {
    const ProfilerThreadState &S = state();
    return S.FingerprintStack.empty() ? FingerprintSeed
                                      : S.FingerprintStack.back();
  }

  /// -- Allocation-context capture ------------------------------------------

  /// Captures the partial allocation context for an allocation of type
  /// \p TypeNameId at site \p SiteId and returns the context record — or
  /// null when profiling is off or the allocation was sampled out. The
  /// caller records the allocation (`noteAllocation`) once it knows the
  /// effective initial capacity, which may still be adjusted by plan or
  /// online selection.
  ContextInfo *contextForAllocation(FrameId SiteId, FrameId TypeNameId);

  /// Records one allocation at \p Ctx with its effective initial capacity:
  /// folded immediately in single-threaded mode, buffered on the calling
  /// thread in concurrent-mutator mode. Null \p Ctx is ignored.
  void noteAllocation(ContextInfo *Ctx, uint32_t InitialCapacity);

  /// Records the death of an instance of \p Ctx: folds (single-threaded)
  /// or snapshots-and-buffers (concurrent) \p Info, and marks it Folded so
  /// the sweep-time hook won't fold it again. Null \p Ctx or an
  /// already-folded \p Info is ignored.
  void noteDeath(ContextInfo *Ctx, ObjectContextInfo &Info);

  /// -- Fleet restore (aggregator side) -------------------------------------

  /// Interns \p TypeName and \p FrameLabels (allocation site first, then
  /// callers outward — the frames() order) and returns the context for that
  /// (type, frames) key, creating it empty when absent. The aggregator-side
  /// inverse of contextForAllocation: rebuilds a context from its exported
  /// labels, independent of the calling thread's simulated stack. Never
  /// sampled out. Thread-safe like the capture miss path.
  ContextInfo *internContext(const std::string &TypeName,
                             const std::vector<std::string> &FrameLabels);

  /// Merges exported whole-heap Total/Max aggregates and a cycle count into
  /// this profiler (fleet snapshot restore). The rule evaluator reads
  /// heapLiveData() for its potential-relative-to-heap thresholds; a
  /// restored profiler must carry them for fleet-wide evaluation to see
  /// the same ratios the originating processes saw.
  void restoreHeapAggregates(const TotalMax &Live, const TotalMax &CollLive,
                             const TotalMax &CollUsed,
                             const TotalMax &CollCore, uint64_t Cycles);

  /// -- HeapProfilerHooks (fed by the collection-aware GC) ------------------

  // The GC calls these with the world stopped; they must never re-enter
  // the safepoint machinery or the managed heap.
  CHAM_NO_SAFEPOINT void onLiveCollection(const HeapObject &Obj,
                                          const CollectionSizes &Sizes,
                                          void *ContextTag) override;
  CHAM_NO_SAFEPOINT void onCollectionDeath(const HeapObject &Obj,
                                           void *ContextTag,
                                           void *ObjectInfoTag) override;
  CHAM_NO_SAFEPOINT void onCycleEnd(const GcCycleRecord &Record) override;
  CHAM_NO_SAFEPOINT void onStopTheWorld() override { flushMutatorBuffers(); }
  void onHeapPressure(uint64_t BytesInUse, uint64_t SoftLimitBytes) override;
  void onHeapPressureCleared() override;

  /// -- Queries (quiescent world in concurrent-mutator mode) ----------------

  /// All contexts: creation order in single-threaded mode, canonical
  /// (label-sorted) order after a flushEpoch in concurrent-mutator mode.
  const std::vector<ContextInfo *> &contexts() const { return Ordered; }

  /// Contexts sorted by decreasing space-saving potential (totLive-totUsed),
  /// the order of the paper's ranked report (Fig. 3).
  std::vector<ContextInfo *> rankedByPotential() const;

  /// Whole-heap Total/Max aggregates over all observed cycles, for
  /// potential-relative-to-heap thresholds and Fig. 2 style ratios.
  const TotalMax &heapLiveData() const { return HeapLive; }
  const TotalMax &heapCollectionLiveData() const { return HeapCollLive; }
  const TotalMax &heapCollectionUsedData() const { return HeapCollUsed; }
  const TotalMax &heapCollectionCoreData() const { return HeapCollCore; }

  /// Number of GC cycles observed through the hooks.
  uint64_t cyclesSeen() const { return CyclesSeen; }

  /// Profiling-cost counters (for the overhead experiments), summed over
  /// every thread's state.
  uint64_t contextAcquisitions() const;
  uint64_t allocationsSampledOut() const;

  /// Fast-path cache counters (captures served from / past the cache),
  /// summed over every thread's state.
  uint64_t contextCacheHits() const;
  uint64_t contextCacheMisses() const;

  /// -- Graceful degradation under heap pressure ----------------------------

  /// True while the profiler is shedding load (between onHeapPressure and
  /// onHeapPressureCleared).
  bool shedActive() const {
    return ShedActive.load(std::memory_order_relaxed);
  }

  /// The current sampling-period multiplier (1 = full rate). Doubles on
  /// every pressure event (capped at 64), restores additively — one step
  /// per GC cycle — once pressure clears.
  uint32_t shedMultiplier() const {
    return ShedMultiplier.load(std::memory_order_relaxed);
  }

  /// Sums the degradation/loss accounting over every thread's state. Call
  /// after a flush (quiescent world) for the Noted == Folded + Dropped
  /// identity to hold exactly.
  ProfilerDegradationStats degradationStats() const;

private:
  struct ContextKey {
    FrameId TypeNameId = 0;
    std::vector<FrameId> Frames;

    bool operator==(const ContextKey &O) const {
      return TypeNameId == O.TypeNameId && Frames == O.Frames;
    }
  };

  struct ContextKeyHash {
    size_t operator()(const ContextKey &Key) const {
      uint64_t H = 0x9E3779B97F4A7C15ULL ^ Key.TypeNameId;
      for (FrameId F : Key.Frames) {
        H ^= F + 0x9E3779B97F4A7C15ULL + (H << 6) + (H >> 2);
      }
      return static_cast<size_t>(H);
    }
  };

  /// SplitMix64-style finalizer chaining the previous fingerprint with the
  /// pushed frame; strong mixing keeps distinct stacks from colliding in
  /// the direct-mapped cache's tag.
  static uint64_t mixFingerprint(uint64_t Prev, FrameId Id) {
    uint64_t X = Prev + 0x9E3779B97F4A7C15ULL + Id;
    X ^= X >> 30;
    X *= 0xBF58476D1CE4E5B9ULL;
    X ^= X >> 27;
    X *= 0x94D049BB133111EBULL;
    X ^= X >> 31;
    return X;
  }

  static constexpr uint64_t FingerprintSeed = 0xC3A5C85C97CB3127ULL;

  /// Power of two so the slot index is a mask, sized to cover the distinct
  /// (site, stack) pairs of even the largest simulacra comfortably.
  static constexpr size_t ContextCacheSize = 1024;

  /// The ContextInfo registry is striped across this many independently
  /// locked shards, selected by context-key hash; threads allocating at
  /// different contexts contend only when their keys land on the same
  /// shard (and not at all on context-cache hits).
  static constexpr size_t NumRegistryShards = 16;
  struct RegistryShard {
    std::mutex Mu;
    std::unordered_map<ContextKey, std::unique_ptr<ContextInfo>,
                       ContextKeyHash>
        Map;
  };

  /// The calling thread's profiler state. Single-threaded mode: always the
  /// embedded main state, no thread-local lookup. Concurrent mode: a
  /// thread-local cache validated by profiler instance id, backed by
  /// findOrCreateState.
  ProfilerThreadState &state() const {
    if (!MtActive.load(std::memory_order_relaxed))
      return MainState;
    return tlsStateSlow();
  }
  ProfilerThreadState &tlsStateSlow() const;
  ProfilerThreadState &findOrCreateState();

  /// True when \p Info's recorded frames equal the partial context the
  /// thread's stack would capture — the exactness check behind a cache hit.
  bool cachedContextMatchesStack(const ProfilerThreadState &S,
                                 const ContextInfo &Info,
                                 FrameId SiteId) const;

  /// The context for \p Key, created on first sight: its label is built
  /// here, once, and it is numbered in creation order. The one creation
  /// path of contextForAllocation's registry miss and internContext.
  ContextInfo *findOrCreateContext(ContextKey Key);

  /// Renumbers Ordered into label-sorted order (see flushEpoch).
  void canonicalizeContextOrder();

  ProfilerConfig Config;

  /// Identifies this profiler instance in the thread-local state cache
  /// (monotonic global counter), so a profiler constructed at a destroyed
  /// profiler's address cannot inherit stale thread-local pointers.
  const uint64_t InstanceId;

  /// String interner: deque so interned names never move (frameName hands
  /// out stable references), shared-locked for concurrent interning.
  mutable std::shared_mutex FramesMu;
  std::deque<std::string> FrameNames;
  std::unordered_map<std::string, FrameId> FrameIds;

  std::atomic<bool> MtActive{false};
  const std::thread::id MainThreadId;
  /// The main thread's state (also the only state in single-threaded
  /// mode). Mutable so the const query/stack accessors can route through
  /// state().
  mutable ProfilerThreadState MainState;
  /// Additional mutator states, created on first use; guarded by StatesMu.
  mutable std::mutex StatesMu;
  std::vector<std::unique_ptr<ProfilerThreadState>> States;

  std::array<RegistryShard, NumRegistryShards> Registry;
  /// Guards Ordered against concurrent context creation.
  mutable std::mutex OrderedMu;
  std::vector<ContextInfo *> Ordered;

  /// Spills the oldest eighth of \p S's pending buffer (counted, per kind)
  /// when shed mode is active and the buffer exceeds 4096 events.
  void boundPending(ProfilerThreadState &S);

  std::vector<ContextInfo *> TouchedThisCycle;
  uint64_t CyclesSeen = 0;

  /// Shed-mode state. ShedActive / ShedMultiplier are written from the
  /// heap's allocation path (onHeapPressure*) and read by every mutator's
  /// sampling decision, hence atomic.
  std::atomic<bool> ShedActive{false};
  std::atomic<uint32_t> ShedMultiplier{1};
  /// Registry-backed (cham.profiler.pressure_events): thread-safe like the
  /// atomic it replaced, and exported by the telemetry layer for free.
  obs::Counter HeapPressureEvents{"cham.profiler.pressure_events"};
  /// Fold-side accounting (bumped while folding directly in single-threaded
  /// mode or replaying buffers at a quiescent-world flush — never
  /// concurrently).
  uint64_t FoldedAllocs = 0;
  uint64_t FoldedDeaths = 0;

  TotalMax HeapLive;
  TotalMax HeapCollLive;
  TotalMax HeapCollUsed;
  TotalMax HeapCollCore;
};

/// RAII frame on the simulated call stack. Prefer the pre-interned-id form
/// in hot code: the string form pays an interning lookup per call, exactly
/// the kind of cost the paper attributes to naive context capture.
class CallFrame {
public:
  CallFrame(SemanticProfiler &Profiler, FrameId Id) : Profiler(Profiler) {
    Profiler.pushFrame(Id);
  }

  CallFrame(SemanticProfiler &Profiler, const std::string &Name)
      : Profiler(Profiler) {
    Profiler.pushFrame(Profiler.internFrame(Name));
  }

  CallFrame(const CallFrame &) = delete;
  CallFrame &operator=(const CallFrame &) = delete;

  ~CallFrame() { Profiler.popFrame(); }

private:
  SemanticProfiler &Profiler;
};

} // namespace chameleon

#endif // CHAMELEON_PROFILER_SEMANTICPROFILER_H
