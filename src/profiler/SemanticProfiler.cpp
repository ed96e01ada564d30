//===--- SemanticProfiler.cpp - The semantic collections profiler --------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profiler/SemanticProfiler.h"

#include "obs/Trace.h"
#include "runtime/ThreadCache.h"

#include <algorithm>

using namespace chameleon;

namespace {

// Process-wide profiler accounting (cham.profiler.*, DESIGN.md §11).
CHAM_METRIC_COUNTER(ProfSpilledEvents, "cham.profiler.spilled_events");
CHAM_METRIC_COUNTER(ProfEpochFlushes, "cham.profiler.epoch_flushes");
CHAM_METRIC_GAUGE(ProfShedMultiplier, "cham.profiler.shed_multiplier");

/// Shed mode (heap pressure): cap on the multiplicative sampling-period
/// back-off (effective period = SamplingPeriod * multiplier).
constexpr uint32_t MaxShedMultiplier = 64;
/// Shed mode: while pressure lasts, each thread's pending-event buffer is
/// bounded to this many events, spilling the oldest eighth (counted, per
/// kind) when it fills. Buffers are unbounded when the heap is not under
/// pressure.
constexpr size_t ShedBufferLimit = 4096;

/// Monotonic profiler-instance ids for the thread-local state cache (see
/// SemanticProfiler::tlsStateSlow).
std::atomic<uint64_t> NextProfilerInstanceId{1};

/// Which profiler (by instance id) the calling thread last resolved a
/// state for, and that state. One cached binding per thread; a different
/// profiler simply re-resolves.
struct TlsProfilerStateCache {
  uint64_t Owner = 0;
  ProfilerThreadState *S = nullptr;
};
thread_local TlsProfilerStateCache TheTlsState;

} // namespace

SemanticProfiler::SemanticProfiler(ProfilerConfig Config)
    : Config(Config),
      InstanceId(
          NextProfilerInstanceId.fetch_add(1, std::memory_order_relaxed)),
      MainThreadId(std::this_thread::get_id()) {
  assert(Config.ContextDepth >= 1 && "context depth must include the site");
  assert(Config.SamplingPeriod >= 1 && "sampling period must be positive");
  static_assert((ContextCacheSize & (ContextCacheSize - 1)) == 0,
                "cache size must be a power of two");
  MainState.ThreadId = MainThreadId;
  MainState.AllocCache = alloc::threadCache().liveCell();
  if (Config.ContextFastPath && !Config.ExpensiveContextCapture)
    MainState.ContextCache.resize(ContextCacheSize);
  if (Config.ConcurrentMutators)
    MtActive.store(true, std::memory_order_relaxed);
}

SemanticProfiler::~SemanticProfiler() = default;

ProfilerThreadState &SemanticProfiler::tlsStateSlow() const {
  if (TheTlsState.Owner == InstanceId)
    return *TheTlsState.S;
  ProfilerThreadState &S =
      const_cast<SemanticProfiler *>(this)->findOrCreateState();
  TheTlsState = {InstanceId, &S};
  return S;
}

ProfilerThreadState &SemanticProfiler::findOrCreateState() {
  std::lock_guard<std::mutex> L(StatesMu);
  std::thread::id Tid = std::this_thread::get_id();
  if (Tid == MainThreadId)
    return MainState;
  // Reuse a state this thread id already owns (the same thread touching
  // the profiler again after its cache was evicted; a recycled thread id
  // inherits its predecessor's — flushed — state, which is benign).
  for (const std::unique_ptr<ProfilerThreadState> &S : States)
    if (S->ThreadId == Tid)
      return *S;
  auto S = std::make_unique<ProfilerThreadState>();
  S->ThreadId = Tid;
  // findOrCreateState runs on the owning thread, so this captures that
  // thread's storage-allocator cache for the epoch-flush stat publish.
  S->AllocCache = alloc::threadCache().liveCell();
  if (Config.ContextFastPath && !Config.ExpensiveContextCapture)
    S->ContextCache.resize(ContextCacheSize);
  States.push_back(std::move(S));
  return *States.back();
}

FrameId SemanticProfiler::internFrame(const std::string &Name) {
  {
    std::shared_lock<std::shared_mutex> L(FramesMu);
    auto It = FrameIds.find(Name);
    if (It != FrameIds.end())
      return It->second;
  }
  std::unique_lock<std::shared_mutex> L(FramesMu);
  auto It = FrameIds.find(Name); // lost a race? take the winner's id
  if (It != FrameIds.end())
    return It->second;
  FrameId Id = static_cast<FrameId>(FrameNames.size());
  FrameNames.push_back(Name);
  FrameIds.emplace(Name, Id);
  return Id;
}

const std::string &SemanticProfiler::frameName(FrameId Id) const {
  std::shared_lock<std::shared_mutex> L(FramesMu);
  assert(Id < FrameNames.size() && "unknown FrameId");
  // Deque elements never move, so the reference outlives the lock.
  return FrameNames[Id];
}

bool SemanticProfiler::cachedContextMatchesStack(const ProfilerThreadState &S,
                                                 const ContextInfo &Info,
                                                 FrameId SiteId) const {
  const std::vector<FrameId> &Frames = Info.frames();
  if (Frames.empty() || Frames[0] != SiteId)
    return false;
  size_t WantCallers =
      std::min<size_t>(Config.ContextDepth - 1, S.Stack.size());
  if (Frames.size() != WantCallers + 1)
    return false;
  for (size_t I = 0; I < WantCallers; ++I)
    if (Frames[I + 1] != S.Stack[S.Stack.size() - 1 - I])
      return false;
  return true;
}

ContextInfo *SemanticProfiler::contextForAllocation(FrameId SiteId,
                                                    FrameId TypeNameId) {
  if (!Config.Enabled)
    return nullptr;
  ProfilerThreadState &S = state();
  ++S.AllocationTick;
  // Shed mode stretches the effective sampling period multiplicatively.
  // Skips that the base period alone would have captured are attributed to
  // shedding (ShedSampledOut); the rest are ordinary sampling.
  uint64_t Period = static_cast<uint64_t>(Config.SamplingPeriod)
                    * ShedMultiplier.load(std::memory_order_relaxed);
  if (Period > 1 && (S.AllocationTick % Period) != 0) {
    if (Config.SamplingPeriod <= 1
        || (S.AllocationTick % Config.SamplingPeriod) == 0)
      ++S.ShedSampledOut;
    else
      ++S.SampledOut;
    return nullptr;
  }
  ++S.Acquisitions;

  // Fast path: the fingerprint identifies the entire current stack, so a
  // direct-mapped probe on (site, type, fingerprint) finds the context of
  // a repeated allocation site without building a ContextKey or touching
  // the registry. Hits are re-validated against the cached context's
  // frames (a couple of integer compares at the configured depth), making
  // the cache transparent even under a fingerprint collision. The cache is
  // per thread, so hits take no lock.
  ContextCacheEntry *Cached = nullptr;
  uint64_t Fingerprint = 0;
  if (!S.ContextCache.empty()) {
    Fingerprint = S.FingerprintStack.empty() ? FingerprintSeed
                                             : S.FingerprintStack.back();
    uint64_t Slot = mixFingerprint(Fingerprint ^ TypeNameId, SiteId)
                    & (ContextCacheSize - 1);
    Cached = &S.ContextCache[Slot];
    if (Cached->Info && Cached->Fingerprint == Fingerprint
        && Cached->SiteId == SiteId && Cached->TypeNameId == TypeNameId
        && cachedContextMatchesStack(S, *Cached->Info, SiteId)) {
      ++S.CacheHits;
      return Cached->Info;
    }
    ++S.CacheMisses;
  }

  ContextKey Key;
  Key.TypeNameId = TypeNameId;
  Key.Frames.reserve(Config.ContextDepth);
  Key.Frames.push_back(SiteId);
  unsigned Want = Config.ContextDepth - 1;
  for (size_t I = S.Stack.size(); I != 0 && Want != 0; --I, --Want)
    Key.Frames.push_back(S.Stack[I - 1]);

  if (Config.ExpensiveContextCapture) {
    // Emulates the Throwable-based capture of §4.2: materialise the full
    // stack's method-signature string (allocation + copies, exactly what
    // "manipulation of method signatures as strings" costs) and hash it.
    // The result is discarded; only the cost matters.
    std::shared_lock<std::shared_mutex> FL(FramesMu);
    std::string Signature;
    for (FrameId F : S.Stack) {
      Signature += FrameNames[F];
      Signature += '\n';
    }
    uint64_t H = 0;
    for (char C : Signature)
      H = H * 131 + static_cast<unsigned char>(C);
    volatile uint64_t Sink = H;
    (void)Sink;
  }

  ContextInfo *Info = findOrCreateContext(std::move(Key));
  if (Cached)
    *Cached = {Fingerprint, SiteId, TypeNameId, Info};
  return Info;
}

ContextInfo *SemanticProfiler::findOrCreateContext(ContextKey Key) {
  // One shard lock, selected by key hash, so threads allocating at
  // different contexts rarely contend.
  uint64_t Hash = ContextKeyHash{}(Key);
  RegistryShard &Shard = Registry[(Hash >> 16) & (NumRegistryShards - 1)];
  std::lock_guard<std::mutex> SL(Shard.Mu);
  auto It = Shard.Map.find(Key);
  if (It != Shard.Map.end())
    return It->second.get();
  std::string TypeName = frameName(Key.TypeNameId);
  std::string Label = TypeName + ':';
  for (size_t I = 0; I < Key.Frames.size(); ++I) {
    if (I != 0)
      Label += ';';
    Label += frameName(Key.Frames[I]);
  }
  std::lock_guard<std::mutex> OL(OrderedMu);
  auto Owned = std::make_unique<ContextInfo>(
      static_cast<uint32_t>(Ordered.size()), Key.Frames, std::move(TypeName),
      std::move(Label));
  ContextInfo *Info = Owned.get();
  Shard.Map.emplace(std::move(Key), std::move(Owned));
  Ordered.push_back(Info);
  return Info;
}

ContextInfo *
SemanticProfiler::internContext(const std::string &TypeName,
                                const std::vector<std::string> &FrameLabels) {
  ContextKey Key;
  Key.TypeNameId = internFrame(TypeName);
  Key.Frames.reserve(FrameLabels.size());
  for (const std::string &Label : FrameLabels)
    Key.Frames.push_back(internFrame(Label));
  return findOrCreateContext(std::move(Key));
}

void SemanticProfiler::restoreHeapAggregates(const TotalMax &Live,
                                             const TotalMax &CollLive,
                                             const TotalMax &CollUsed,
                                             const TotalMax &CollCore,
                                             uint64_t Cycles) {
  HeapLive.merge(Live);
  HeapCollLive.merge(CollLive);
  HeapCollUsed.merge(CollUsed);
  HeapCollCore.merge(CollCore);
  CyclesSeen += Cycles;
}

void SemanticProfiler::noteAllocation(ContextInfo *Ctx,
                                      uint32_t InitialCapacity) {
  if (!Ctx)
    return;
  if (!MtActive.load(std::memory_order_relaxed)) {
    ++state().NotedAllocs;
    ++FoldedAllocs;
    Ctx->recordAllocation(InitialCapacity);
    return;
  }
  ProfilerThreadState &S = state();
  ++S.NotedAllocs;
  PendingProfileEvent E;
  E.Kind = PendingProfileEvent::Alloc;
  E.Ctx = Ctx;
  E.Task = S.CurrentTask;
  E.Seq = S.NextSeq++;
  E.InitialCapacity = InitialCapacity;
  S.Pending.push_back(std::move(E));
  boundPending(S);
}

void SemanticProfiler::noteDeath(ContextInfo *Ctx, ObjectContextInfo &Info) {
  if (!Ctx || Info.Folded)
    return;
  if (!MtActive.load(std::memory_order_relaxed)) {
    ++state().NotedDeaths;
    ++FoldedDeaths;
    Ctx->recordDeath(Info);
    return;
  }
  // Mark folded now so the sweep-time hook skips the wrapper; the snapshot
  // carries the statistics to the flush.
  Info.Folded = true;
  ProfilerThreadState &S = state();
  ++S.NotedDeaths;
  PendingProfileEvent E;
  E.Kind = PendingProfileEvent::Death;
  E.Ctx = Ctx;
  E.Task = S.CurrentTask;
  E.Seq = S.NextSeq++;
  E.Snapshot = Info;
  S.Pending.push_back(std::move(E));
  boundPending(S);
}

void SemanticProfiler::boundPending(ProfilerThreadState &S) {
  if (!ShedActive.load(std::memory_order_relaxed)
      || S.Pending.size() <= ShedBufferLimit)
    return;
  // Spill the oldest eighth: the newest events are the ones the next flush
  // most needs, and spilling in blocks amortises the erase.
  constexpr size_t Spill = ShedBufferLimit / 8;
  for (size_t I = 0; I < Spill; ++I) {
    if (S.Pending[I].Kind == PendingProfileEvent::Alloc)
      ++S.DroppedAllocs;
    else
      ++S.DroppedDeaths;
  }
  S.Pending.erase(S.Pending.begin(),
                  S.Pending.begin() + static_cast<ptrdiff_t>(Spill));
  ProfSpilledEvents.add(Spill);
  CHAM_TRACE_INSTANT_ARG("profiler", "shed_spill", "events",
                         static_cast<int64_t>(Spill));
}

void SemanticProfiler::flushMutatorBuffers() {
  if (!MtActive.load(std::memory_order_acquire))
    return;
  // Gather every thread's buffer. Callers guarantee a quiescent world, so
  // no state is being appended to; StatesMu only fences against the
  // (already impossible) creation race and orders the gathered memory.
  std::vector<PendingProfileEvent> All;
  {
    std::lock_guard<std::mutex> L(StatesMu);
    auto Gather = [&All](ProfilerThreadState &S) {
      All.insert(All.end(), std::make_move_iterator(S.Pending.begin()),
                 std::make_move_iterator(S.Pending.end()));
      S.Pending.clear();
    };
    Gather(MainState);
    for (const std::unique_ptr<ProfilerThreadState> &S : States)
      Gather(*S);
  }
  // Deterministic replay: ascending (Task, Seq). With globally-unique task
  // ids the order — and so every order-sensitive Welford fold — is
  // independent of how tasks were laid out on threads.
  std::stable_sort(
      All.begin(), All.end(),
      [](const PendingProfileEvent &A, const PendingProfileEvent &B) {
        return A.Task != B.Task ? A.Task < B.Task : A.Seq < B.Seq;
      });
  for (PendingProfileEvent &E : All) {
    if (E.Kind == PendingProfileEvent::Alloc) {
      ++FoldedAllocs;
      E.Ctx->recordAllocation(E.InitialCapacity);
    } else {
      ++FoldedDeaths;
      E.Ctx->foldSnapshot(E.Snapshot);
    }
  }
}

void SemanticProfiler::flushEpoch() {
  CHAM_TRACE_SPAN("profiler", "flush_epoch");
  ProfEpochFlushes.inc();
  flushMutatorBuffers();
  // Publish every thread's storage-allocator tallies at the same quiescent
  // point the event buffers drain, so cham.alloc.* snapshots taken after a
  // flush are complete and deterministic.
  {
    std::lock_guard<std::mutex> L(StatesMu);
    auto Publish = [](const ProfilerThreadState &S) {
      if (!S.AllocCache)
        return;
      // Null once the owning thread exited — its cache already published
      // itself from the thread_local destructor.
      if (alloc::ThreadCache *Cache =
              S.AllocCache->load(std::memory_order_acquire))
        Cache->publishStats();
    };
    Publish(MainState);
    for (const std::unique_ptr<ProfilerThreadState> &S : States)
      Publish(*S);
  }
  if (MtActive.load(std::memory_order_relaxed))
    canonicalizeContextOrder();
}

void SemanticProfiler::canonicalizeContextOrder() {
  std::lock_guard<std::mutex> L(OrderedMu);
  std::stable_sort(Ordered.begin(), Ordered.end(),
                   [](const ContextInfo *A, const ContextInfo *B) {
                     return A->label() < B->label();
                   });
  for (size_t I = 0; I < Ordered.size(); ++I)
    Ordered[I]->setId(static_cast<uint32_t>(I));
}

void SemanticProfiler::onLiveCollection(const HeapObject &Obj,
                                        const CollectionSizes &Sizes,
                                        void *ContextTag) {
  (void)Obj;
  if (!ContextTag)
    return;
  auto *Info = static_cast<ContextInfo *>(ContextTag);
  // The stamp is the number of the cycle currently being marked; contexts
  // track it so that per-cycle scratch resets exactly once per cycle and
  // finishCycle runs exactly once per touched context.
  uint64_t Stamp = CyclesSeen + 1;
  if (Info->accumulateCycle(Stamp, Sizes))
    TouchedThisCycle.push_back(Info);
}

void SemanticProfiler::onCollectionDeath(const HeapObject &Obj,
                                         void *ContextTag,
                                         void *ObjectInfoTag) {
  (void)Obj;
  if (!ContextTag || !ObjectInfoTag)
    return;
  auto *Info = static_cast<ContextInfo *>(ContextTag);
  auto *ObjInfo = static_cast<ObjectContextInfo *>(ObjectInfoTag);
  Info->recordDeath(*ObjInfo);
}

void SemanticProfiler::onHeapPressure(uint64_t BytesInUse,
                                      uint64_t SoftLimitBytes) {
  (void)BytesInUse;
  (void)SoftLimitBytes;
  HeapPressureEvents.inc();
  ShedActive.store(true, std::memory_order_relaxed);
  // Multiplicative back-off, capped: each failed emergency collection
  // halves the effective sampling rate again.
  uint32_t Mult = ShedMultiplier.load(std::memory_order_relaxed);
  uint32_t Next = std::min<uint64_t>(static_cast<uint64_t>(Mult) * 2,
                                     MaxShedMultiplier);
  ShedMultiplier.store(Next, std::memory_order_relaxed);
  ProfShedMultiplier.set(Next);
  CHAM_TRACE_INSTANT_ARG("profiler", "shed_on", "multiplier",
                         static_cast<int64_t>(Next));
}

void SemanticProfiler::onHeapPressureCleared() {
  ShedActive.store(false, std::memory_order_relaxed);
  CHAM_TRACE_INSTANT("profiler", "shed_off");
}

ProfilerDegradationStats SemanticProfiler::degradationStats() const {
  ProfilerDegradationStats D;
  D.ShedActive = ShedActive.load(std::memory_order_relaxed);
  D.ShedMultiplier = ShedMultiplier.load(std::memory_order_relaxed);
  D.HeapPressureEvents = HeapPressureEvents.value();
  D.FoldedAllocs = FoldedAllocs;
  D.FoldedDeaths = FoldedDeaths;
  std::lock_guard<std::mutex> L(StatesMu);
  auto Sum = [&D](const ProfilerThreadState &S) {
    D.ShedSampledOut += S.ShedSampledOut;
    D.NotedAllocs += S.NotedAllocs;
    D.NotedDeaths += S.NotedDeaths;
    D.DroppedAllocs += S.DroppedAllocs;
    D.DroppedDeaths += S.DroppedDeaths;
  };
  Sum(MainState);
  for (const std::unique_ptr<ProfilerThreadState> &S : States)
    Sum(*S);
  return D;
}

void SemanticProfiler::onCycleEnd(const GcCycleRecord &Record) {
  for (ContextInfo *Info : TouchedThisCycle)
    Info->finishCycle();
  TouchedThisCycle.clear();
  ++CyclesSeen;

  // Additive restore: once pressure has cleared, step the sampling rate
  // back toward full — one step per GC cycle (AIMD, like congestion
  // control: fast back-off, cautious recovery).
  if (!ShedActive.load(std::memory_order_relaxed)) {
    uint32_t Mult = ShedMultiplier.load(std::memory_order_relaxed);
    if (Mult > 1) {
      ShedMultiplier.store(Mult - 1, std::memory_order_relaxed);
      ProfShedMultiplier.set(Mult - 1);
    }
  }

  HeapLive.observe(Record.LiveBytes);
  HeapCollLive.observe(Record.CollectionLiveBytes);
  HeapCollUsed.observe(Record.CollectionUsedBytes);
  HeapCollCore.observe(Record.CollectionCoreBytes);
}

uint64_t SemanticProfiler::contextAcquisitions() const {
  std::lock_guard<std::mutex> L(StatesMu);
  uint64_t Sum = MainState.Acquisitions;
  for (const std::unique_ptr<ProfilerThreadState> &S : States)
    Sum += S->Acquisitions;
  return Sum;
}

uint64_t SemanticProfiler::allocationsSampledOut() const {
  std::lock_guard<std::mutex> L(StatesMu);
  uint64_t Sum = MainState.SampledOut;
  for (const std::unique_ptr<ProfilerThreadState> &S : States)
    Sum += S->SampledOut;
  return Sum;
}

uint64_t SemanticProfiler::contextCacheHits() const {
  std::lock_guard<std::mutex> L(StatesMu);
  uint64_t Sum = MainState.CacheHits;
  for (const std::unique_ptr<ProfilerThreadState> &S : States)
    Sum += S->CacheHits;
  return Sum;
}

uint64_t SemanticProfiler::contextCacheMisses() const {
  std::lock_guard<std::mutex> L(StatesMu);
  uint64_t Sum = MainState.CacheMisses;
  for (const std::unique_ptr<ProfilerThreadState> &S : States)
    Sum += S->CacheMisses;
  return Sum;
}

std::vector<ContextInfo *> SemanticProfiler::rankedByPotential() const {
  std::vector<ContextInfo *> Result;
  {
    std::lock_guard<std::mutex> L(OrderedMu);
    Result = Ordered;
  }
  std::stable_sort(Result.begin(), Result.end(),
                   [](const ContextInfo *A, const ContextInfo *B) {
                     return A->savingPotential() > B->savingPotential();
                   });
  return Result;
}

