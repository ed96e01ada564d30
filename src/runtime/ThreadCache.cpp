//===--- ThreadCache.cpp - Per-thread allocation front end ----------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ThreadCache.h"

#include "obs/Metrics.h"
#include "runtime/HeapObject.h"
#include "runtime/PageArena.h"
#include "support/Assert.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <new>

using namespace chameleon;
using namespace chameleon::alloc;

namespace {

// Front-end telemetry (cham.alloc.*, DESIGN.md §12). The hot path bumps
// plain thread-local tallies; publishStats() folds deltas in here from the
// batched slow paths and from profiler epoch flushes.
CHAM_METRIC_COUNTER(AllocCacheHits, "cham.alloc.cache_hits");
CHAM_METRIC_COUNTER(AllocCacheMisses, "cham.alloc.cache_misses");
CHAM_METRIC_COUNTER(AllocTransferBatches, "cham.alloc.transfer_batches");
CHAM_METRIC_COUNTER(AllocDirectAllocs, "cham.alloc.direct_allocs");
CHAM_METRIC_COUNTER(AllocDoubleFree, "cham.alloc.double_free");

/// Largest transferBatch() over all classes (bounds the stack buffers).
constexpr uint32_t kMaxBatch = 32;

/// Cache capacity ceiling, in transfer batches (AIMD additive increase
/// saturates here).
constexpr uint32_t kMaxCapacityBatches = 8;

BlockHeader *&nextOf(BlockHeader *B) {
  return *static_cast<BlockHeader **>(blockPayload(B));
}

Mode initialMode() {
  const char *Env = std::getenv("CHAM_ALLOC_MODE");
  if (Env && std::strcmp(Env, "passthrough") == 0)
    return Mode::Passthrough;
  return Mode::Cached;
}

std::atomic<uint8_t> &modeCell() {
  static std::atomic<uint8_t> Cell{static_cast<uint8_t>(initialMode())};
  return Cell;
}

/// Thread-cache lifetime tracking: deallocations that arrive after the
/// thread's cache was destroyed (static/thread teardown) go straight to
/// the central lists instead of resurrecting the dead thread_local.
thread_local enum class TlsPhase : uint8_t {
  Unborn,
  Alive,
  Dead
} TheTlsPhase = TlsPhase::Unborn;

struct TlsCacheSlot {
  TlsCacheSlot() { TheTlsPhase = TlsPhase::Alive; }
  ~TlsCacheSlot() { TheTlsPhase = TlsPhase::Dead; }
  ThreadCache Cache;
};

ThreadCache *threadCacheIfUsable() {
  if (TheTlsPhase == TlsPhase::Dead)
    return nullptr;
  return &threadCache();
}

} // namespace

Mode chameleon::alloc::mode() {
  return static_cast<Mode>(modeCell().load(std::memory_order_relaxed));
}

void chameleon::alloc::setMode(Mode M) {
  modeCell().store(static_cast<uint8_t>(M), std::memory_order_relaxed);
}

ThreadCache &chameleon::alloc::threadCache() {
  static thread_local TlsCacheSlot Slot;
  return Slot.Cache;
}

ThreadCache::~ThreadCache() {
  flush();
  publishStats();
  if (Cell)
    Cell->store(nullptr, std::memory_order_release);
}

std::shared_ptr<ThreadCache::LiveCell> ThreadCache::liveCell() {
  if (!Cell)
    Cell = std::make_shared<LiveCell>(this);
  return Cell;
}

BlockHeader *ThreadCache::allocate(uint32_t ClassIdx) {
  ClassList &L = Lists[ClassIdx];
  if (BlockHeader *B = L.Head) {
    L.Head = nextOf(B);
    --L.Count;
    ++Hits;
    return B;
  }
  ++Misses;
  const uint32_t Batch = transferBatch(ClassIdx);
  // AIMD growth: a miss means the working set outran the cache.
  L.Capacity = L.Capacity == 0
                   ? Batch
                   : std::min(L.Capacity + Batch,
                              Batch * kMaxCapacityBatches);
  BlockHeader *Buf[kMaxBatch];
  CentralState &Central = centralState();
  uint32_t Got =
      Central.Lists[ClassIdx].popBatch(Buf, Batch, ClassIdx, *Central.Arena);
  ++TransferBatches;
  assert(Got >= 1 && "central list must always deliver");
  for (uint32_t I = 1; I < Got; ++I) {
    nextOf(Buf[I]) = L.Head;
    L.Head = Buf[I];
    ++L.Count;
  }
  publishStats();
  return Buf[0];
}

void ThreadCache::deallocate(BlockHeader *Block, uint32_t ClassIdx) {
  ClassList &L = Lists[ClassIdx];
  const uint32_t Batch = transferBatch(ClassIdx);
  if (L.Capacity == 0)
    L.Capacity = Batch;
  nextOf(Block) = L.Head;
  L.Head = Block;
  ++L.Count;
  if (L.Count <= L.Capacity)
    return;
  // Overflow: release one batch and halve the capacity (the multiplicative
  // decrease; a burst of frees should not pin blocks in this thread).
  BlockHeader *Buf[kMaxBatch];
  uint32_t N = 0;
  while (N < Batch && L.Head) {
    Buf[N++] = L.Head;
    L.Head = nextOf(L.Head);
    --L.Count;
  }
  CentralState &Central = centralState();
  Central.Lists[ClassIdx].pushBatch(Buf, N, *Central.Arena);
  ++TransferBatches;
  L.Capacity = std::max(Batch, L.Capacity / 2);
  publishStats();
}

void ThreadCache::flush() {
  CentralState &Central = centralState();
  for (uint32_t C = 0; C < kNumClasses; ++C) {
    ClassList &L = Lists[C];
    while (L.Head) {
      BlockHeader *Buf[kMaxBatch];
      uint32_t N = 0;
      while (N < kMaxBatch && L.Head) {
        Buf[N++] = L.Head;
        L.Head = nextOf(L.Head);
        --L.Count;
      }
      Central.Lists[C].pushBatch(Buf, N, *Central.Arena);
      ++TransferBatches;
    }
    assert(L.Count == 0);
  }
}

void ThreadCache::publishStats() {
  if (Hits != PublishedHits) {
    AllocCacheHits.add(Hits - PublishedHits);
    PublishedHits = Hits;
  }
  if (Misses != PublishedMisses) {
    AllocCacheMisses.add(Misses - PublishedMisses);
    PublishedMisses = Misses;
  }
  if (TransferBatches != PublishedTransfers) {
    AllocTransferBatches.add(TransferBatches - PublishedTransfers);
    PublishedTransfers = TransferBatches;
  }
}

void *chameleon::alloc::allocateBlock(size_t UserSize) {
  const size_t Total = UserSize + sizeof(BlockHeader);
  if (mode() == Mode::Passthrough || Total > kMaxPooledSize) {
    auto *B = static_cast<BlockHeader *>(::operator new(Total));
    B->State = kDirectTag;
    B->ClassOrSize = Total;
    AllocDirectAllocs.inc();
    return blockPayload(B);
  }
  const uint32_t Cls = classIndexFor(Total);
  BlockHeader *B = nullptr;
  if (ThreadCache *Cache = threadCacheIfUsable())
    B = Cache->allocate(Cls);
  if (!B) {
    CentralState &Central = centralState();
    Central.Lists[Cls].popBatch(&B, 1, Cls, *Central.Arena);
  }
  assert(B->State == kFreeTag && "allocating a non-free block");
  unpoisonPayload(B, classSize(Cls));
  B->State = kLiveTag;
  B->ClassOrSize = Cls;
  return blockPayload(B);
}

void chameleon::alloc::deallocateBlock(void *Payload) noexcept {
  if (!Payload)
    return;
  BlockHeader *B = blockOfPayload(Payload);
  switch (B->State) {
  case kDirectTag:
    ::operator delete(B);
    return;
  case kLiveTag: {
    const uint32_t Cls = static_cast<uint32_t>(B->ClassOrSize);
    assert(Cls < kNumClasses && "live block with a bad class index");
    B->State = kFreeTag;
    poisonFreePayload(B, classSize(Cls));
    if (mode() == Mode::Cached)
      if (ThreadCache *Cache = threadCacheIfUsable()) {
        Cache->deallocate(B, Cls);
        return;
      }
    CentralState &Central = centralState();
    Central.Lists[Cls].pushBatch(&B, 1, *Central.Arena);
    return;
  }
  case kFreeTag:
    // Double return. Count it and leak the block: pushing it again would
    // corrupt a free list, which is strictly worse. The ASan job catches
    // the caller via the passthrough mode, where this becomes a real
    // double-delete.
    AllocDoubleFree.inc();
    CHAM_DCHECK(false, "double return of a pooled block");
    return;
  default:
    assert(false && "pointer not obtained from allocateBlock");
  }
}

//===----------------------------------------------------------------------===//
// HeapObject storage operators
//===----------------------------------------------------------------------===//

void *HeapObject::operator new(size_t Size) {
  return alloc::allocateBlock(Size);
}

void HeapObject::operator delete(void *P) noexcept {
  alloc::deallocateBlock(P);
}

void HeapObject::operator delete(void *P, size_t) noexcept {
  alloc::deallocateBlock(P);
}
