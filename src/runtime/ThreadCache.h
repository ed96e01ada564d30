//===--- ThreadCache.h - Per-thread allocation front end -------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The front end of the tcmalloc-style allocation substrate (DESIGN.md
/// §12): a per-thread cache of free blocks per size class, so the hot
/// allocate/deallocate path is a thread-local list push/pop with no atomic
/// operations. Misses refill a whole transfer batch from the class's
/// central list; overflows return a batch. Cache capacity adapts AIMD-style
/// (grow by one batch on a miss, halve on overflow) so a thread's cache
/// tracks its live churn per class instead of hoarding.
///
/// `HeapObject::operator new/delete` route every managed object's C++
/// storage through this allocator (see allocateBlock/deallocateBlock), so
/// collections, map entries, iterators and application payloads all recycle
/// through the pools — the `Handle::retire`/sweep path returns storage here
/// when the GC destroys an object. The mode knob keeps one escape hatch:
/// `Passthrough` forwards to ::operator new/delete (full ASan
/// redzone/use-after-free coverage; also selectable via
/// CHAM_ALLOC_MODE=passthrough).
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_RUNTIME_THREADCACHE_H
#define CHAMELEON_RUNTIME_THREADCACHE_H

#include "runtime/CentralFreeList.h"
#include "runtime/SizeClasses.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace chameleon::alloc {

/// How the process serves HeapObject storage.
enum class Mode : uint8_t {
  /// Thread caches over central lists over the arena (the default).
  Cached,
  /// Straight ::operator new/delete per object (sanitizer-friendly).
  Passthrough,
};

/// Process-wide mode. Reading is one relaxed load; switching affects only
/// future allocations (each block's header remembers how to free it).
Mode mode();
void setMode(Mode M);

/// One thread's cache. Obtain the calling thread's instance via
/// threadCache(); the type is public so the profiler can keep a handle to
/// the cache of each mutator thread (ProfilerThreadState::AllocCache) and
/// publish its counters at deterministic flush points.
class ThreadCache {
public:
  ThreadCache() = default;
  ThreadCache(const ThreadCache &) = delete;
  ThreadCache &operator=(const ThreadCache &) = delete;
  /// Thread exit: every cached block goes back to its central list.
  ~ThreadCache();

  /// Pops a block of \p ClassIdx, refilling from the central list on miss.
  CHAM_NO_SAFEPOINT BlockHeader *allocate(uint32_t ClassIdx);

  /// Pushes \p Block back; releases a batch centralward on overflow.
  CHAM_NO_SAFEPOINT void deallocate(BlockHeader *Block, uint32_t ClassIdx);

  /// Returns every cached block to the central lists (the cache stays
  /// usable). Tests use it to make cache-state deterministic across runs.
  void flush();

  /// Adds the hit/miss/transfer tallies accumulated since the last publish
  /// to the global cham.alloc.* counters. Called from the slow paths and
  /// from profiler epoch flushes; the hot path only bumps plain locals.
  void publishStats();

  /// Cross-thread liveness token: holds this cache's address until the
  /// cache is destroyed (thread exit), then null. Holders that publish
  /// from another thread (the profiler's epoch flush) load through it, so
  /// a dead thread's cache — a destroyed thread_local — is never touched.
  using LiveCell = std::atomic<ThreadCache *>;
  std::shared_ptr<LiveCell> liveCell();

private:
  struct ClassList {
    BlockHeader *Head = nullptr;
    uint32_t Count = 0;
    /// AIMD capacity; 0 means "not used yet" (initialised to one transfer
    /// batch on first touch).
    uint32_t Capacity = 0;
  };

  ClassList Lists[kNumClasses];

  // Plain per-thread tallies; publishStats() moves deltas to the registry.
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t TransferBatches = 0;
  uint64_t PublishedHits = 0;
  uint64_t PublishedMisses = 0;
  uint64_t PublishedTransfers = 0;

  /// Created on first liveCell() call; nulled by the destructor.
  std::shared_ptr<LiveCell> Cell;
};

/// The calling thread's cache (function-local thread_local: constructed on
/// first use, flushed at thread exit).
ThreadCache &threadCache();

/// Allocates storage for a HeapObject of \p UserSize bytes according to
/// the current mode. The returned pointer is the payload (header hidden),
/// aligned for any HeapObject subclass.
CHAM_NO_SAFEPOINT void *allocateBlock(size_t UserSize);

/// Returns a block obtained from allocateBlock. Routes by the block's own
/// header, so blocks survive mode switches; a double return is counted
/// (cham.alloc.double_free) and the block leaked rather than corrupting a
/// free list.
CHAM_NO_SAFEPOINT void deallocateBlock(void *Payload) noexcept;

} // namespace chameleon::alloc

#endif // CHAMELEON_RUNTIME_THREADCACHE_H
