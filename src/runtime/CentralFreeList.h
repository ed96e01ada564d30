//===--- CentralFreeList.h - Per-class central transfer lists --*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The middle tier of the allocation substrate (DESIGN.md §12): one
/// spinlocked list per size class of the arena's spans (PageArena.h) that
/// serve that class and have a free block, moving blocks in transfer
/// batches between the per-thread caches (ThreadCache.h) and those spans.
/// A freed block goes back onto its own span's free list, threaded through
/// its first payload word (the 16-byte, 8-aligned header stays intact,
/// tagged "free" for double-return detection).
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_RUNTIME_CENTRALFREELIST_H
#define CHAMELEON_RUNTIME_CENTRALFREELIST_H

#include "runtime/PageArena.h"
#include "runtime/SizeClasses.h"
#include "support/Annotations.h"
#include "support/SpinLock.h"

#include <cstdint>
#include <string>

namespace chameleon::alloc {

/// Every pooled or direct block starts with one of these; the user storage
/// (a HeapObject) begins immediately after. 16 bytes so the layout
/// guarantee in SizeClasses.h holds, but only 8-aligned: the 8-byte-step
/// classes carve blocks at 8-aligned addresses, so the header must not
/// demand more.
struct BlockHeader {
  /// Lifecycle tag (kLiveTag / kFreeTag / kDirectTag). Any other value on
  /// a deallocation path means the pointer never came from this allocator.
  uint64_t State;
  /// Pooled blocks: the size class of the block's span (fixed from the
  /// block's carving until its span empties). Direct blocks: the full
  /// malloc'd size, so the reserved-bytes gauge can account them.
  uint64_t ClassOrSize;
};
static_assert(sizeof(BlockHeader) == 16,
              "the payload offset and the SizeClasses.h layout guarantee "
              "assume a 16-byte header");

inline constexpr uint64_t kLiveTag = 0xA110CA7E0115A11Eull;
inline constexpr uint64_t kFreeTag = 0xF4EEB10CF4EEB10Cull;
inline constexpr uint64_t kDirectTag = 0xD14EC7B10CD14EC7ull;

/// The user-visible payload of a block.
inline void *blockPayload(BlockHeader *B) { return B + 1; }
inline BlockHeader *blockOfPayload(void *P) {
  return static_cast<BlockHeader *>(P) - 1;
}

/// The bytes of a free block that stay addressable in ASan builds: the
/// header, for tag checks, and the link word.
inline constexpr uint32_t kFreeBlockKept =
    sizeof(BlockHeader) + sizeof(void *);

/// In ASan builds a free block's payload past its link word is poisoned
/// while the block sits in a thread cache or on a span's free list (and a
/// span in the arena's pool is poisoned whole), so a stale access to
/// pooled storage is reported; allocateBlock unpoisons the payload when it
/// hands the block out. Other builds compile both to nothing.
inline void poisonFreePayload([[maybe_unused]] BlockHeader *B,
                              [[maybe_unused]] uint32_t BlockSize) {
#if CHAM_ALLOC_POISONS
  if (BlockSize > kFreeBlockKept)
    ASAN_POISON_MEMORY_REGION(reinterpret_cast<char *>(B) + kFreeBlockKept,
                              BlockSize - kFreeBlockKept);
#endif
}

inline void unpoisonPayload([[maybe_unused]] BlockHeader *B,
                            [[maybe_unused]] uint32_t BlockSize) {
#if CHAM_ALLOC_POISONS
  ASAN_UNPOISON_MEMORY_REGION(blockPayload(B),
                              BlockSize - sizeof(BlockHeader));
#endif
}

/// One size class's central list: the class's partially free spans, the
/// one that last gained a free block first. Access is batched: thread
/// caches pop and push whole transfer batches, so the spinlock is taken
/// once per transferBatch() operations, not per allocation.
class CentralFreeList {
public:
  /// Pops \p N blocks into \p Out from the class's partial spans, taking
  /// empty spans from \p Arena (and growing it) when none is left. Returns
  /// the number delivered (always \p N; the count return keeps the
  /// contract explicit). Every returned block has a kFreeTag header of
  /// this class.
  CHAM_NO_SAFEPOINT uint32_t popBatch(BlockHeader **Out, uint32_t N,
                                      uint32_t ClassIdx, PageArena &Arena);

  /// Pushes \p N blocks (kFreeTag headers of this class) back onto their
  /// spans; a span whose blocks are then all free returns to \p Arena.
  CHAM_NO_SAFEPOINT void pushBatch(BlockHeader **Blocks, uint32_t N,
                                   PageArena &Arena);

private:
  friend bool verifySpans(std::string *Error);

  /// Fills \p Out from partial spans and then from the pool; stops short
  /// only when the pool is dry.
  uint32_t takeLocked(BlockHeader **Out, uint32_t N, uint32_t ClassIdx,
                      PageArena &Arena, uint32_t &SpansTaken);

  SpinLock Mu CHAM_LOCK_RANK(10);
  /// This class's spans with 0 < FreeCount < Capacity.
  SpanList Partial;
};

/// The process-global central state: one list per class over one arena
/// whose empty spans any class can take. Obtained through a leaked
/// singleton (centralState()) so it outlives every thread cache, including
/// those of static-destruction-time threads.
struct CentralState {
  CentralFreeList Lists[kNumClasses];
  PageArena *Arena;
};

CentralState &centralState();

/// Checks every span against its class's list and the arena's pool: a
/// span's free list plus its uncarved tail make its free count, every
/// listed block is tagged free with the span's class and listed once, a
/// span is on its class's partial list exactly when some but not all of
/// its blocks are free, and the spans no class holds are exactly the pool.
/// For tests: no other thread may allocate or free meanwhile. On failure
/// returns false and describes the first fault in \p Error.
bool verifySpans(std::string *Error = nullptr);

} // namespace chameleon::alloc

#endif // CHAMELEON_RUNTIME_CENTRALFREELIST_H
