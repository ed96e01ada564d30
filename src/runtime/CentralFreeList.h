//===--- CentralFreeList.h - Per-class central transfer lists --*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The middle tier of the allocation substrate (DESIGN.md §12): one
/// spinlocked free list per size class, moving blocks in transfer batches
/// between the per-thread caches (ThreadCache.h) and the page arena.
/// Blocks on a list are threaded through their first body word (the 16-byte,
/// 8-aligned header stays intact, tagged "free" for double-return
/// detection).
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_RUNTIME_CENTRALFREELIST_H
#define CHAMELEON_RUNTIME_CENTRALFREELIST_H

#include "runtime/SizeClasses.h"
#include "support/Annotations.h"
#include "support/SpinLock.h"

#include <cstdint>

namespace chameleon::alloc {

class PageArena;

/// Every pooled or direct block starts with one of these; the user storage
/// (a HeapObject) begins immediately after. 16 bytes so the layout
/// guarantee in SizeClasses.h holds, but only 8-aligned: the 8-byte-step
/// classes carve blocks at 8-aligned addresses, so the header must not
/// demand more.
struct BlockHeader {
  /// Lifecycle tag (kLiveTag / kFreeTag / kDirectTag). Any other value on
  /// a deallocation path means the pointer never came from this allocator.
  uint64_t State;
  /// Pooled blocks: the size class that owns the block (stable for the
  /// block's whole life). Direct blocks: the full malloc'd size, so the
  /// reserved-bytes gauge can account them.
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

/// One size class's central list. Access is batched: thread caches pop and
/// push whole transfer batches, so the spinlock is taken once per
/// transferBatch() operations, not per allocation.
class CentralFreeList {
public:
  /// Pops up to \p N blocks into \p Out, carving a fresh span from \p
  /// Arena when the list runs dry. Returns the number delivered (always
  /// \p N; the count return keeps the contract explicit). Every returned
  /// block has a kFreeTag header of this class.
  CHAM_NO_SAFEPOINT uint32_t popBatch(BlockHeader **Out, uint32_t N,
                                      uint32_t ClassIdx, PageArena &Arena);

  /// Pushes \p N blocks (kFreeTag headers) back onto the list.
  CHAM_NO_SAFEPOINT void pushBatch(BlockHeader **Blocks, uint32_t N);

private:
  SpinLock Mu CHAM_LOCK_RANK(10);
  /// Singly linked through the first payload word.
  BlockHeader *Head = nullptr;
};

/// The process-global central state: one list per class over one arena.
/// Obtained through a leaked singleton (see ThreadCache.cpp) so it outlives
/// every thread cache, including those of static-destruction-time threads.
struct CentralState {
  CentralFreeList Lists[kNumClasses];
  PageArena *Arena;
};

CentralState &centralState();

} // namespace chameleon::alloc

#endif // CHAMELEON_RUNTIME_CENTRALFREELIST_H
