//===--- PageArena.h - Span pool of the allocator --------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backing store of the allocation substrate (DESIGN.md §12): 1 MiB
/// slabs from ::operator new, each aligned to its own size and cut into 16
/// spans of 64 KiB. A span serves one size class at a time: the class's
/// central list (CentralFreeList.h) carves the span's blocks in address
/// order and takes freed blocks back onto the span's own free list. A span
/// whose blocks are all free again returns here, reset to carve order, and
/// any class can take it next. Slabs themselves are never returned to the
/// C++ heap: the arena lives behind a leaked singleton (centralState()),
/// so a block can never outlive its slab.
///
/// A slab's first kSlabHeaderBytes hold its span records, so the span of
/// any block is one mask and one index away (spanOf). Every span's first
/// block is 16-aligned (see SizeClasses.h for why that suffices). In ASan
/// builds a span in the pool is poisoned whole (CentralFreeList.h).
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_RUNTIME_PAGEARENA_H
#define CHAMELEON_RUNTIME_PAGEARENA_H

#include "support/Annotations.h"
#include "support/SpinLock.h"

#include <cstddef>
#include <cstdint>
#include <string>

#if defined(__SANITIZE_ADDRESS__)
#define CHAM_ALLOC_POISONS 1
#include <sanitizer/asan_interface.h>
#else
#define CHAM_ALLOC_POISONS 0
#endif

namespace chameleon::alloc {

struct BlockHeader;

inline constexpr size_t kSlabBytes = size_t{1} << 20;
inline constexpr size_t kSpanBytes = size_t{1} << 16;
inline constexpr size_t kSpansPerSlab = kSlabBytes / kSpanBytes;
/// Room for the span records at the start of each slab; the slab's first
/// span begins after them.
inline constexpr size_t kSlabHeaderBytes = 1024;

/// The class of a span in the arena's empty pool.
inline constexpr uint32_t kNoClass = 0xFFFFFFFFu;

/// One span's record. While the span serves a class, the class's central
/// list lock guards it; while it sits in the empty pool, the arena's lock
/// does.
struct Span {
  /// Intrusive links: the owning class's partial list, or the empty pool.
  Span *Prev = nullptr;
  Span *Next = nullptr;
  /// Freed blocks, linked through their first payload word.
  BlockHeader *Free = nullptr;
  /// The first block, and the bytes usable from it.
  char *Base = nullptr;
  uint32_t Bytes = 0;
  /// The size class served and its block size, or kNoClass and 0.
  uint32_t ClassIdx = kNoClass;
  uint32_t BlockSize = 0;
  /// Blocks that fit in Bytes.
  uint32_t Capacity = 0;
  /// Free blocks: those on Free plus the uncarved ones from Tail on.
  uint32_t FreeCount = 0;
  /// Index of the first block not carved since the span took its class.
  uint32_t Tail = 0;

  BlockHeader *blockAt(uint32_t I) const {
    return reinterpret_cast<BlockHeader *>(Base + size_t{I} * BlockSize);
  }
};

/// A LIFO intrusive list of spans: a class's partial spans, or the pool.
class SpanList {
public:
  Span *front() const { return Head; }

  void push(Span *S) {
    S->Prev = nullptr;
    S->Next = Head;
    if (Head)
      Head->Prev = S;
    Head = S;
  }

  void remove(Span *S) {
    (S->Prev ? S->Prev->Next : Head) = S->Next;
    if (S->Next)
      S->Next->Prev = S->Prev;
    S->Prev = S->Next = nullptr;
  }

private:
  Span *Head = nullptr;
};

/// The first kSlabHeaderBytes of every slab.
struct SlabHeader {
  Span Spans[kSpansPerSlab];
  /// The slab the arena obtained before this one.
  SlabHeader *Older = nullptr;
};
static_assert(sizeof(SlabHeader) <= kSlabHeaderBytes,
              "span records must fit before the slab's first block");

/// The slab holding address \p P.
inline SlabHeader *slabOf(const void *P) {
  return reinterpret_cast<SlabHeader *>(reinterpret_cast<uintptr_t>(P) &
                                        ~uintptr_t{kSlabBytes - 1});
}

/// The span holding address \p P (a block header or anything inside it).
inline Span *spanOf(const void *P) {
  const auto Offset = reinterpret_cast<uintptr_t>(P) & (kSlabBytes - 1);
  return &slabOf(P)->Spans[Offset / kSpanBytes];
}

class PageArena {
public:
  PageArena() = default;
  PageArena(const PageArena &) = delete;
  PageArena &operator=(const PageArena &) = delete;

  /// Pops an empty span (class kNoClass), or null when the pool is dry.
  CHAM_NO_SAFEPOINT Span *takeEmpty();

  /// Returns \p S, reset to class kNoClass, to the pool.
  CHAM_NO_SAFEPOINT void releaseEmpty(Span *S);

  /// Obtains one more slab and adds its spans to the pool. It allocates,
  /// so the caller must hold no spinlock.
  void grow();

  /// Total bytes obtained from the C++ heap so far.
  uint64_t reservedBytes() const;

private:
  friend bool verifySpans(std::string *Error);

  mutable SpinLock Mu CHAM_LOCK_RANK(5);
  SpanList Empty;
  /// Every slab, newest first; keeps them reachable for leak checkers.
  SlabHeader *Newest = nullptr;
  uint64_t Reserved = 0;
};

} // namespace chameleon::alloc

#endif // CHAMELEON_RUNTIME_PAGEARENA_H
