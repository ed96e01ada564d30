//===--- PageArena.cpp - Span pool of the allocator -----------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/PageArena.h"

#include <cassert>
#include <new>

using namespace chameleon::alloc;

Span *PageArena::takeEmpty() {
  SpinLockGuard G(Mu);
  Span *S = Empty.front();
  if (S)
    Empty.remove(S);
  return S;
}

void PageArena::releaseEmpty(Span *S) {
  assert(S->ClassIdx == kNoClass && !S->Free && "pooled span not reset");
  SpinLockGuard G(Mu);
  Empty.push(S);
}

void PageArena::grow() {
  // Aligned to its size, so spanOf finds the records by masking.
  void *Mem = ::operator new(kSlabBytes, std::align_val_t{kSlabBytes});
  auto *Slab = new (Mem) SlabHeader();
  char *Start = static_cast<char *>(Mem);
  for (size_t I = 0; I < kSpansPerSlab; ++I) {
    Span &S = Slab->Spans[I];
    const size_t Skip = I == 0 ? kSlabHeaderBytes : 0;
    S.Base = Start + I * kSpanBytes + Skip;
    S.Bytes = static_cast<uint32_t>(kSpanBytes - Skip);
#if CHAM_ALLOC_POISONS
    ASAN_POISON_MEMORY_REGION(S.Base, S.Bytes);
#endif
  }
  SpinLockGuard G(Mu);
  // Push in reverse, so the pool hands the spans out in address order.
  for (size_t I = kSpansPerSlab; I-- > 0;)
    Empty.push(&Slab->Spans[I]);
  Slab->Older = Newest;
  Newest = Slab;
  Reserved += kSlabBytes;
}

uint64_t PageArena::reservedBytes() const {
  SpinLockGuard G(Mu);
  return Reserved;
}
