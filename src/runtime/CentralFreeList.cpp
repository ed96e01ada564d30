//===--- CentralFreeList.cpp - Per-class central span lists ---------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/CentralFreeList.h"

#include "obs/Metrics.h"
#include "runtime/PageArena.h"

#include <bitset>
#include <cassert>
#include <cstring>

using namespace chameleon;
using namespace chameleon::alloc;

namespace {

// Central-tier telemetry (cham.alloc.*, DESIGN.md §12). Bumped only on the
// batched slow paths, never per allocation. spans_carved counts the spans
// classes take from the arena's empty pool.
CHAM_METRIC_COUNTER(AllocSpansCarved, "cham.alloc.spans_carved");
CHAM_METRIC_COUNTER(AllocCentralContention, "cham.alloc.central_contention");
CHAM_METRIC_GAUGE(AllocReservedBytes, "cham.alloc.reserved_bytes");

/// Free-list linkage lives in the first payload word (the header is kept
/// intact for tag checks).
BlockHeader *&nextOf(BlockHeader *B) {
  return *static_cast<BlockHeader **>(blockPayload(B));
}

/// Gives a pooled span (reset: nothing listed, nothing carved) to
/// \p ClassIdx with every block free.
void assignSpan(Span &S, uint32_t ClassIdx) {
  S.ClassIdx = ClassIdx;
  S.BlockSize = classSize(ClassIdx);
  S.Capacity = S.Bytes / S.BlockSize;
  S.FreeCount = S.Capacity;
}

/// Takes a span whose blocks are all free back to carve order, classless.
void resetSpan(Span &S) {
#if CHAM_ALLOC_POISONS
  ASAN_POISON_MEMORY_REGION(S.Base, S.Bytes);
#endif
  S.Free = nullptr;
  S.ClassIdx = kNoClass;
  S.BlockSize = 0;
  S.Capacity = 0;
  S.FreeCount = 0;
  S.Tail = 0;
}

/// Moves up to \p N free blocks of \p S to \p Out: its free list first,
/// then blocks carved from its tail.
uint32_t takeFromSpan(Span &S, BlockHeader **Out, uint32_t N) {
  uint32_t Got = 0;
  while (Got < N && S.Free) {
    BlockHeader *B = S.Free;
    S.Free = nextOf(B);
    assert(B->State == kFreeTag && "span free list holds a non-free block");
    Out[Got++] = B;
  }
  while (Got < N && S.Tail < S.Capacity) {
    BlockHeader *B = S.blockAt(S.Tail++);
#if CHAM_ALLOC_POISONS
    // A pooled span is poisoned whole; the rest of the block stays so.
    ASAN_UNPOISON_MEMORY_REGION(B, kFreeBlockKept);
#endif
    B->State = kFreeTag;
    B->ClassOrSize = S.ClassIdx;
    Out[Got++] = B;
  }
  S.FreeCount -= Got;
  return Got;
}

} // namespace

uint32_t CentralFreeList::takeLocked(BlockHeader **Out, uint32_t N,
                                     uint32_t ClassIdx, PageArena &Arena,
                                     uint32_t &SpansTaken) {
  uint32_t Got = 0;
  while (Got < N) {
    Span *S = Partial.front();
    if (!S) {
      S = Arena.takeEmpty();
      if (!S)
        break;
      assignSpan(*S, ClassIdx);
      Partial.push(S);
      ++SpansTaken;
    }
    const uint32_t Took = takeFromSpan(*S, Out + Got, N - Got);
    assert(Took > 0 && "a span on the partial list gave no block");
    Got += Took;
    if (S->FreeCount == 0)
      Partial.remove(S);
  }
  return Got;
}

uint32_t CentralFreeList::popBatch(BlockHeader **Out, uint32_t N,
                                   uint32_t ClassIdx, PageArena &Arena) {
  assert(N > 0 && ClassIdx < kNumClasses);
  uint64_t Contended = 0;
  uint32_t SpansTaken = 0;
  bool Grew = false;
  uint32_t Got = 0;
  for (;;) {
    Mu.lockCounted(Contended);
    Got += takeLocked(Out + Got, N - Got, ClassIdx, Arena, SpansTaken);
    Mu.unlock();
    if (Got == N)
      break;
    // The pool is dry. Grow the arena with no lock held (it allocates),
    // then retry; another class may take the new spans first.
    Arena.grow();
    Grew = true;
  }
  if (Contended)
    AllocCentralContention.add(Contended);
  if (SpansTaken)
    AllocSpansCarved.add(SpansTaken);
  if (Grew)
    AllocReservedBytes.set(static_cast<int64_t>(Arena.reservedBytes()));
  return Got;
}

void CentralFreeList::pushBatch(BlockHeader **Blocks, uint32_t N,
                                PageArena &Arena) {
  if (N == 0)
    return;
  uint64_t Contended = 0;
  Mu.lockCounted(Contended);
  for (uint32_t I = 0; I < N; ++I) {
    BlockHeader *B = Blocks[I];
    Span &S = *spanOf(B);
    assert(B->State == kFreeTag && S.ClassIdx == B->ClassOrSize &&
           "pushed block is not a free block of a span of its class");
    nextOf(B) = S.Free;
    S.Free = B;
    if (S.FreeCount++ == 0)
      Partial.push(&S);
    if (S.FreeCount == S.Capacity) {
      // Every block is home: any class may take the span next.
      Partial.remove(&S);
      resetSpan(S);
      Arena.releaseEmpty(&S);
    }
  }
  Mu.unlock();
  if (Contended)
    AllocCentralContention.add(Contended);
}

CentralState &chameleon::alloc::centralState() {
  // Leaked on purpose: thread caches flush into the central lists from
  // thread_local destructors, which can run during static destruction —
  // the central state must never be destroyed first. The pointer keeps the
  // state (and through it every slab) reachable for leak checkers.
  static CentralState *State = [] {
    auto *S = new CentralState();
    S->Arena = new PageArena();
    return S;
  }();
  return *State;
}

//===----------------------------------------------------------------------===//
// verifySpans
//===----------------------------------------------------------------------===//

namespace {

/// The first fault verifySpans finds, kept as plain values so that no
/// message is built while a spinlock is held.
struct SpanFault {
  const char *What = nullptr;
  const Span *Where = nullptr;

  void set(const char *W, const Span *S) {
    if (!What) {
      What = W;
      Where = S;
    }
  }
};

/// Visits the spans of \p L, checking each back link and giving up after
/// \p Bound spans (a cycle). Returns the number visited.
template <typename Fn>
size_t walkSpans(const SpanList &L, size_t Bound, SpanFault &Fault,
                 Fn &&Visit) {
  size_t Count = 0;
  const Span *Prev = nullptr;
  for (const Span *S = L.front(); S; Prev = S, S = S->Next) {
    if (S->Prev != Prev || ++Count > Bound) {
      Fault.set("a span list has a bad back link or a cycle", S);
      break;
    }
    Visit(*S);
  }
  return Count;
}

/// Checks the geometry and the free list of \p S, a span serving a class.
void checkSpanBlocks(const Span &S, SpanFault &Fault) {
  if (S.BlockSize != classSize(S.ClassIdx) ||
      S.Capacity != S.Bytes / S.BlockSize || S.Tail > S.Capacity)
    return Fault.set("span geometry does not match its class", &S);
  std::bitset<kSpanBytes / 8> Seen;
  uint32_t Listed = 0;
  const auto Base = reinterpret_cast<uintptr_t>(S.Base);
  for (BlockHeader *B = S.Free; B; B = nextOf(B)) {
    const auto At = reinterpret_cast<uintptr_t>(B);
    if (At < Base || (At - Base) % S.BlockSize != 0 ||
        (At - Base) / S.BlockSize >= S.Tail)
      return Fault.set("a listed block is not a carved block of its span",
                       &S);
    if (B->State != kFreeTag || B->ClassOrSize != S.ClassIdx)
      return Fault.set("a listed block is not tagged free with its span's "
                       "class",
                       &S);
    const size_t Index = (At - Base) / S.BlockSize;
    if (Seen.test(Index))
      return Fault.set("a block is listed twice", &S);
    Seen.set(Index);
    ++Listed;
  }
  if (Listed + (S.Capacity - S.Tail) != S.FreeCount)
    Fault.set("free list plus uncarved tail differs from the free count",
              &S);
}

} // namespace

bool chameleon::alloc::verifySpans(std::string *Error) {
  CentralState &Central = centralState();
  PageArena &Arena = *Central.Arena;
  SpanFault Fault;
  const SlabHeader *Newest = nullptr;
  size_t NumSpans = 0;
  size_t Pooled = 0;
  {
    SpinLockGuard G(Arena.Mu);
    Newest = Arena.Newest;
    for (const SlabHeader *Slab = Newest; Slab; Slab = Slab->Older)
      NumSpans += kSpansPerSlab;
    Pooled = walkSpans(Arena.Empty, NumSpans, Fault, [&Fault](const Span &S) {
      if (S.ClassIdx != kNoClass || S.Free || S.FreeCount || S.Tail)
        Fault.set("a pooled span is not reset", &S);
    });
  }
  // Slabs are only ever prepended, so the chain from Newest stays valid.
  auto ForEachSpan = [Newest](auto &&Fn) {
    for (const SlabHeader *Slab = Newest; Slab; Slab = Slab->Older)
      for (const Span &S : Slab->Spans)
        Fn(S);
  };
  for (uint32_t C = 0; C < kNumClasses; ++C) {
    CentralFreeList &L = Central.Lists[C];
    SpinLockGuard G(L.Mu);
    const size_t Listed =
        walkSpans(L.Partial, NumSpans, Fault, [&Fault, C](const Span &S) {
          if (S.ClassIdx != C || S.FreeCount == 0 ||
              S.FreeCount >= S.Capacity)
            Fault.set("a partial list holds a span of another class, or a "
                      "full or empty one",
                      &S);
        });
    size_t PartlyFree = 0;
    ForEachSpan([&](const Span &S) {
      if (S.ClassIdx != C)
        return;
      checkSpanBlocks(S, Fault);
      if (S.FreeCount == S.Capacity)
        Fault.set("a span whose blocks are all free kept its class", &S);
      else if (S.FreeCount > 0)
        ++PartlyFree;
    });
    if (PartlyFree != Listed)
      Fault.set("a partially free span is missing from its class's list",
                nullptr);
  }
  size_t Classless = 0;
  ForEachSpan([&Classless](const Span &S) {
    Classless += S.ClassIdx == kNoClass;
  });
  if (Classless != Pooled)
    Fault.set("the classless spans are not exactly the empty pool", nullptr);

  if (!Fault.What)
    return true;
  if (Error) {
    *Error = Fault.What;
    if (const Span *S = Fault.Where) {
      const SlabHeader *Slab = slabOf(S);
      *Error += " (span " + std::to_string(S - Slab->Spans) + " of slab " +
                std::to_string(reinterpret_cast<uintptr_t>(Slab)) +
                ", class " + std::to_string(S->ClassIdx) + ", free " +
                std::to_string(S->FreeCount) + " of " +
                std::to_string(S->Capacity) + ", tail " +
                std::to_string(S->Tail) + ")";
    }
  }
  return false;
}
