//===--- Handles.h - Program-facing List / Set / Map -----------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program-facing collection API. A `List` / `Set` / `Map` is a rooted
/// reference to a wrapper object; copying a handle aliases the same
/// collection (Java reference semantics). Every operation (i) records its
/// counter in the wrapper's per-instance usage record when the allocation
/// was profiled, and (ii) delegates to the backing implementation — the
/// delegation wrappers of the paper's §4.2 (cf. Google Collections'
/// Forwarding types). Each operation has one body: those every ADT has in
/// CollectionHandleBase, those List and Set share in SeqHandle.
///
/// Iterators allocate a heap-visible iterator object per `iterate()` call,
/// reproducing the iterator allocation pressure §5.4 discusses, and fail
/// fast on concurrent structural modification.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_COLLECTIONS_HANDLES_H
#define CHAMELEON_COLLECTIONS_HANDLES_H

#include "collections/CollectionRuntime.h"
#include "support/Assert.h"

namespace chameleon {

/// What ValueIter and EntryIter share: the rooted wrapper, the rooted heap
/// iterator object (it exists for allocation-pressure realism), the cursor,
/// and the fail-fast check.
class IterBase {
protected:
  friend class CollectionHandleBase;

  IterBase(CollectionRuntime &RT, ObjectRef Wrapper, ObjectRef IterObj,
           uint32_t ModCount, uint32_t MigrationEpoch);

  /// Polls the safepoint and returns the backing implementation. Aborts if
  /// it was migrated or structurally modified since the iterator was
  /// created.
  CollectionImplBase &checkedImpl() const;

  CollectionRuntime *RT;
  Handle Wrapper;
  Handle IterObj;
  IterState State;
  uint32_t ModAtStart;
  uint32_t EpochAtStart;
};

/// Iterator over element collections.
class ValueIter : public IterBase {
public:
  /// Advances; returns false at the end.
  bool next(Value &Out);

private:
  using IterBase::IterBase;
};

/// Iterator over map entries.
class EntryIter : public IterBase {
public:
  /// Advances; returns false at the end.
  bool next(Value &Key, Value &Val);

private:
  using IterBase::IterBase;
};

/// Roots a Value held in plain C++ memory. The collector cannot see C++
/// data structures, so a program keeping a reference Value outside a
/// rooted collection must hold it through one of these.
class RootedValue {
public:
  RootedValue() = default;

  RootedValue(CollectionRuntime &RT, Value V) : V(V) {
    if (V.isRef())
      H.set(RT.heap(), V.asRef());
  }

  Value get() const { return V; }

private:
  Value V;
  Handle H;
};

/// Common handle plumbing for the three ADT handles.
class CollectionHandleBase {
public:
  /// True for a default-constructed (null) handle.
  bool isNull() const { return H.isNull(); }

  /// The wrapper object's reference.
  ObjectRef wrapperRef() const { return H.ref(); }

  /// The current backing implementation kind (built-in backings only;
  /// check isCustomBacked first when custom implementations are in play).
  ImplKind backing() const {
    assert(!isCustomBacked() && "custom backing has no ImplKind");
    return obj().CurrentImpl;
  }

  /// True when a registered custom implementation backs this collection.
  bool isCustomBacked() const { return obj().CustomId >= 0; }

  /// Display name of the backing implementation (built-in or custom).
  std::string backingName() const;

  /// The allocation context (null when the allocation was unprofiled).
  ContextInfo *context() const { return obj().Ctx; }

  /// True when both handles alias the same collection.
  bool sameAs(const CollectionHandleBase &Other) const {
    return H.ref() == Other.H.ref();
  }

  /// Number of elements (entries for a Map).
  uint32_t size() const;
  bool isEmpty() const;
  void clear();

  /// Ends this collection's profiled lifetime explicitly: folds (or, in
  /// concurrent-mutator mode, buffers) its usage record on the *calling*
  /// thread and drops the handle's root. Idempotent with sweep-time
  /// folding. Concurrent workloads retire their collections so that the
  /// death-fold order is the deterministic task order, not the sweep's
  /// slot order.
  void retire() {
    if (isNull())
      return;
    RT->retireCollection(H.ref());
    H.reset();
  }

protected:
  CollectionHandleBase() = default;
  CollectionHandleBase(CollectionRuntime &RT, ObjectRef Wrapper)
      : RT(&RT), H(RT.heap(), Wrapper) {}

  CollectionObject &obj() const {
    assert(RT && !H.isNull() && "null collection handle");
    return RT->heap().getAs<CollectionObject>(H.ref());
  }

  CollectionImplBase &implBase() const {
    return RT->heap().getAs<CollectionImplBase>(obj().Impl);
  }

  /// Counts \p Op when profiled. Every handle operation calls this first,
  /// which makes it the mutators' GC safepoint poll: reference arguments
  /// are already rooted here (TempRootScope guards are constructed before
  /// countOp in mutating ops), so stopping at this point is safe.
  /// Operations on a retired wrapper still execute (the structure stays
  /// valid) but are reported as use-after-retire and left uncounted — the
  /// usage record was already folded, so counting into it would corrupt
  /// the context's statistics.
  void countOp(OpKind Op) const {
    RT->heap().safepointPoll();
    CollectionObject &W = obj();
    if (W.Retired) {
      RT->noteUseAfterRetire();
      CHAM_DCHECK(false, "operation on a retired collection");
      return;
    }
    if (W.Ctx)
      W.Usage.count(Op);
  }

  /// Records the size after a mutation when profiled.
  void noteSize(uint32_t Size) const {
    CollectionObject &W = obj();
    if (W.Ctx && !W.Retired)
      W.Usage.noteSize(Size);
  }

  /// Mutating operations end with this: the periodic hook where the online
  /// selector may transactionally migrate this collection (see
  /// CollectionRuntime::maybeMigrate). Reads and iteration never migrate.
  void maybeRevise() const { RT->maybeMigrate(H.ref()); }

  /// The one iterate() body: counts the iteration (empty or not),
  /// allocates its heap iterator object, and snapshots the fail-fast state.
  template <typename IterT> IterT iterateAs() const;

  CollectionRuntime *RT = nullptr;
  Handle H;
};

/// What List and Set share: both are element collections over a SeqImpl.
class SeqHandle : public CollectionHandleBase {
public:
  bool remove(Value V);
  bool contains(Value V) const;
  ValueIter iterate() const;

protected:
  SeqHandle() = default;
  using CollectionHandleBase::CollectionHandleBase;

  /// addAll's copy loop: counts \p Op here and CopiedInto on \p Source,
  /// then appends every element of \p Source, or inserts them from
  /// \p Index on when \p Op is AddAllAtIndex.
  void addAllFrom(const SeqHandle &Source, OpKind Op, uint32_t Index = 0);

  SeqImpl &impl() const { return RT->heap().getAs<SeqImpl>(obj().Impl); }
};

/// The List ADT handle.
class List : public SeqHandle {
public:
  List() = default;

  void add(Value V);
  void add(uint32_t Index, Value V);
  Value get(uint32_t Index) const;
  Value set(uint32_t Index, Value V);
  Value removeAt(uint32_t Index);
  Value removeFirst();
  /// Appends all of \p Source (records the copy interaction on both sides).
  void addAll(const List &Source) { addAllFrom(Source, OpKind::AddAll); }
  void addAll(uint32_t Index, const List &Source) {
    addAllFrom(Source, OpKind::AddAllAtIndex, Index);
  }

private:
  friend class CollectionRuntime;
  using SeqHandle::SeqHandle;
};

/// The Set ADT handle.
class Set : public SeqHandle {
public:
  Set() = default;

  /// Returns true when the element was new.
  bool add(Value V);
  void addAll(const Set &Source) { addAllFrom(Source, OpKind::AddAll); }

private:
  friend class CollectionRuntime;
  using SeqHandle::SeqHandle;
};

/// The Map ADT handle.
class Map : public CollectionHandleBase {
public:
  Map() = default;

  /// Returns true when the key was new.
  bool put(Value Key, Value Val);
  /// The bound value, or Value::null() when absent.
  Value get(Value Key) const;
  bool containsKey(Value Key) const;
  bool containsValue(Value Val) const;
  bool remove(Value Key);
  void putAll(const Map &Source);
  EntryIter iterate() const;

private:
  friend class CollectionRuntime;
  using CollectionHandleBase::CollectionHandleBase;

  MapImpl &impl() const { return RT->heap().getAs<MapImpl>(obj().Impl); }
};

} // namespace chameleon

#endif // CHAMELEON_COLLECTIONS_HANDLES_H
