//===--- ArrayListImpl.h - Resizable-array list ----------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resizable-array list (default List backing) and its lazy variant.
/// Growth follows the policy the paper quotes in §2.2 (`grownCapacity`),
/// and the default capacity is allocated eagerly at construction (the
/// Java-5-era behaviour the "set initial capacity" rules exist to
/// correct). The lazy variant (`LazyArrayList`) defers the backing array
/// to the first update — the fix the paper applies to bloat's mostly-empty
/// lists.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_COLLECTIONS_ARRAYLISTIMPL_H
#define CHAMELEON_COLLECTIONS_ARRAYLISTIMPL_H

#include "collections/ImplBase.h"

namespace chameleon {

/// Resizable-array list. Also serves as LazyArrayList (Lazy=true) and,
/// with int-only elements, shares logic with IntArrayListImpl's layout.
class ArrayListImpl : public SeqImpl {
public:
  ArrayListImpl(TypeId Type, uint64_t Bytes, CollectionRuntime &RT, bool Lazy,
                uint32_t InitialCapacity)
      : SeqImpl(Type, Bytes, RT), InitialCapacity(InitialCapacity),
        Lazy(Lazy) {}

  /// Allocates the eager backing array; call once the object is rooted.
  /// No-op for the lazy variant.
  void initEager() override;

  uint32_t size() const override { return Count; }
  void clear() override;
  CollectionSizes sizes() const override;

  bool add(Value V) override;
  void addAt(uint32_t Index, Value V) override;
  Value get(uint32_t Index) const override;
  Value setAt(uint32_t Index, Value V) override;
  Value removeAt(uint32_t Index) override;
  bool removeValue(Value V) override;
  bool contains(Value V) const override;
  bool iterNext(IterState &State, Value &Out) const override;

  void trace(GcTracer &Tracer) const override { Tracer.visit(Backing); }

  /// Current backing capacity (0 before a lazy first update).
  uint32_t capacity() const { return Capacity; }

private:
  /// Grows/allocates so at least \p Needed elements fit.
  void ensureCapacity(uint32_t Needed);
  ValueArray &array() const;

  ObjectRef Backing;
  uint32_t Count = 0;
  uint32_t Capacity = 0;
  uint32_t InitialCapacity;
  bool Lazy;
};

} // namespace chameleon

#endif // CHAMELEON_COLLECTIONS_ARRAYLISTIMPL_H
