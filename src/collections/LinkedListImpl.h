//===--- LinkedListImpl.h - Doubly-linked list -----------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The doubly-linked list: a circular chain of 24-byte entries around an
/// eagerly allocated sentinel. The eager sentinel is deliberate fidelity:
/// the paper found ~25% of bloat's heap at its spike was `LinkedList$Entry`
/// objects "allocated as the head of an empty linked list" (§5.3).
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_COLLECTIONS_LINKEDLISTIMPL_H
#define CHAMELEON_COLLECTIONS_LINKEDLISTIMPL_H

#include "collections/ImplBase.h"

namespace chameleon {

/// Doubly-linked list with a sentinel header entry.
class LinkedListImpl : public SeqImpl {
public:
  LinkedListImpl(TypeId Type, uint64_t Bytes, CollectionRuntime &RT);

  /// Allocates the sentinel; call once the object is rooted.
  void initEager() override;

  uint32_t size() const override { return Count; }
  void clear() override;
  CollectionSizes sizes() const override;

  bool add(Value V) override;
  void addAt(uint32_t Index, Value V) override;
  Value get(uint32_t Index) const override;
  Value setAt(uint32_t Index, Value V) override;
  Value removeAt(uint32_t Index) override;
  Value removeFirst() override;
  bool removeValue(Value V) override;
  bool contains(Value V) const override;
  bool iterNext(IterState &State, Value &Out) const override;

  void trace(GcTracer &Tracer) const override { Tracer.visit(Sentinel); }

private:
  /// The entry at a position (the sentinel is position "end").
  ObjectRef entryAt(uint32_t Index) const;
  /// Splices a new entry holding \p V before \p NextEntry.
  void insertBefore(ObjectRef NextEntry, Value V);
  /// Unlinks \p Entry and returns its item.
  Value unlink(ObjectRef Entry);

  ObjectRef Sentinel;
  uint32_t Count = 0;
};

} // namespace chameleon

#endif // CHAMELEON_COLLECTIONS_LINKEDLISTIMPL_H
