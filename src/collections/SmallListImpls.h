//===--- SmallListImpls.h - Singleton, empty, and int lists ----*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three specialised list implementations from the paper's library (§4.2
/// "Available Implementations" and the SOOT / PMD case studies):
///
/// * `SingletonListImpl` — at most one element held in an inline field,
///   the replacement SOOT's by-construction singleton lists get;
/// * `EmptyListImpl` — immutable empty list (PMD's EMPTY_LIST idiom);
/// * `IntArrayListImpl` — "IntArray: array of ints", 4-byte slots.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_COLLECTIONS_SMALLLISTIMPLS_H
#define CHAMELEON_COLLECTIONS_SMALLLISTIMPLS_H

#include "collections/ImplBase.h"

namespace chameleon {

/// A list of at most one element, stored inline (no backing array).
class SingletonListImpl : public SeqImpl {
public:
  SingletonListImpl(TypeId Type, uint64_t Bytes, CollectionRuntime &RT)
      : SeqImpl(Type, Bytes, RT) {}

  uint32_t size() const override { return Has ? 1 : 0; }
  void clear() override;
  CollectionSizes sizes() const override;

  bool add(Value V) override;
  Value get(uint32_t Index) const override;
  Value setAt(uint32_t Index, Value V) override;
  Value removeAt(uint32_t Index) override;
  bool removeValue(Value V) override;
  bool contains(Value V) const override;
  bool iterNext(IterState &State, Value &Out) const override;

  void trace(GcTracer &Tracer) const override {
    Tracer.visit(Item.refOrNull());
  }

private:
  Value Item;
  bool Has = false;
};

/// The immutable empty list. Any mutation aborts: the rule that selects it
/// ("redundant collection — avoid allocation") only fires for contexts
/// whose profile shows the collections are never written.
class EmptyListImpl : public SeqImpl {
public:
  EmptyListImpl(TypeId Type, uint64_t Bytes, CollectionRuntime &RT)
      : SeqImpl(Type, Bytes, RT) {}

  uint32_t size() const override { return 0; }
  void clear() override {}
  CollectionSizes sizes() const override;

  bool add(Value V) override;
  bool removeValue(Value V) override;
  bool contains(Value V) const override { return (void)V, false; }
  bool iterNext(IterState &State, Value &Out) const override {
    (void)State;
    (void)Out;
    return false;
  }
};

/// A resizable array of unboxed ints: 4-byte slots instead of references.
/// Accepts only int values.
class IntArrayListImpl : public SeqImpl {
public:
  IntArrayListImpl(TypeId Type, uint64_t Bytes, CollectionRuntime &RT,
                   uint32_t InitialCapacity)
      : SeqImpl(Type, Bytes, RT), InitialCapacity(InitialCapacity) {}

  /// Allocates the eager backing array; call once rooted.
  void initEager() override { ensureCapacity(InitialCapacity); }

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

private:
  void ensureCapacity(uint32_t Needed);
  IntArray &array() const;

  ObjectRef Backing;
  uint32_t Count = 0;
  uint32_t Capacity = 0;
  uint32_t InitialCapacity;
};

} // namespace chameleon

#endif // CHAMELEON_COLLECTIONS_SMALLLISTIMPLS_H
