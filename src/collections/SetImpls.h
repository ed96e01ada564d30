//===--- SetImpls.h - Hash, array, and size-adapting sets ------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Set implementations:
///
/// * `HashSetImpl` — backed by a separate HashMap object, exactly as the
///   paper lists it ("HashSet (default) - backed up by a HashMap"); also
///   serves as LazySet (backing map deferred to first update);
/// * `ArraySetImpl` — backed by an array, linear membership ("ArraySet -
///   backed up by an array");
/// * `SizeAdaptingSetImpl` — "dynamically switch underlying implementation
///   from array to HashMap based on size".
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_COLLECTIONS_SETIMPLS_H
#define CHAMELEON_COLLECTIONS_SETIMPLS_H

#include "collections/ImplBase.h"

namespace chameleon {

class HashMapImpl;

/// Hash set backed by a HashMap whose values equal their keys.
class HashSetImpl : public SeqImpl {
public:
  HashSetImpl(TypeId Type, uint64_t Bytes, CollectionRuntime &RT, bool Lazy,
              uint32_t InitialCapacity)
      : SeqImpl(Type, Bytes, RT), InitialCapacity(InitialCapacity),
        Lazy(Lazy) {}

  /// Allocates the eager backing map; call once rooted. No-op when lazy.
  void initEager() override;

  uint32_t size() const override;
  void clear() override;
  CollectionSizes sizes() const override;

  bool add(Value V) override;
  bool removeValue(Value V) override;
  bool contains(Value V) const override;
  bool iterNext(IterState &State, Value &Out) const override;

  void trace(GcTracer &Tracer) const override { Tracer.visit(Backing); }

private:
  void ensureBacking();
  HashMapImpl *backing() const;

  ObjectRef Backing;
  uint32_t InitialCapacity;
  bool Lazy;
};

/// Array-backed set: linear membership, no per-element objects.
class ArraySetImpl : public SeqImpl {
public:
  ArraySetImpl(TypeId Type, uint64_t Bytes, CollectionRuntime &RT,
               uint32_t InitialCapacity)
      : SeqImpl(Type, Bytes, RT), InitialCapacity(InitialCapacity) {}

  /// Allocates the eager backing array; call once rooted.
  void initEager() override { ensureCapacity(InitialCapacity); }

  uint32_t size() const override { return Count; }
  void clear() override;
  CollectionSizes sizes() const override;

  bool add(Value V) override;
  bool removeValue(Value V) override;
  bool contains(Value V) const override;
  bool iterNext(IterState &State, Value &Out) const override;

  void trace(GcTracer &Tracer) const override { Tracer.visit(Backing); }

  uint32_t capacity() const { return Capacity; }

private:
  void ensureCapacity(uint32_t Needed);
  ValueArray &array() const;

  ObjectRef Backing;
  uint32_t Count = 0;
  uint32_t Capacity = 0;
  uint32_t InitialCapacity;
};

/// Hybrid set: inner ArraySet until the size crosses the threshold, then
/// an inner HashSet (§2.3's second "local knowledge" alternative).
class SizeAdaptingSetImpl : public SeqImpl {
public:
  SizeAdaptingSetImpl(TypeId Type, uint64_t Bytes, CollectionRuntime &RT,
                      uint32_t Threshold)
      : SeqImpl(Type, Bytes, RT), Threshold(Threshold) {}

  /// Allocates the initial inner ArraySet; call once rooted.
  void initEager() override;

  uint32_t size() const override;
  void clear() override;
  CollectionSizes sizes() const override;

  bool add(Value V) override;
  bool removeValue(Value V) override;
  bool contains(Value V) const override;
  bool iterNext(IterState &State, Value &Out) const override;

  void trace(GcTracer &Tracer) const override { Tracer.visit(Inner); }

  bool isHashed() const { return Hashed; }
  uint32_t threshold() const { return Threshold; }

private:
  SeqImpl &inner() const;
  void convertToHash();

  ObjectRef Inner;
  uint32_t Threshold;
  bool Hashed = false;
};

} // namespace chameleon

#endif // CHAMELEON_COLLECTIONS_SETIMPLS_H
