//===--- HashMapImpl.h - Chained hash map ----------------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The chained hash map (default Map backing): an eagerly allocated bucket
/// table (default capacity 16, load factor 0.75, doubling growth) whose
/// buckets chain 24-byte entry objects — the space structure the paper's
/// §2.3 analysis attributes HashMap's footprint to. `LazyMap` is the same
/// structure with the table deferred to the first put.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_COLLECTIONS_HASHMAPIMPL_H
#define CHAMELEON_COLLECTIONS_HASHMAPIMPL_H

#include "collections/ImplBase.h"

namespace chameleon {

/// Chained hash map; also serves as LazyMap (Lazy=true).
class HashMapImpl : public MapImpl {
public:
  HashMapImpl(TypeId Type, uint64_t Bytes, CollectionRuntime &RT, bool Lazy,
              uint32_t InitialCapacity)
      : MapImpl(Type, Bytes, RT), InitialCapacity(InitialCapacity),
        Lazy(Lazy) {}

  /// Allocates the eager table; call once rooted. No-op when lazy.
  void initEager() override;

  uint32_t size() const override { return Count; }
  void clear() override;
  CollectionSizes sizes() const override;

  bool put(Value Key, Value Val) override;
  Value get(Value Key) const override;
  bool containsKey(Value Key) const override;
  bool containsValue(Value Val) const override;
  bool removeKey(Value Key) override;
  bool iterNext(IterState &State, Value &Key, Value &Val) const override;

  void trace(GcTracer &Tracer) const override { Tracer.visit(Table); }

  /// Current table capacity (0 before a lazy first update).
  uint32_t capacity() const { return Capacity; }

  /// Number of non-empty buckets (drives the used-size computation).
  uint32_t usedBuckets() const { return UsedBuckets; }

private:
  void ensureTable();
  void resize(uint32_t NewCapacity);
  uint32_t bucketOf(Value Key, uint32_t Cap) const {
    return static_cast<uint32_t>(Key.hash() % Cap);
  }
  ValueArray &table() const;
  /// The entry holding \p Key, or null.
  ObjectRef findEntry(Value Key) const;

  ObjectRef Table;
  uint32_t Count = 0;
  uint32_t Capacity = 0;
  uint32_t UsedBuckets = 0;
  uint32_t InitialCapacity;
  bool Lazy;
};

} // namespace chameleon

#endif // CHAMELEON_COLLECTIONS_HASHMAPIMPL_H
