//===--- LinkedHashSetImpl.h - Insertion-ordered hash set ------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Insertion-ordered hash set: a bucket table chaining 32-byte linked-hash
/// entries that also form an order list around a sentinel. This class backs
/// two ImplKinds: `LinkedHashSet` (a Set), and `HashedList` — the structure
/// a List wrapper receives when the paper's Table 2 rule
/// "ArrayList: #contains > X && maxSize > Y -> LinkedHashSet" is applied.
/// As a list backing, positional reads walk the order list (O(n)); the rule
/// only fires for contains-dominated profiles, where the O(1) membership
/// dominates the cost.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_COLLECTIONS_LINKEDHASHSETIMPL_H
#define CHAMELEON_COLLECTIONS_LINKEDHASHSETIMPL_H

#include "collections/ImplBase.h"

namespace chameleon {

/// Insertion-ordered chained hash set.
class LinkedHashSetImpl : public SeqImpl {
public:
  LinkedHashSetImpl(TypeId Type, uint64_t Bytes, CollectionRuntime &RT,
                    uint32_t InitialCapacity)
      : SeqImpl(Type, Bytes, RT), InitialCapacity(InitialCapacity) {}

  /// Allocates the table and the order sentinel; call once rooted.
  void initEager() override;

  uint32_t size() const override { return Count; }
  void clear() override;
  CollectionSizes sizes() const override;

  bool add(Value V) override;
  Value get(uint32_t Index) const override; // order walk, O(n)
  Value removeAt(uint32_t Index) override;  // order walk, O(n)
  bool removeValue(Value V) override;
  bool contains(Value V) const override;
  bool iterNext(IterState &State, Value &Out) const override;

  void trace(GcTracer &Tracer) const override {
    Tracer.visit(Table);
    Tracer.visit(Sentinel);
  }

  uint32_t capacity() const { return Capacity; }
  uint32_t usedBuckets() const { return UsedBuckets; }

private:
  uint32_t bucketOf(Value V, uint32_t Cap) const {
    return static_cast<uint32_t>(V.hash() % Cap);
  }
  ValueArray &table() const;
  ObjectRef findEntry(Value V) const;
  void resize(uint32_t NewCapacity);
  /// Unlinks \p Entry from both the bucket chain and the order list.
  void unlink(ObjectRef Entry);

  ObjectRef Table;
  ObjectRef Sentinel;
  uint32_t Count = 0;
  uint32_t Capacity = 0;
  uint32_t UsedBuckets = 0;
  uint32_t InitialCapacity;
};

} // namespace chameleon

#endif // CHAMELEON_COLLECTIONS_LINKEDHASHSETIMPL_H
