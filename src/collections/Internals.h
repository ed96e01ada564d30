//===--- Internals.h - Heap objects internal to collections ----*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The internal heap objects collection ADTs consist of: backing arrays,
/// chained map entries, linked-list entries, linked-hash entries, and the
/// per-iteration iterator objects the paper observes being massively
/// allocated (§5.4 "Iterators"). All are `TypeKind::CollectionInternal`:
/// their bytes are accounted through the owning wrapper's semantic map,
/// except that `ValueArray` also serves as the plain "Object" payload
/// applications store in collections (CollectionRuntime::allocData).
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_COLLECTIONS_INTERNALS_H
#define CHAMELEON_COLLECTIONS_INTERNALS_H

#include "collections/Value.h"
#include "runtime/HeapObject.h"

#include <vector>

namespace chameleon {

/// A fixed-length reference array: the simulated `Object[]`, and the
/// reference fields of a plain payload object.
class ValueArray : public HeapObject {
public:
  ValueArray(TypeId Type, uint64_t Bytes, uint32_t Length)
      : HeapObject(Type, Bytes), Slots(Length) {}

  uint32_t length() const { return static_cast<uint32_t>(Slots.size()); }

  Value get(uint32_t Index) const {
    assert(Index < Slots.size() && "array index out of bounds");
    return Slots[Index];
  }

  void set(uint32_t Index, Value V) {
    assert(Index < Slots.size() && "array index out of bounds");
    Slots[Index] = V;
  }

  void trace(GcTracer &Tracer) const override {
    for (Value V : Slots)
      Tracer.visit(V.refOrNull());
  }

private:
  std::vector<Value> Slots;
};

/// A fixed-length primitive int array (4-byte slots under the 32-bit
/// model); backs IntArrayList.
class IntArray : public HeapObject {
public:
  IntArray(TypeId Type, uint64_t Bytes, uint32_t Length)
      : HeapObject(Type, Bytes), Slots(Length) {}

  uint32_t length() const { return static_cast<uint32_t>(Slots.size()); }

  int64_t get(uint32_t Index) const {
    assert(Index < Slots.size() && "array index out of bounds");
    return Slots[Index];
  }

  void set(uint32_t Index, int64_t X) {
    assert(Index < Slots.size() && "array index out of bounds");
    Slots[Index] = X;
  }

private:
  std::vector<int64_t> Slots;
};

/// A chained hash-map entry: header + three references (key, value, next) —
/// the 24-byte object of the paper's §2.3 space analysis.
class MapEntry : public HeapObject {
public:
  MapEntry(TypeId Type, uint64_t Bytes, Value Key, Value Val, ObjectRef Next)
      : HeapObject(Type, Bytes), Key(Key), Val(Val), Next(Next) {}

  Value Key;
  Value Val;
  ObjectRef Next;

  void trace(GcTracer &Tracer) const override {
    Tracer.visit(Key.refOrNull());
    Tracer.visit(Val.refOrNull());
    Tracer.visit(Next);
  }
};

/// A doubly-linked list entry: header + item, prev, next (24 bytes).
class LinkedEntry : public HeapObject {
public:
  LinkedEntry(TypeId Type, uint64_t Bytes, Value Item, ObjectRef Prev,
              ObjectRef Next)
      : HeapObject(Type, Bytes), Item(Item), Prev(Prev), Next(Next) {}

  Value Item;
  ObjectRef Prev;
  ObjectRef Next;

  void trace(GcTracer &Tracer) const override {
    Tracer.visit(Item.refOrNull());
    Tracer.visit(Prev);
    Tracer.visit(Next);
  }
};

/// A linked-hash entry: header + item, bucket-chain next, order links
/// before/after, cached hash (32 bytes under the 32-bit model).
class LinkedHashEntry : public HeapObject {
public:
  LinkedHashEntry(TypeId Type, uint64_t Bytes, Value Item, ObjectRef Chain)
      : HeapObject(Type, Bytes), Item(Item), Chain(Chain) {}

  Value Item;
  ObjectRef Chain;  ///< next entry in the same hash bucket
  ObjectRef Before; ///< previous entry in insertion order
  ObjectRef After;  ///< next entry in insertion order

  void trace(GcTracer &Tracer) const override {
    Tracer.visit(Item.refOrNull());
    Tracer.visit(Chain);
    Tracer.visit(Before);
    Tracer.visit(After);
  }
};

/// The object allocated by every `iterator()` call (header + collection
/// reference + cursor; 16 bytes). Exists purely so iterator allocation
/// pressure is visible to the heap, as the paper discusses.
class IteratorObject : public HeapObject {
public:
  IteratorObject(TypeId Type, uint64_t Bytes, ObjectRef Coll)
      : HeapObject(Type, Bytes), Coll(Coll) {}

  ObjectRef Coll;

  void trace(GcTracer &Tracer) const override { Tracer.visit(Coll); }
};

} // namespace chameleon

#endif // CHAMELEON_COLLECTIONS_INTERNALS_H
