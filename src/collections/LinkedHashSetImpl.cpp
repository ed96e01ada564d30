//===--- LinkedHashSetImpl.cpp - Insertion-ordered hash set --------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "collections/LinkedHashSetImpl.h"

#include "collections/CollectionRuntime.h"
#include "support/FaultInjector.h"

using namespace chameleon;

void LinkedHashSetImpl::initEager() {
  assert(Table.isNull() && "already initialised");
  CHAM_FAULT("linkedhashset.init.reserve");
  Table = RT.allocValueArray(InitialCapacity);
  Capacity = InitialCapacity;
  Sentinel = RT.allocLinkedHashEntry(Value::null(), ObjectRef::null());
  LinkedHashEntry &S = RT.heap().getAs<LinkedHashEntry>(Sentinel);
  S.Before = Sentinel;
  S.After = Sentinel;
}

ValueArray &LinkedHashSetImpl::table() const {
  assert(!Table.isNull() && "no bucket table");
  return RT.heap().getAs<ValueArray>(Table);
}

ObjectRef LinkedHashSetImpl::findEntry(Value V) const {
  if (Count == 0)
    return ObjectRef::null();
  GcHeap &Heap = RT.heap();
  ObjectRef Cur = table().get(bucketOf(V, Capacity)).refOrNull();
  while (!Cur.isNull()) {
    LinkedHashEntry &E = Heap.getAs<LinkedHashEntry>(Cur);
    if (E.Item == V)
      return Cur;
    Cur = E.Chain;
  }
  return ObjectRef::null();
}

void LinkedHashSetImpl::resize(uint32_t NewCapacity) {
  CHAM_FAULT("linkedhashset.resize.reserve");
  ObjectRef NewTable = RT.allocValueArray(NewCapacity);
  GcHeap &Heap = RT.heap();
  ValueArray &New = Heap.getAs<ValueArray>(NewTable);
  uint32_t NewUsed = 0;
  // Walk the order list and relink bucket chains into the new table.
  ObjectRef Cur = Heap.getAs<LinkedHashEntry>(Sentinel).After;
  while (Cur != Sentinel) {
    LinkedHashEntry &E = Heap.getAs<LinkedHashEntry>(Cur);
    uint32_t Bucket = bucketOf(E.Item, NewCapacity);
    Value Head = New.get(Bucket);
    if (Head.isNull())
      ++NewUsed;
    E.Chain = Head.refOrNull();
    New.set(Bucket, Value::ofRef(Cur));
    Cur = E.After;
  }
  Table = NewTable;
  Capacity = NewCapacity;
  UsedBuckets = NewUsed;
}

void LinkedHashSetImpl::unlink(ObjectRef Entry) {
  GcHeap &Heap = RT.heap();
  LinkedHashEntry &E = Heap.getAs<LinkedHashEntry>(Entry);
  // Bucket chain.
  uint32_t Bucket = bucketOf(E.Item, Capacity);
  ObjectRef Cur = table().get(Bucket).refOrNull();
  if (Cur == Entry) {
    table().set(Bucket,
                E.Chain.isNull() ? Value::null() : Value::ofRef(E.Chain));
    if (E.Chain.isNull())
      --UsedBuckets;
  } else {
    while (!Cur.isNull()) {
      LinkedHashEntry &C = Heap.getAs<LinkedHashEntry>(Cur);
      if (C.Chain == Entry) {
        C.Chain = E.Chain;
        break;
      }
      Cur = C.Chain;
    }
  }
  // Order list.
  Heap.getAs<LinkedHashEntry>(E.Before).After = E.After;
  Heap.getAs<LinkedHashEntry>(E.After).Before = E.Before;
  --Count;
  bumpMod();
}

void LinkedHashSetImpl::clear() {
  GcHeap &Heap = RT.heap();
  if (!Table.isNull()) {
    ValueArray &T = table();
    for (uint32_t B = 0; B < Capacity; ++B)
      T.set(B, Value::null());
    LinkedHashEntry &S = Heap.getAs<LinkedHashEntry>(Sentinel);
    S.Before = Sentinel;
    S.After = Sentinel;
  }
  Count = 0;
  UsedBuckets = 0;
  bumpMod();
}

CollectionSizes LinkedHashSetImpl::sizes() const {
  const MemoryModel &M = RT.heap().model();
  uint64_t EntryBytes = M.objectBytes(5);
  CollectionSizes S;
  S.Live = shallowBytes();
  if (!Table.isNull())
    S.Live += M.arrayBytes(Capacity)
              + static_cast<uint64_t>(Count + 1) * EntryBytes;
  // Used excludes empty bucket slots, the order sentinel, and each
  // entry's overhead beyond its item slot (header, chain + order links).
  uint64_t EntryOverhead = EntryBytes - M.PointerBytes;
  S.Used = S.Live;
  if (!Table.isNull())
    S.Used -= static_cast<uint64_t>(Capacity - UsedBuckets) * M.PointerBytes
              + static_cast<uint64_t>(Count) * EntryOverhead + EntryBytes;
  S.Core = Count == 0 ? 0 : M.arrayBytes(Count);
  return S;
}

bool LinkedHashSetImpl::add(Value V) {
  if (!findEntry(V).isNull())
    return false;
  GcHeap &Heap = RT.heap();
  uint32_t Bucket = bucketOf(V, Capacity);
  Value Head = table().get(Bucket);
  ObjectRef Fresh = RT.allocLinkedHashEntry(V, Head.refOrNull());
  table().set(Bucket, Value::ofRef(Fresh));
  if (Head.isNull())
    ++UsedBuckets;
  // Splice at the tail of the order list.
  LinkedHashEntry &E = Heap.getAs<LinkedHashEntry>(Fresh);
  LinkedHashEntry &S = Heap.getAs<LinkedHashEntry>(Sentinel);
  E.Before = S.Before;
  E.After = Sentinel;
  Heap.getAs<LinkedHashEntry>(S.Before).After = Fresh;
  S.Before = Fresh;
  ++Count;
  bumpMod();
  if (Count > (static_cast<uint64_t>(Capacity) * 3) / 4)
    resize(Capacity * 2);
  return true;
}

Value LinkedHashSetImpl::get(uint32_t Index) const {
  assert(Index < Count && "index out of bounds");
  GcHeap &Heap = RT.heap();
  ObjectRef Cur = Heap.getAs<LinkedHashEntry>(Sentinel).After;
  for (uint32_t I = 0; I < Index; ++I)
    Cur = Heap.getAs<LinkedHashEntry>(Cur).After;
  return Heap.getAs<LinkedHashEntry>(Cur).Item;
}

Value LinkedHashSetImpl::removeAt(uint32_t Index) {
  assert(Index < Count && "index out of bounds");
  GcHeap &Heap = RT.heap();
  ObjectRef Cur = Heap.getAs<LinkedHashEntry>(Sentinel).After;
  for (uint32_t I = 0; I < Index; ++I)
    Cur = Heap.getAs<LinkedHashEntry>(Cur).After;
  Value Old = Heap.getAs<LinkedHashEntry>(Cur).Item;
  unlink(Cur);
  return Old;
}

bool LinkedHashSetImpl::removeValue(Value V) {
  ObjectRef Entry = findEntry(V);
  if (Entry.isNull())
    return false;
  unlink(Entry);
  return true;
}

bool LinkedHashSetImpl::contains(Value V) const {
  return !findEntry(V).isNull();
}

bool LinkedHashSetImpl::iterNext(IterState &State, Value &Out) const {
  if (Table.isNull())
    return false;
  GcHeap &Heap = RT.heap();
  ObjectRef Cur = State.A == 0
                      ? Heap.getAs<LinkedHashEntry>(Sentinel).After
                      : ObjectRef::fromRaw(static_cast<uint32_t>(State.A));
  if (Cur == Sentinel)
    return false;
  LinkedHashEntry &E = Heap.getAs<LinkedHashEntry>(Cur);
  Out = E.Item;
  State.A = E.After.raw();
  return true;
}
