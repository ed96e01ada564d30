//===--- HashMapImpl.cpp - Chained hash map -------------------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "collections/HashMapImpl.h"

#include "collections/CollectionRuntime.h"
#include "support/FaultInjector.h"

using namespace chameleon;

void HashMapImpl::initEager() {
  if (Lazy)
    return;
  ensureTable();
}

ValueArray &HashMapImpl::table() const {
  assert(!Table.isNull() && "no bucket table");
  return RT.heap().getAs<ValueArray>(Table);
}

void HashMapImpl::ensureTable() {
  if (!Table.isNull())
    return;
  CHAM_FAULT("hashmap.table.reserve");
  Table = RT.allocValueArray(InitialCapacity);
  Capacity = InitialCapacity;
}

void HashMapImpl::resize(uint32_t NewCapacity) {
  // Entries are relinked into the new table, not reallocated — matching
  // java.util.HashMap's transfer, so resizing costs one array, not N
  // entries.
  CHAM_FAULT("hashmap.resize.reserve");
  ObjectRef NewTable = RT.allocValueArray(NewCapacity);
  GcHeap &Heap = RT.heap();
  ValueArray &New = Heap.getAs<ValueArray>(NewTable);
  uint32_t NewUsed = 0;
  ValueArray &Old = table();
  for (uint32_t B = 0; B < Capacity; ++B) {
    ObjectRef Cur = Old.get(B).refOrNull();
    while (!Cur.isNull()) {
      MapEntry &E = Heap.getAs<MapEntry>(Cur);
      ObjectRef Next = E.Next;
      uint32_t NewBucket = bucketOf(E.Key, NewCapacity);
      Value Head = New.get(NewBucket);
      if (Head.isNull())
        ++NewUsed;
      E.Next = Head.refOrNull();
      New.set(NewBucket, Value::ofRef(Cur));
      Cur = Next;
    }
  }
  Table = NewTable;
  Capacity = NewCapacity;
  UsedBuckets = NewUsed;
}

ObjectRef HashMapImpl::findEntry(Value Key) const {
  if (Table.isNull() || Count == 0)
    return ObjectRef::null();
  GcHeap &Heap = RT.heap();
  ObjectRef Cur = table().get(bucketOf(Key, Capacity)).refOrNull();
  while (!Cur.isNull()) {
    MapEntry &E = Heap.getAs<MapEntry>(Cur);
    if (E.Key == Key)
      return Cur;
    Cur = E.Next;
  }
  return ObjectRef::null();
}

void HashMapImpl::clear() {
  if (!Table.isNull()) {
    ValueArray &T = table();
    for (uint32_t B = 0; B < Capacity; ++B)
      T.set(B, Value::null());
  }
  Count = 0;
  UsedBuckets = 0;
  bumpMod();
}

CollectionSizes HashMapImpl::sizes() const {
  const MemoryModel &M = RT.heap().model();
  uint64_t EntryBytes = M.objectBytes(3);
  CollectionSizes S;
  S.Live = shallowBytes() + (Table.isNull() ? 0 : M.arrayBytes(Capacity))
           + static_cast<uint64_t>(Count) * EntryBytes;
  // Used excludes the parts that do not store application entries (§2.1):
  // empty bucket slots and each entry's overhead beyond its key/value
  // slots (header + next pointer).
  uint64_t EntryOverhead = EntryBytes - 2 * M.PointerBytes;
  S.Used = S.Live
           - static_cast<uint64_t>(Capacity - UsedBuckets) * M.PointerBytes
           - static_cast<uint64_t>(Count) * EntryOverhead;
  S.Core = Count == 0 ? 0 : M.arrayBytes(2 * static_cast<uint64_t>(Count));
  return S;
}

bool HashMapImpl::put(Value Key, Value Val) {
  ensureTable();
  ObjectRef Existing = findEntry(Key);
  if (!Existing.isNull()) {
    RT.heap().getAs<MapEntry>(Existing).Val = Val;
    return false;
  }
  uint32_t Bucket = bucketOf(Key, Capacity);
  Value Head = table().get(Bucket);
  ObjectRef Fresh = RT.allocMapEntry(Key, Val, Head.refOrNull());
  // The table may look different after the allocation GC'd, but the table
  // array itself is reachable from this impl; re-fetch for safety after
  // the allocation (the reference is stable, the C++ object is too).
  table().set(Bucket, Value::ofRef(Fresh));
  if (Head.isNull())
    ++UsedBuckets;
  ++Count;
  bumpMod();
  if (Count > (static_cast<uint64_t>(Capacity) * 3) / 4)
    resize(Capacity * 2);
  return true;
}

Value HashMapImpl::get(Value Key) const {
  ObjectRef Entry = findEntry(Key);
  return Entry.isNull() ? Value::null()
                        : RT.heap().getAs<MapEntry>(Entry).Val;
}

bool HashMapImpl::containsKey(Value Key) const {
  return !findEntry(Key).isNull();
}

bool HashMapImpl::containsValue(Value Val) const {
  if (Table.isNull())
    return false;
  GcHeap &Heap = RT.heap();
  for (uint32_t B = 0; B < Capacity; ++B) {
    ObjectRef Cur = table().get(B).refOrNull();
    while (!Cur.isNull()) {
      MapEntry &E = Heap.getAs<MapEntry>(Cur);
      if (E.Val == Val)
        return true;
      Cur = E.Next;
    }
  }
  return false;
}

bool HashMapImpl::removeKey(Value Key) {
  if (Table.isNull() || Count == 0)
    return false;
  GcHeap &Heap = RT.heap();
  uint32_t Bucket = bucketOf(Key, Capacity);
  ObjectRef Cur = table().get(Bucket).refOrNull();
  ObjectRef Prev = ObjectRef::null();
  while (!Cur.isNull()) {
    MapEntry &E = Heap.getAs<MapEntry>(Cur);
    if (E.Key == Key) {
      if (Prev.isNull()) {
        table().set(Bucket,
                    E.Next.isNull() ? Value::null() : Value::ofRef(E.Next));
        if (E.Next.isNull())
          --UsedBuckets;
      } else {
        Heap.getAs<MapEntry>(Prev).Next = E.Next;
      }
      --Count;
      bumpMod();
      return true;
    }
    Prev = Cur;
    Cur = E.Next;
  }
  return false;
}

bool HashMapImpl::iterNext(IterState &State, Value &Key, Value &Val) const {
  if (Table.isNull())
    return false;
  GcHeap &Heap = RT.heap();
  uint32_t Bucket = static_cast<uint32_t>(State.A);
  ObjectRef Cur = ObjectRef::fromRaw(static_cast<uint32_t>(State.B));
  while (Cur.isNull()) {
    if (Bucket >= Capacity)
      return false;
    Cur = table().get(Bucket).refOrNull();
    ++Bucket;
  }
  MapEntry &E = Heap.getAs<MapEntry>(Cur);
  Key = E.Key;
  Val = E.Val;
  State.A = Bucket;
  State.B = E.Next.raw();
  return true;
}
