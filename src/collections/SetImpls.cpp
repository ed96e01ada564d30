//===--- SetImpls.cpp - Hash, array, and size-adapting sets --------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "collections/SetImpls.h"

#include "collections/CollectionRuntime.h"
#include "support/FaultInjector.h"
#include "collections/HashMapImpl.h"

using namespace chameleon;

//===----------------------------------------------------------------------===//
// HashSetImpl
//===----------------------------------------------------------------------===//

void HashSetImpl::initEager() {
  if (Lazy)
    return;
  ensureBacking();
}

void HashSetImpl::ensureBacking() {
  if (!Backing.isNull())
    return;
  Backing = RT.makeImpl(ImplKind::HashMap, InitialCapacity);
  RT.heap().getAs<HashMapImpl>(Backing).initEager();
}

HashMapImpl *HashSetImpl::backing() const {
  return Backing.isNull() ? nullptr
                          : &RT.heap().getAs<HashMapImpl>(Backing);
}

uint32_t HashSetImpl::size() const {
  HashMapImpl *Map = backing();
  return Map ? Map->size() : 0;
}

void HashSetImpl::clear() {
  if (HashMapImpl *Map = backing())
    Map->clear();
  bumpMod();
}

CollectionSizes HashSetImpl::sizes() const {
  const MemoryModel &M = RT.heap().model();
  CollectionSizes S;
  S.Live = shallowBytes();
  S.Used = S.Live;
  if (HashMapImpl *Map = backing()) {
    CollectionSizes Inner = Map->sizes();
    S.Live += Inner.Live;
    // The backing map stores each element as both key and value; only one
    // of the two slots stores the application entry.
    S.Used += Inner.Used
              - static_cast<uint64_t>(Map->size()) * M.PointerBytes;
    // A set's ideal representation stores each element once, not a pair.
    S.Core = Map->size() == 0 ? 0 : M.arrayBytes(Map->size());
  }
  return S;
}

bool HashSetImpl::add(Value V) {
  ensureBacking();
  bool New = backing()->put(V, V);
  if (New)
    bumpMod();
  return New;
}

bool HashSetImpl::removeValue(Value V) {
  HashMapImpl *Map = backing();
  if (!Map)
    return false;
  bool Removed = Map->removeKey(V);
  if (Removed)
    bumpMod();
  return Removed;
}

bool HashSetImpl::contains(Value V) const {
  HashMapImpl *Map = backing();
  return Map && Map->containsKey(V);
}

bool HashSetImpl::iterNext(IterState &State, Value &Out) const {
  HashMapImpl *Map = backing();
  if (!Map)
    return false;
  Value Ignored;
  return Map->iterNext(State, Out, Ignored);
}

//===----------------------------------------------------------------------===//
// ArraySetImpl
//===----------------------------------------------------------------------===//

ValueArray &ArraySetImpl::array() const {
  assert(!Backing.isNull() && "no backing array");
  return RT.heap().getAs<ValueArray>(Backing);
}

void ArraySetImpl::ensureCapacity(uint32_t Needed) {
  if (Needed <= Capacity)
    return;
  uint32_t NewCap = grownCapacity(Capacity, InitialCapacity, Needed);
  CHAM_FAULT("arrayset.reserve");
  ObjectRef NewBacking = RT.allocValueArray(NewCap);
  if (!Backing.isNull()) {
    ValueArray &Old = array();
    ValueArray &New = RT.heap().getAs<ValueArray>(NewBacking);
    for (uint32_t I = 0; I < Count; ++I)
      New.set(I, Old.get(I));
  }
  Backing = NewBacking;
  Capacity = NewCap;
}

void ArraySetImpl::clear() {
  if (!Backing.isNull()) {
    ValueArray &Arr = array();
    for (uint32_t I = 0; I < Count; ++I)
      Arr.set(I, Value::null());
  }
  Count = 0;
  bumpMod();
}

CollectionSizes ArraySetImpl::sizes() const {
  const MemoryModel &M = RT.heap().model();
  CollectionSizes S;
  S.Live = shallowBytes() + (Backing.isNull() ? 0 : M.arrayBytes(Capacity));
  S.Used = S.Live - static_cast<uint64_t>(Capacity - Count) * M.PointerBytes;
  S.Core = Count == 0 ? 0 : M.arrayBytes(Count);
  return S;
}

bool ArraySetImpl::add(Value V) {
  if (contains(V))
    return false;
  ensureCapacity(Count + 1);
  array().set(Count, V);
  ++Count;
  bumpMod();
  return true;
}

bool ArraySetImpl::removeValue(Value V) {
  for (uint32_t I = 0; I < Count; ++I) {
    if (array().get(I) == V) {
      ValueArray &Arr = array();
      Arr.set(I, Arr.get(Count - 1));
      Arr.set(Count - 1, Value::null());
      --Count;
      bumpMod();
      return true;
    }
  }
  return false;
}

bool ArraySetImpl::contains(Value V) const {
  for (uint32_t I = 0; I < Count; ++I)
    if (array().get(I) == V)
      return true;
  return false;
}

bool ArraySetImpl::iterNext(IterState &State, Value &Out) const {
  if (State.A >= Count)
    return false;
  Out = array().get(static_cast<uint32_t>(State.A));
  ++State.A;
  return true;
}

//===----------------------------------------------------------------------===//
// SizeAdaptingSetImpl
//===----------------------------------------------------------------------===//

void SizeAdaptingSetImpl::initEager() {
  assert(Inner.isNull() && "already initialised");
  Inner = RT.makeImpl(ImplKind::ArraySet, /*Capacity=*/0);
  RT.heap().getAs<ArraySetImpl>(Inner).initEager();
}

SeqImpl &SizeAdaptingSetImpl::inner() const {
  assert(!Inner.isNull() && "not initialised");
  return RT.heap().getAs<SeqImpl>(Inner);
}

void SizeAdaptingSetImpl::convertToHash() {
  ObjectRef HashRef = RT.makeImpl(ImplKind::HashSet, inner().size() * 2);
  {
    TempRootScope Guard(RT.heap(), HashRef, Inner);
    HashSetImpl &Hash = RT.heap().getAs<HashSetImpl>(HashRef);
    Hash.initEager();
    IterState It;
    Value V;
    SeqImpl &Old = inner();
    while (Old.iterNext(It, V))
      Hash.add(V);
  }
  Inner = HashRef;
  Hashed = true;
  bumpMod();
}

uint32_t SizeAdaptingSetImpl::size() const { return inner().size(); }

void SizeAdaptingSetImpl::clear() {
  inner().clear();
  bumpMod();
}

CollectionSizes SizeAdaptingSetImpl::sizes() const {
  CollectionSizes S = inner().sizes();
  S.Live += shallowBytes();
  S.Used += shallowBytes();
  return S;
}

bool SizeAdaptingSetImpl::add(Value V) {
  bool New = inner().add(V);
  if (New && !Hashed && inner().size() > Threshold)
    convertToHash();
  if (New)
    bumpMod();
  return New;
}

bool SizeAdaptingSetImpl::removeValue(Value V) {
  bool Removed = inner().removeValue(V);
  if (Removed)
    bumpMod();
  return Removed;
}

bool SizeAdaptingSetImpl::contains(Value V) const {
  return inner().contains(V);
}

bool SizeAdaptingSetImpl::iterNext(IterState &State, Value &Out) const {
  return inner().iterNext(State, Out);
}
