//===--- ArrayListImpl.cpp - Resizable-array list -------------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "collections/ArrayListImpl.h"

#include "collections/CollectionRuntime.h"
#include "support/FaultInjector.h"

using namespace chameleon;

void ArrayListImpl::initEager() {
  if (Lazy)
    return;
  ensureCapacity(InitialCapacity);
}

ValueArray &ArrayListImpl::array() const {
  assert(!Backing.isNull() && "no backing array");
  return RT.heap().getAs<ValueArray>(Backing);
}

void ArrayListImpl::ensureCapacity(uint32_t Needed) {
  if (Needed <= Capacity)
    return;
  uint32_t NewCap = grownCapacity(Capacity, InitialCapacity, Needed);
  // Allocate the replacement array first (may GC; 'this' stays reachable
  // through the wrapper the caller holds), then copy and drop the old one.
  CHAM_FAULT("arraylist.reserve");
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

void ArrayListImpl::clear() {
  // Null the slots so dropped elements become collectable, keep capacity.
  if (!Backing.isNull()) {
    ValueArray &Arr = array();
    for (uint32_t I = 0; I < Count; ++I)
      Arr.set(I, Value::null());
  }
  Count = 0;
  bumpMod();
}

CollectionSizes ArrayListImpl::sizes() const {
  const MemoryModel &M = RT.heap().model();
  CollectionSizes S;
  S.Live = shallowBytes();
  if (!Backing.isNull())
    S.Live += M.arrayBytes(Capacity);
  S.Used = S.Live - static_cast<uint64_t>(Capacity - Count) * M.PointerBytes;
  S.Core = Count == 0 ? 0 : M.arrayBytes(Count);
  return S;
}

bool ArrayListImpl::add(Value V) {
  ensureCapacity(Count + 1);
  array().set(Count, V);
  ++Count;
  bumpMod();
  return true;
}

void ArrayListImpl::addAt(uint32_t Index, Value V) {
  assert(Index <= Count && "index out of bounds");
  ensureCapacity(Count + 1);
  ValueArray &Arr = array();
  for (uint32_t I = Count; I > Index; --I)
    Arr.set(I, Arr.get(I - 1));
  Arr.set(Index, V);
  ++Count;
  bumpMod();
}

Value ArrayListImpl::get(uint32_t Index) const {
  assert(Index < Count && "index out of bounds");
  return array().get(Index);
}

Value ArrayListImpl::setAt(uint32_t Index, Value V) {
  assert(Index < Count && "index out of bounds");
  ValueArray &Arr = array();
  Value Old = Arr.get(Index);
  Arr.set(Index, V);
  return Old;
}

Value ArrayListImpl::removeAt(uint32_t Index) {
  assert(Index < Count && "index out of bounds");
  ValueArray &Arr = array();
  Value Old = Arr.get(Index);
  for (uint32_t I = Index; I + 1 < Count; ++I)
    Arr.set(I, Arr.get(I + 1));
  Arr.set(Count - 1, Value::null());
  --Count;
  bumpMod();
  return Old;
}

bool ArrayListImpl::removeValue(Value V) {
  for (uint32_t I = 0; I < Count; ++I) {
    if (array().get(I) == V) {
      removeAt(I);
      return true;
    }
  }
  return false;
}

bool ArrayListImpl::contains(Value V) const {
  for (uint32_t I = 0; I < Count; ++I)
    if (array().get(I) == V)
      return true;
  return false;
}

bool ArrayListImpl::iterNext(IterState &State, Value &Out) const {
  if (State.A >= Count)
    return false;
  Out = array().get(static_cast<uint32_t>(State.A));
  ++State.A;
  return true;
}
