//===--- ArrayMapImpl.cpp - Array-backed map ------------------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "collections/ArrayMapImpl.h"

#include "collections/CollectionRuntime.h"
#include "support/FaultInjector.h"

using namespace chameleon;

ValueArray &ArrayMapImpl::array() const {
  assert(!Backing.isNull() && "no backing array");
  return RT.heap().getAs<ValueArray>(Backing);
}

void ArrayMapImpl::ensureCapacity(uint32_t NeededPairs) {
  if (NeededPairs <= Capacity)
    return;
  uint32_t NewCap = grownCapacity(Capacity, InitialCapacity, NeededPairs);
  CHAM_FAULT("arraymap.reserve");
  ObjectRef NewBacking = RT.allocValueArray(2 * NewCap);
  if (!Backing.isNull()) {
    ValueArray &Old = array();
    ValueArray &New = RT.heap().getAs<ValueArray>(NewBacking);
    for (uint32_t I = 0; I < 2 * Count; ++I)
      New.set(I, Old.get(I));
  }
  Backing = NewBacking;
  Capacity = NewCap;
}

uint32_t ArrayMapImpl::indexOf(Value Key) const {
  for (uint32_t I = 0; I < Count; ++I)
    if (array().get(2 * I) == Key)
      return I;
  return UINT32_MAX;
}

void ArrayMapImpl::clear() {
  if (!Backing.isNull()) {
    ValueArray &Arr = array();
    for (uint32_t I = 0; I < 2 * Count; ++I)
      Arr.set(I, Value::null());
  }
  Count = 0;
  bumpMod();
}

CollectionSizes ArrayMapImpl::sizes() const {
  const MemoryModel &M = RT.heap().model();
  CollectionSizes S;
  S.Live = shallowBytes()
           + (Backing.isNull() ? 0
                               : M.arrayBytes(2 * static_cast<uint64_t>(
                                     Capacity)));
  S.Used = S.Live
           - 2 * static_cast<uint64_t>(Capacity - Count) * M.PointerBytes;
  S.Core = Count == 0 ? 0 : M.arrayBytes(2 * static_cast<uint64_t>(Count));
  return S;
}

bool ArrayMapImpl::put(Value Key, Value Val) {
  ensureCapacity(1); // make sure the array exists before scanning
  uint32_t At = indexOf(Key);
  if (At != UINT32_MAX) {
    array().set(2 * At + 1, Val);
    return false;
  }
  ensureCapacity(Count + 1);
  ValueArray &Arr = array();
  Arr.set(2 * Count, Key);
  Arr.set(2 * Count + 1, Val);
  ++Count;
  bumpMod();
  return true;
}

Value ArrayMapImpl::get(Value Key) const {
  uint32_t At = indexOf(Key);
  return At == UINT32_MAX ? Value::null() : array().get(2 * At + 1);
}

bool ArrayMapImpl::containsKey(Value Key) const {
  return indexOf(Key) != UINT32_MAX;
}

bool ArrayMapImpl::containsValue(Value Val) const {
  for (uint32_t I = 0; I < Count; ++I)
    if (array().get(2 * I + 1) == Val)
      return true;
  return false;
}

bool ArrayMapImpl::removeKey(Value Key) {
  uint32_t At = indexOf(Key);
  if (At == UINT32_MAX)
    return false;
  ValueArray &Arr = array();
  // Order is not part of the Map contract: move the last pair into the gap.
  Arr.set(2 * At, Arr.get(2 * (Count - 1)));
  Arr.set(2 * At + 1, Arr.get(2 * (Count - 1) + 1));
  Arr.set(2 * (Count - 1), Value::null());
  Arr.set(2 * (Count - 1) + 1, Value::null());
  --Count;
  bumpMod();
  return true;
}

bool ArrayMapImpl::iterNext(IterState &State, Value &Key, Value &Val) const {
  if (State.A >= Count)
    return false;
  uint32_t I = static_cast<uint32_t>(State.A);
  Key = array().get(2 * I);
  Val = array().get(2 * I + 1);
  ++State.A;
  return true;
}
