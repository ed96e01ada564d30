//===--- SmallListImpls.cpp - Singleton, empty, and int lists ------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "collections/SmallListImpls.h"

#include "collections/CollectionRuntime.h"
#include "support/FaultInjector.h"
#include "support/Assert.h"

using namespace chameleon;

//===----------------------------------------------------------------------===//
// SingletonListImpl
//===----------------------------------------------------------------------===//

void SingletonListImpl::clear() {
  Item = Value::null();
  Has = false;
  bumpMod();
}

CollectionSizes SingletonListImpl::sizes() const {
  const MemoryModel &M = RT.heap().model();
  CollectionSizes S;
  S.Live = shallowBytes();
  S.Used = S.Live;
  S.Core = Has ? M.arrayBytes(1) : 0;
  return S;
}

bool SingletonListImpl::add(Value V) {
  assert(!Has && "SingletonList can hold at most one element; the selection "
                 "rule requires maxSize <= 1 at this context");
  Item = V;
  Has = true;
  bumpMod();
  return true;
}

Value SingletonListImpl::get(uint32_t Index) const {
  assert(Index == 0 && Has && "index out of bounds");
  (void)Index;
  return Item;
}

Value SingletonListImpl::setAt(uint32_t Index, Value V) {
  assert(Index == 0 && Has && "index out of bounds");
  (void)Index;
  Value Old = Item;
  Item = V;
  return Old;
}

Value SingletonListImpl::removeAt(uint32_t Index) {
  assert(Index == 0 && Has && "index out of bounds");
  (void)Index;
  Value Old = Item;
  clear();
  return Old;
}

bool SingletonListImpl::removeValue(Value V) {
  if (!Has || Item != V)
    return false;
  clear();
  return true;
}

bool SingletonListImpl::contains(Value V) const { return Has && Item == V; }

bool SingletonListImpl::iterNext(IterState &State, Value &Out) const {
  if (State.A != 0 || !Has)
    return false;
  Out = Item;
  State.A = 1;
  return true;
}

//===----------------------------------------------------------------------===//
// EmptyListImpl
//===----------------------------------------------------------------------===//

CollectionSizes EmptyListImpl::sizes() const {
  CollectionSizes S;
  S.Live = shallowBytes();
  S.Used = S.Live;
  S.Core = 0;
  return S;
}

bool EmptyListImpl::add(Value V) {
  (void)V;
  CHAM_UNREACHABLE("add on EmptyList; the selection rule requires "
                   "#allOps mutations to be zero at this context");
}

bool EmptyListImpl::removeValue(Value V) {
  (void)V;
  return false;
}

//===----------------------------------------------------------------------===//
// IntArrayListImpl
//===----------------------------------------------------------------------===//

IntArray &IntArrayListImpl::array() const {
  assert(!Backing.isNull() && "no backing array");
  return RT.heap().getAs<IntArray>(Backing);
}

void IntArrayListImpl::ensureCapacity(uint32_t Needed) {
  if (Needed <= Capacity)
    return;
  uint32_t NewCap = grownCapacity(Capacity, InitialCapacity, Needed);
  CHAM_FAULT("intarraylist.reserve");
  ObjectRef NewBacking = RT.allocIntArray(NewCap);
  if (!Backing.isNull()) {
    IntArray &Old = array();
    IntArray &New = RT.heap().getAs<IntArray>(NewBacking);
    for (uint32_t I = 0; I < Count; ++I)
      New.set(I, Old.get(I));
  }
  Backing = NewBacking;
  Capacity = NewCap;
}

void IntArrayListImpl::clear() {
  Count = 0;
  bumpMod();
}

CollectionSizes IntArrayListImpl::sizes() const {
  const MemoryModel &M = RT.heap().model();
  // Int slots are 4 bytes regardless of pointer width; both the actual and
  // the ideal representation use int slots.
  auto IntArrayBytes = [&](uint64_t Len) {
    return M.align(M.ArrayHeaderBytes + Len * 4);
  };
  CollectionSizes S;
  S.Live = shallowBytes() + (Backing.isNull() ? 0 : IntArrayBytes(Capacity));
  S.Used = S.Live - static_cast<uint64_t>(Capacity - Count) * 4;
  S.Core = Count == 0 ? 0 : IntArrayBytes(Count);
  return S;
}

bool IntArrayListImpl::add(Value V) {
  assert(V.isInt() && "IntArrayList stores only int values");
  ensureCapacity(Count + 1);
  array().set(Count, V.asInt());
  ++Count;
  bumpMod();
  return true;
}

void IntArrayListImpl::addAt(uint32_t Index, Value V) {
  assert(V.isInt() && "IntArrayList stores only int values");
  assert(Index <= Count && "index out of bounds");
  ensureCapacity(Count + 1);
  IntArray &Arr = array();
  for (uint32_t I = Count; I > Index; --I)
    Arr.set(I, Arr.get(I - 1));
  Arr.set(Index, V.asInt());
  ++Count;
  bumpMod();
}

Value IntArrayListImpl::get(uint32_t Index) const {
  assert(Index < Count && "index out of bounds");
  return Value::ofInt(array().get(Index));
}

Value IntArrayListImpl::setAt(uint32_t Index, Value V) {
  assert(V.isInt() && "IntArrayList stores only int values");
  assert(Index < Count && "index out of bounds");
  IntArray &Arr = array();
  Value Old = Value::ofInt(Arr.get(Index));
  Arr.set(Index, V.asInt());
  return Old;
}

Value IntArrayListImpl::removeAt(uint32_t Index) {
  assert(Index < Count && "index out of bounds");
  IntArray &Arr = array();
  Value Old = Value::ofInt(Arr.get(Index));
  for (uint32_t I = Index; I + 1 < Count; ++I)
    Arr.set(I, Arr.get(I + 1));
  --Count;
  bumpMod();
  return Old;
}

bool IntArrayListImpl::removeValue(Value V) {
  if (!V.isInt())
    return false;
  for (uint32_t I = 0; I < Count; ++I) {
    if (array().get(I) == V.asInt()) {
      removeAt(I);
      return true;
    }
  }
  return false;
}

bool IntArrayListImpl::contains(Value V) const {
  if (!V.isInt())
    return false;
  for (uint32_t I = 0; I < Count; ++I)
    if (array().get(I) == V.asInt())
      return true;
  return false;
}

bool IntArrayListImpl::iterNext(IterState &State, Value &Out) const {
  if (State.A >= Count)
    return false;
  Out = Value::ofInt(array().get(static_cast<uint32_t>(State.A)));
  ++State.A;
  return true;
}
