//===--- OtherMapImpls.cpp - Singleton and size-adapting maps ------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "collections/OtherMapImpls.h"

#include "collections/ArrayMapImpl.h"
#include "collections/CollectionRuntime.h"
#include "collections/HashMapImpl.h"

using namespace chameleon;

//===----------------------------------------------------------------------===//
// SingletonMapImpl
//===----------------------------------------------------------------------===//

void SingletonMapImpl::clear() {
  K = Value::null();
  V = Value::null();
  Has = false;
  bumpMod();
}

CollectionSizes SingletonMapImpl::sizes() const {
  const MemoryModel &M = RT.heap().model();
  CollectionSizes S;
  S.Live = shallowBytes();
  S.Used = S.Live;
  S.Core = Has ? M.arrayBytes(2) : 0;
  return S;
}

bool SingletonMapImpl::put(Value Key, Value Val) {
  if (Has && K == Key) {
    V = Val;
    return false;
  }
  assert(!Has && "SingletonMap can hold at most one binding; the selection "
                 "rule requires maxSize <= 1 at this context");
  K = Key;
  V = Val;
  Has = true;
  bumpMod();
  return true;
}

Value SingletonMapImpl::get(Value Key) const {
  return (Has && K == Key) ? V : Value::null();
}

bool SingletonMapImpl::containsKey(Value Key) const {
  return Has && K == Key;
}

bool SingletonMapImpl::containsValue(Value Val) const {
  return Has && V == Val;
}

bool SingletonMapImpl::removeKey(Value Key) {
  if (!Has || K != Key)
    return false;
  clear();
  return true;
}

bool SingletonMapImpl::iterNext(IterState &State, Value &Key,
                                Value &Val) const {
  if (State.A != 0 || !Has)
    return false;
  Key = K;
  Val = V;
  State.A = 1;
  return true;
}

//===----------------------------------------------------------------------===//
// SizeAdaptingMapImpl
//===----------------------------------------------------------------------===//

void SizeAdaptingMapImpl::initEager() {
  assert(Inner.isNull() && "already initialised");
  Inner = RT.makeImpl(ImplKind::ArrayMap, /*Capacity=*/0);
  RT.heap().getAs<ArrayMapImpl>(Inner).initEager();
}

MapImpl &SizeAdaptingMapImpl::inner() const {
  assert(!Inner.isNull() && "not initialised");
  return RT.heap().getAs<MapImpl>(Inner);
}

void SizeAdaptingMapImpl::convertToHash() {
  // Allocate the hash map sized for the current content, then move the
  // bindings over; the array representation becomes garbage.
  ObjectRef HashRef = RT.makeImpl(ImplKind::HashMap, inner().size() * 2);
  {
    // Keep both representations reachable across entry allocations.
    TempRootScope Guard(RT.heap(), HashRef, Inner);
    HashMapImpl &Hash = RT.heap().getAs<HashMapImpl>(HashRef);
    Hash.initEager();
    IterState It;
    Value Key, Val;
    MapImpl &Old = inner();
    while (Old.iterNext(It, Key, Val))
      Hash.put(Key, Val);
  }
  Inner = HashRef;
  Hashed = true;
  bumpMod();
}

uint32_t SizeAdaptingMapImpl::size() const { return inner().size(); }

void SizeAdaptingMapImpl::clear() {
  inner().clear();
  bumpMod();
}

CollectionSizes SizeAdaptingMapImpl::sizes() const {
  CollectionSizes S = inner().sizes();
  S.Live += shallowBytes();
  S.Used += shallowBytes();
  return S;
}

bool SizeAdaptingMapImpl::put(Value Key, Value Val) {
  bool New = inner().put(Key, Val);
  if (New && !Hashed && inner().size() > Threshold)
    convertToHash();
  if (New)
    bumpMod();
  return New;
}

Value SizeAdaptingMapImpl::get(Value Key) const { return inner().get(Key); }

bool SizeAdaptingMapImpl::containsKey(Value Key) const {
  return inner().containsKey(Key);
}

bool SizeAdaptingMapImpl::containsValue(Value Val) const {
  return inner().containsValue(Val);
}

bool SizeAdaptingMapImpl::removeKey(Value Key) {
  bool Removed = inner().removeKey(Key);
  if (Removed)
    bumpMod();
  return Removed;
}

bool SizeAdaptingMapImpl::iterNext(IterState &State, Value &Key,
                                   Value &Val) const {
  return inner().iterNext(State, Key, Val);
}
