//===--- Handles.cpp - Program-facing List / Set / Map --------------------===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "collections/Handles.h"

using namespace chameleon;

//===----------------------------------------------------------------------===//
// Iterators
//===----------------------------------------------------------------------===//

IterBase::IterBase(CollectionRuntime &RT, ObjectRef Wrapper,
                   ObjectRef IterObj, uint32_t ModCount,
                   uint32_t MigrationEpoch)
    : RT(&RT), Wrapper(RT.heap(), Wrapper), IterObj(RT.heap(), IterObj),
      ModAtStart(ModCount), EpochAtStart(MigrationEpoch) {}

CollectionImplBase &IterBase::checkedImpl() const {
  RT->heap().safepointPoll();
  CollectionObject &W = RT->heap().getAs<CollectionObject>(Wrapper.ref());
  // The epoch check must come first: after a migration the impl's
  // modCount is a fresh object's count and could collide with ModAtStart.
  assert(W.MigrationEpoch == EpochAtStart
         && "backing implementation migrated during iteration");
  CollectionImplBase &Impl = RT->heap().getAs<CollectionImplBase>(W.Impl);
  assert(Impl.modCount() == ModAtStart
         && "collection modified during iteration");
  return Impl;
}

bool ValueIter::next(Value &Out) {
  return static_cast<SeqImpl &>(checkedImpl()).iterNext(State, Out);
}

bool EntryIter::next(Value &Key, Value &Val) {
  return static_cast<MapImpl &>(checkedImpl()).iterNext(State, Key, Val);
}

//===----------------------------------------------------------------------===//
// Operations every ADT shares
//===----------------------------------------------------------------------===//

std::string CollectionHandleBase::backingName() const {
  const CollectionObject &W = obj();
  if (W.CustomId >= 0)
    return RT->customImpl(static_cast<CustomImplId>(W.CustomId)).Name;
  return implKindName(W.CurrentImpl);
}

uint32_t CollectionHandleBase::size() const {
  countOp(OpKind::Size);
  return implBase().size();
}

bool CollectionHandleBase::isEmpty() const {
  countOp(OpKind::IsEmpty);
  return implBase().size() == 0;
}

void CollectionHandleBase::clear() {
  countOp(OpKind::Clear);
  implBase().clear();
  noteSize(0);
  maybeRevise();
}

template <typename IterT> IterT CollectionHandleBase::iterateAs() const {
  countOp(implBase().size() == 0 ? OpKind::IterateEmpty : OpKind::Iterate);
  ObjectRef IterObj = RT->allocIterator(wrapperRef());
  return IterT(*RT, wrapperRef(), IterObj, implBase().modCount(),
               obj().MigrationEpoch);
}

//===----------------------------------------------------------------------===//
// List and Set
//===----------------------------------------------------------------------===//

bool SeqHandle::remove(Value V) {
  countOp(OpKind::RemoveObject);
  SeqImpl &I = impl();
  bool Removed = I.removeValue(V);
  noteSize(I.size());
  maybeRevise();
  return Removed;
}

bool SeqHandle::contains(Value V) const {
  countOp(OpKind::Contains);
  return impl().contains(V);
}

ValueIter SeqHandle::iterate() const { return iterateAs<ValueIter>(); }

void SeqHandle::addAllFrom(const SeqHandle &Source, OpKind Op,
                           uint32_t Index) {
  countOp(Op);
  Source.countOp(OpKind::CopiedInto);
  SeqImpl &Dst = impl();
  const SeqImpl &Src = Source.impl();
  IterState It;
  Value V;
  while (Src.iterNext(It, V)) {
    TempRootScope Guard(RT->heap(), V.refOrNull());
    if (Op == OpKind::AddAllAtIndex)
      Dst.addAt(Index++, V);
    else
      Dst.add(V);
  }
  noteSize(Dst.size());
  maybeRevise();
}

void List::add(Value V) {
  TempRootScope Guard(RT->heap(), V.refOrNull());
  countOp(OpKind::Add);
  SeqImpl &I = impl();
  I.add(V);
  noteSize(I.size());
  maybeRevise();
}

void List::add(uint32_t Index, Value V) {
  TempRootScope Guard(RT->heap(), V.refOrNull());
  countOp(OpKind::AddAtIndex);
  SeqImpl &I = impl();
  I.addAt(Index, V);
  noteSize(I.size());
  maybeRevise();
}

Value List::get(uint32_t Index) const {
  countOp(OpKind::GetAtIndex);
  return impl().get(Index);
}

Value List::set(uint32_t Index, Value V) {
  TempRootScope Guard(RT->heap(), V.refOrNull());
  countOp(OpKind::Set);
  Value Old = impl().setAt(Index, V);
  maybeRevise();
  return Old;
}

Value List::removeAt(uint32_t Index) {
  countOp(OpKind::RemoveAtIndex);
  SeqImpl &I = impl();
  Value Old = I.removeAt(Index);
  noteSize(I.size());
  maybeRevise();
  return Old;
}

Value List::removeFirst() {
  countOp(OpKind::RemoveFirst);
  SeqImpl &I = impl();
  Value Old = I.removeFirst();
  noteSize(I.size());
  maybeRevise();
  return Old;
}

bool Set::add(Value V) {
  TempRootScope Guard(RT->heap(), V.refOrNull());
  countOp(OpKind::Add);
  SeqImpl &I = impl();
  bool New = I.add(V);
  noteSize(I.size());
  maybeRevise();
  return New;
}

//===----------------------------------------------------------------------===//
// Map
//===----------------------------------------------------------------------===//

bool Map::put(Value Key, Value Val) {
  TempRootScope Guard(RT->heap(), Key.refOrNull(), Val.refOrNull());
  countOp(OpKind::Put);
  MapImpl &I = impl();
  bool New = I.put(Key, Val);
  noteSize(I.size());
  maybeRevise();
  return New;
}

Value Map::get(Value Key) const {
  countOp(OpKind::Get);
  return impl().get(Key);
}

bool Map::containsKey(Value Key) const {
  countOp(OpKind::ContainsKey);
  return impl().containsKey(Key);
}

bool Map::containsValue(Value Val) const {
  countOp(OpKind::ContainsValue);
  return impl().containsValue(Val);
}

bool Map::remove(Value Key) {
  countOp(OpKind::RemoveKey);
  MapImpl &I = impl();
  bool Removed = I.removeKey(Key);
  noteSize(I.size());
  maybeRevise();
  return Removed;
}

void Map::putAll(const Map &Source) {
  countOp(OpKind::AddAll);
  Source.countOp(OpKind::CopiedInto);
  MapImpl &Dst = impl();
  const MapImpl &Src = Source.impl();
  IterState It;
  Value Key, Val;
  while (Src.iterNext(It, Key, Val)) {
    TempRootScope Guard(RT->heap(), Key.refOrNull(), Val.refOrNull());
    Dst.put(Key, Val);
  }
  noteSize(Dst.size());
  maybeRevise();
}

EntryIter Map::iterate() const { return iterateAs<EntryIter>(); }
