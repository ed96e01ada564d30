//===--- ArrayMapImpl.h - Array-backed map ---------------------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The array-backed map: one alternating key/value array, linear lookup —
/// the replacement the paper's headline TVLA result swaps small HashMaps
/// for (min-heap −53.95%, §5.3). No per-entry objects, so the per-element
/// overhead is two slots instead of 24 bytes + table share. At small sizes
/// linear scans also beat hashing ("In the realm of small sizes, constants
/// matter", §2.2).
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_COLLECTIONS_ARRAYMAPIMPL_H
#define CHAMELEON_COLLECTIONS_ARRAYMAPIMPL_H

#include "collections/ImplBase.h"

namespace chameleon {

/// Map over an alternating [k0,v0,k1,v1,...] array.
class ArrayMapImpl : public MapImpl {
public:
  /// \p InitialCapacity counts pairs, not slots.
  ArrayMapImpl(TypeId Type, uint64_t Bytes, CollectionRuntime &RT,
               uint32_t InitialCapacity)
      : MapImpl(Type, Bytes, RT), InitialCapacity(InitialCapacity) {}

  /// Allocates the eager backing array; call once rooted.
  void initEager() override { ensureCapacity(InitialCapacity); }

  uint32_t size() const override { return Count; }
  void clear() override;
  CollectionSizes sizes() const override;

  bool put(Value Key, Value Val) override;
  Value get(Value Key) const override;
  bool containsKey(Value Key) const override;
  bool containsValue(Value Val) const override;
  bool removeKey(Value Key) override;
  bool iterNext(IterState &State, Value &Key, Value &Val) const override;

  void trace(GcTracer &Tracer) const override { Tracer.visit(Backing); }

  uint32_t capacity() const { return Capacity; }

private:
  void ensureCapacity(uint32_t NeededPairs);
  ValueArray &array() const;
  /// Index of \p Key among pairs, or UINT32_MAX.
  uint32_t indexOf(Value Key) const;

  ObjectRef Backing;
  uint32_t Count = 0;
  uint32_t Capacity = 0; ///< in pairs
  uint32_t InitialCapacity;
};

} // namespace chameleon

#endif // CHAMELEON_COLLECTIONS_ARRAYMAPIMPL_H
