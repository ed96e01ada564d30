//===--- OtherMapImpls.h - Singleton and size-adapting maps ----*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two specialised map implementations:
///
/// * `SingletonMapImpl` — at most one binding held inline;
/// * `SizeAdaptingMapImpl` — the hybrid of §2.3: array-backed until the
///   size crosses a conversion threshold, then converted to a hash map.
///   The paper measured the threshold to be delicate (16 works for TVLA
///   with ~8% slowdown; 13 erases the footprint win); the threshold is a
///   constructor parameter so the §2.3 sweep can reproduce that.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_COLLECTIONS_OTHERMAPIMPLS_H
#define CHAMELEON_COLLECTIONS_OTHERMAPIMPLS_H

#include "collections/ImplBase.h"

namespace chameleon {

/// A map of at most one binding, stored inline.
class SingletonMapImpl : public MapImpl {
public:
  SingletonMapImpl(TypeId Type, uint64_t Bytes, CollectionRuntime &RT)
      : MapImpl(Type, Bytes, RT) {}

  uint32_t size() const override { return Has ? 1 : 0; }
  void clear() override;
  CollectionSizes sizes() const override;

  bool put(Value Key, Value Val) override;
  Value get(Value Key) const override;
  bool containsKey(Value Key) const override;
  bool containsValue(Value Val) const override;
  bool removeKey(Value Key) override;
  bool iterNext(IterState &State, Value &Key, Value &Val) const override;

  void trace(GcTracer &Tracer) const override {
    Tracer.visit(K.refOrNull());
    Tracer.visit(V.refOrNull());
  }

private:
  Value K;
  Value V;
  bool Has = false;
};

/// Hybrid map: delegates to an inner ArrayMap until the size exceeds the
/// conversion threshold, then converts to an inner HashMap. Decisions are
/// purely local (per instance), which is exactly the property §2.3 credits
/// and blames this design for.
class SizeAdaptingMapImpl : public MapImpl {
public:
  SizeAdaptingMapImpl(TypeId Type, uint64_t Bytes, CollectionRuntime &RT,
                      uint32_t Threshold)
      : MapImpl(Type, Bytes, RT), Threshold(Threshold) {}

  /// Allocates the initial inner ArrayMap; call once rooted.
  void initEager() override;

  uint32_t size() const override;
  void clear() override;
  CollectionSizes sizes() const override;

  bool put(Value Key, Value Val) override;
  Value get(Value Key) const override;
  bool containsKey(Value Key) const override;
  bool containsValue(Value Val) const override;
  bool removeKey(Value Key) override;
  bool iterNext(IterState &State, Value &Key, Value &Val) const override;

  void trace(GcTracer &Tracer) const override { Tracer.visit(Inner); }

  /// True once converted to the hash representation.
  bool isHashed() const { return Hashed; }

  uint32_t threshold() const { return Threshold; }

private:
  MapImpl &inner() const;
  /// Converts the array representation to a hash map.
  void convertToHash();

  ObjectRef Inner;
  uint32_t Threshold;
  bool Hashed = false;
};

} // namespace chameleon

#endif // CHAMELEON_COLLECTIONS_OTHERMAPIMPLS_H
