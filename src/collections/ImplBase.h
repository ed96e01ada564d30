//===--- ImplBase.h - Backing-implementation interfaces --------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two internal interfaces every interchangeable backing implementation
/// provides: `SeqImpl` for element collections (lists and sets) and
/// `MapImpl` for key/value collections. The requirement on implementations
/// is the paper's (§1 "Selection from Multiple Implementations"): same
/// logical ADT behaviour, free choice of representation.
///
/// Implementations are heap objects; they allocate their internals through
/// the `CollectionRuntime` they were created by, so every internal array and
/// entry exerts real allocation pressure on the managed heap.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_COLLECTIONS_IMPLBASE_H
#define CHAMELEON_COLLECTIONS_IMPLBASE_H

#include "collections/Internals.h"
#include "collections/Value.h"
#include "runtime/HeapObject.h"
#include "runtime/SemanticMap.h"

namespace chameleon {

class CollectionRuntime;

/// Opaque iteration cursor. Implementations define the meaning of the two
/// words (array index, bucket index + entry reference, ...). Zero-initial
/// state means "before the first element".
struct IterState {
  uint64_t A = 0;
  uint64_t B = 0;
};

/// The capacity an array-backed implementation reserves so that \p Needed
/// elements fit: \p Initial for its first array, then the growth policy
/// the paper quotes in §2.2, and never less than \p Needed.
inline uint32_t grownCapacity(uint32_t Capacity, uint32_t Initial,
                              uint32_t Needed) {
  uint32_t NewCap = Capacity == 0 ? Initial : (Capacity * 3) / 2 + 1;
  return NewCap < Needed ? Needed : NewCap;
}

/// Common base of all backing implementations.
class CollectionImplBase : public HeapObject {
public:
  CollectionImplBase(TypeId Type, uint64_t Bytes, CollectionRuntime &RT)
      : HeapObject(Type, Bytes), RT(RT) {}

  /// The runtime (heap, type ids) this implementation allocates through.
  CollectionRuntime &runtime() const { return RT; }

  /// Structural modification counter; iterators fail fast on staleness.
  uint32_t modCount() const { return ModCount; }

  /// Allocates the internals an eager representation sets up front (a
  /// backing array, a table, a sentinel). The factory and live migration
  /// call it once, after rooting the object; the default allocates nothing.
  virtual void initEager() {}

  /// Number of elements (entries for maps).
  virtual uint32_t size() const = 0;

  /// Removes all elements. Representations keep their capacity, like
  /// java.util collections.
  virtual void clear() = 0;

  /// Aggregate live / used / core bytes of this implementation and all the
  /// internal objects it owns (not including the wrapper).
  virtual CollectionSizes sizes() const = 0;

protected:
  void bumpMod() { ++ModCount; }

  CollectionRuntime &RT;

private:
  uint32_t ModCount = 0;
};

/// Interface of element-collection implementations (lists and sets).
///
/// Positional operations have defaults so set-shaped implementations only
/// opt into what a profile-approved List replacement needs: `get(Index)`
/// and `removeAt` fall back to order-walks; `addAt`/`setAt` abort — the
/// rule engine only migrates a List to a set-shaped backing when the
/// profile shows those are never used.
class SeqImpl : public CollectionImplBase {
public:
  using CollectionImplBase::CollectionImplBase;

  /// Appends (lists) or inserts (sets; returns false on duplicates).
  virtual bool add(Value V) = 0;

  /// Inserts at a position (lists only).
  virtual void addAt(uint32_t Index, Value V);

  /// Element at a position. Default: walk iteration order (O(n)).
  virtual Value get(uint32_t Index) const;

  /// Replaces the element at a position; returns the old element.
  virtual Value setAt(uint32_t Index, Value V);

  /// Removes by position; returns the removed element. Default: find the
  /// Index-th element in iteration order and removeValue it.
  virtual Value removeAt(uint32_t Index);

  /// Removes the first element; default removeAt(0). LinkedList overrides
  /// with its O(1) head removal.
  virtual Value removeFirst();

  /// Removes one occurrence; returns whether an element was removed.
  virtual bool removeValue(Value V) = 0;

  /// Membership test.
  virtual bool contains(Value V) const = 0;

  /// Advances the cursor; returns false at the end.
  virtual bool iterNext(IterState &State, Value &Out) const = 0;
};

/// Interface of map implementations.
class MapImpl : public CollectionImplBase {
public:
  using CollectionImplBase::CollectionImplBase;

  /// Inserts or replaces; returns true when the key was new.
  virtual bool put(Value Key, Value Val) = 0;

  /// The value bound to a key, or Value::null() when absent (Java's
  /// convention; workloads never store null values).
  virtual Value get(Value Key) const = 0;

  virtual bool containsKey(Value Key) const = 0;
  virtual bool containsValue(Value Val) const = 0;

  /// Removes a binding; returns whether the key was present.
  virtual bool removeKey(Value Key) = 0;

  /// Advances the entry cursor; returns false at the end.
  virtual bool iterNext(IterState &State, Value &Key, Value &Val) const = 0;
};

} // namespace chameleon

#endif // CHAMELEON_COLLECTIONS_IMPLBASE_H
